"""Rotation-angle value type, kernel chirp and branch constants.

The simplified fractional kernel is

    (1 / sqrt(j*2*pi)) * exp(-j*t*u + (j/2) * t^2 * cot(phi))

and the conventional fractional kernel is

    sqrt((1 - j*cot(phi)) / (2*pi))
        * exp((j/2) * (u^2 + t^2) * cot(phi) - j*u*t*csc(phi))

Both square roots are taken on the principal branch,

    sqrt(j*2*pi) = sqrt(2*pi) * exp(j*pi/4),

which makes the forward/inverse constants exact reciprocals
(sqrt(j/(2*pi)) * 2*pi / sqrt(j*2*pi) == 1) so the transform round trip
composes to the identity. Angles with cot(phi) undefined (phi a multiple
of pi) are rejected at Angle construction; the delta-kernel branches of
the conventional transform have no sampled representation and are out of
scope. Neither kernel is evaluated pointwise here: the library sums the
simplified one by FFT, and the scalar forms of both (the conventional one
is only the paper's point of comparison) live in the test suite's oracle.

The chirp e^{(j/2) cot t^2} on a sampling grid, which every transform
applies (the inverses conjugated), as does every operator weight, has one
formula, ``time_chirp``, reused per (grid, angle) in a reuse scope.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngleError, InvalidGridError

# |sin(phi)| below this makes cot(phi) exceed ~1e12 and the quadratic
# chirp aliases catastrophically on any desk-scale grid.
SIN_PHI_FLOOR = 1e-12

# sqrt(j*2*pi) and sqrt(j/(2*pi)), both on the principal branch
SQRT_J2PI = complex(math.sqrt(2.0 * math.pi) * math.cos(math.pi / 4),
                    math.sqrt(2.0 * math.pi) * math.sin(math.pi / 4))
SQRT_J_OVER_2PI = complex(math.cos(math.pi / 4) / math.sqrt(2.0 * math.pi),
                          math.sin(math.pi / 4) / math.sqrt(2.0 * math.pi))


@dataclass(frozen=True, slots=True)
class Angle:
    """Validated rotation angle with its cached cot.

    Fields
    ------
    phi : rotation angle in radians, phi mod pi != 0
    cot_phi : cos(phi)/sin(phi), cached because every kernel and every
        operator weight uses it
    """

    phi: float
    cot_phi: float


def make_angle(phi: float) -> Angle:
    """Build an Angle from a rotation angle in radians.

    Raises DegenerateAngleError when |sin(phi)| < 1e-12, where the
    simplified kernel is undefined.
    """
    phi = float(phi)
    if not math.isfinite(phi):
        raise DegenerateAngleError(f"angle must be finite, got {phi!r}")
    s = math.sin(phi)
    if abs(s) < SIN_PHI_FLOOR:
        raise DegenerateAngleError(
            f"degenerate angle: phi={phi!r} has |sin(phi)| < {SIN_PHI_FLOOR}"
        )
    return Angle(phi=phi, cot_phi=math.cos(phi) / s)


# the open reuse scope's values by key; None outside one
_reuse = contextvars.ContextVar("_reuse", default=None)


def reused(key, build):
    """``build()``, or in the reuse scope that ``run_suite`` opens per run the
    read-only value an equal ``key`` built there. A key is a tuple led by
    its tag, the library function that names the entry. Outside a
    scope nothing is kept, and a build that raises keeps nothing either, so
    its checks run on every key's first build.

    The key sets the entry's lifetime. An entry whose key names an operand
    (a ``SampledSignal``, equal only to itself) right after its tag lives
    for one angle and pair: the shifted and modulated operands
    (``operators.shift_op``, ``modulate_op``), the chirped operands' FFTs
    that the weighted operators multiply (``operators._operand_spectrum``),
    and the operand spectra and the identity checks (``theorems``). Every
    other entry lives for the run: the chirps (``time_chirp``), the
    carriers e^{jqt} (``operators.modulate_op``), the chirp-z plans of the
    quadratures on the FFT-bin lattice (``transform._lattice_plan``) and
    the time-frequency-shift phases (``theorems._tf_shifted``)."""
    memo = _reuse.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def time_chirp(grid, angle: Angle) -> np.ndarray:
    """exp((j/2) cot(phi) t^2) at the points of a ``UniformGrid``, read-only
    and ``reused`` per (grid, angle). InvalidGridError when the largest
    phase |cot(phi)| t^2 / 2 overflows a double."""
    def build():
        t_max = max(abs(grid.start), abs(grid.point(grid.count - 1)))
        if not math.isfinite(0.5 * abs(angle.cot_phi) * t_max * t_max):
            raise InvalidGridError(
                f"chirp phase cot(phi) t^2 / 2 overflows a double on {grid} "
                f"at phi={angle.phi!r}")
        t = grid.points()
        chirp = np.exp(0.5j * angle.cot_phi * t * t)
        chirp.setflags(write=False)
        return chirp
    return reused((time_chirp, grid, angle), build)
