"""Identity checks: independent left/right-hand sides and residual reports.

Each check computes its two sides by disjoint routes:

* LHS: run the time-domain operator (weighted convolution / product /
  correlation, possibly with shifted or modulated operands; the weighted
  sums are chirp-factorized FFT convolutions), then push the result
  through the quadrature transform (a chirp-z transform).
* RHS: evaluate the closed-form spectral expression, with every spectrum
  at shifted or negated abscissae obtained by a fresh quadrature at those
  exact points. Nothing is interpolated, and no RHS ever calls a
  time-domain operator.

The test suite re-runs the whole certificate with the dense O(N^2)
quadrature and operator sums patched in for these FFT evaluators and
requires the same verdicts, so no verdict rests on FFT code alone.

Two of the printed identity forms are internally inconsistent with the
rest of the family (the sign of the pi/2 phase in the shifted correlation,
and both the phase and the spectrum argument of the time-frequency-shifted
correlation). For those, the checks compute the residual against the form
as printed *and* against the form obtained by re-running the derivation
(substitute xi = tau - d with the same sign pattern as the plain shifted
correlation). A check passes if either form meets tolerance, and the
report records which one did.

One convention note: the correlation is conjugate-linear in its first
slot, and the modulation properties are stated with the factor e^{+jq tau}
multiplying the already-conjugated operand inside the integral. With the
``frac_correlate`` signature that operand is therefore ``modulate_op(f, -q)``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import PAIR_COUNT, default_pairs
from .errors import AlignmentError, GridCompatibilityError, InvalidParameterError
from .grid import (
    ComplexArray,
    SampledSignal,
    Spectrum,
    UniformGrid,
    make_grid,
)
from .kernel import Angle, make_angle, sqrt_j2pi, sqrt_j_over_2pi
from .operators import (
    _lattice_index,
    frac_convolve,
    frac_correlate,
    frac_product,
    modulate_op,
    shift_op,
)
from .transform import (
    fast_ugrid,
    linear_convolve,
    smfrft_direct,
    smfrft_quadrature,
)

PI_HALF = math.pi / 2


class IdentityId(Enum):
    """The fifteen identity families the harness certifies."""

    CONV = "CONV"
    CONV_SHIFT_L = "CONV_SHIFT_L"
    CONV_SHIFT_R = "CONV_SHIFT_R"
    CONV_MOD_L = "CONV_MOD_L"
    CONV_MOD_R = "CONV_MOD_R"
    CONV_TFSHIFT_L = "CONV_TFSHIFT_L"
    CONV_TFSHIFT_R = "CONV_TFSHIFT_R"
    PROD = "PROD"
    CORR = "CORR"
    CORR_SHIFT_L = "CORR_SHIFT_L"
    CORR_SHIFT_R = "CORR_SHIFT_R"
    CORR_MOD_L = "CORR_MOD_L"
    CORR_MOD_R = "CORR_MOD_R"
    CORR_TFSHIFT_L = "CORR_TFSHIFT_L"
    CORR_TFSHIFT_R = "CORR_TFSHIFT_R"


# which (d, q) axes each family sweeps
_PARAM_KIND = {
    IdentityId.CONV: "base",
    IdentityId.PROD: "base",
    IdentityId.CORR: "base",
    IdentityId.CONV_SHIFT_L: "shift",
    IdentityId.CONV_SHIFT_R: "shift",
    IdentityId.CORR_SHIFT_L: "shift",
    IdentityId.CORR_SHIFT_R: "shift",
    IdentityId.CONV_MOD_L: "mod",
    IdentityId.CONV_MOD_R: "mod",
    IdentityId.CORR_MOD_L: "mod",
    IdentityId.CORR_MOD_R: "mod",
    IdentityId.CONV_TFSHIFT_L: "tfshift",
    IdentityId.CONV_TFSHIFT_R: "tfshift",
    IdentityId.CORR_TFSHIFT_L: "tfshift",
    IdentityId.CORR_TFSHIFT_R: "tfshift",
}


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Residuals and verdict for one identity at one parameter set.

    ``residual_derived_form`` equals ``residual_paper_form`` wherever the
    printed form and the derivation-consistent form coincide;
    ``chosen_form`` is "agree" in that case, otherwise it names the form
    with the smaller residual.
    """

    identity: IdentityId
    phi: float
    d: float
    q: float
    n: int
    residual_paper_form: float
    residual_derived_form: float
    tolerance: float
    passed: bool
    chosen_form: str


@dataclass(frozen=True, slots=True)
class CheckConfig:
    """Evaluation grid and tolerances for one identity check."""

    ugrid: UniformGrid
    tolerance: float
    zero_floor: float = 1e-14


# --------------------------------------------------------------------------
# spectra helpers

def _spectrum_at(signal: SampledSignal, points, angle: Angle) -> ComplexArray:
    return smfrft_quadrature(signal, points, angle)


def _conj_spectrum_at(signal: SampledSignal, points,
                      angle: Angle) -> ComplexArray:
    """The overline operator: transform of the conjugated signal.

    Equivalently the transform of the real part minus j times the
    transform of the imaginary part. Distinct from conjugating the
    transform, which would also conjugate the kernel chirp.
    """
    return smfrft_quadrature(signal.conjugate(), points, angle)


def conj_transform(f: SampledSignal, angle: Angle,
                   ugrid: UniformGrid) -> Spectrum:
    """Overline-operator spectrum of ``f`` on a uniform grid."""
    return smfrft_direct(f.conjugate(), ugrid, angle)


# --------------------------------------------------------------------------
# LHS: time-domain operator outputs

def lhs_signal(identity: IdentityId, f: SampledSignal, g: SampledSignal,
               angle: Angle, d: float, q: float) -> SampledSignal:
    """Operator output whose transform is the left-hand side."""
    if identity is IdentityId.CONV:
        return frac_convolve(f, g, angle)
    if identity is IdentityId.CONV_SHIFT_L:
        return frac_convolve(shift_op(f, d), g, angle)
    if identity is IdentityId.CONV_SHIFT_R:
        return frac_convolve(f, shift_op(g, d), angle)
    if identity is IdentityId.CONV_MOD_L:
        return frac_convolve(modulate_op(f, q), g, angle)
    if identity is IdentityId.CONV_MOD_R:
        return frac_convolve(f, modulate_op(g, q), angle)
    if identity is IdentityId.CONV_TFSHIFT_L:
        return frac_convolve(modulate_op(shift_op(f, d), q), g, angle)
    if identity is IdentityId.CONV_TFSHIFT_R:
        return frac_convolve(f, modulate_op(shift_op(g, d), q), angle)
    if identity is IdentityId.PROD:
        return frac_product(f, g, angle)
    if identity is IdentityId.CORR:
        return frac_correlate(f, g, angle)
    if identity is IdentityId.CORR_SHIFT_L:
        return frac_correlate(shift_op(f, d), g, angle)
    if identity is IdentityId.CORR_SHIFT_R:
        return frac_correlate(f, shift_op(g, d), angle)
    if identity is IdentityId.CORR_MOD_L:
        # modulation enters the integral on the conjugated copy of f
        return frac_correlate(modulate_op(f, -q), g, angle)
    if identity is IdentityId.CORR_MOD_R:
        return frac_correlate(f, modulate_op(g, q), angle)
    if identity is IdentityId.CORR_TFSHIFT_L:
        return frac_correlate(modulate_op(shift_op(f, d), -q), g, angle)
    if identity is IdentityId.CORR_TFSHIFT_R:
        return frac_correlate(f, modulate_op(shift_op(g, d), q), angle)
    raise ValueError(f"unknown identity {identity!r}")


# --------------------------------------------------------------------------
# RHS: closed-form spectral expressions
#
# The builders are standalone so the specialization lattice (tfshift at
# d=0 and/or q=0 collapsing onto the simpler families) can be asserted
# on the formulas themselves.

def rhs_convolution(f, g, angle, u) -> ComplexArray:
    return sqrt_j2pi() * _spectrum_at(f, u, angle) * _spectrum_at(g, u, angle)


def rhs_conv_shift(f, g, angle, d, u, side) -> ComplexArray:
    cot = angle.cot_phi
    phase = np.exp(-1j * u * d + 0.5j * d * d * cot)
    if side == "L":
        fs = _spectrum_at(f, u - d * cot, angle)
        gs = _spectrum_at(g, u, angle)
    else:
        fs = _spectrum_at(f, u, angle)
        gs = _spectrum_at(g, u - d * cot, angle)
    return sqrt_j2pi() * phase * fs * gs


def rhs_conv_modulation(f, g, angle, q, u, side) -> ComplexArray:
    if side == "L":
        fs = _spectrum_at(f, u - q, angle)
        gs = _spectrum_at(g, u, angle)
    else:
        fs = _spectrum_at(f, u, angle)
        gs = _spectrum_at(g, u - q, angle)
    return sqrt_j2pi() * fs * gs


def rhs_conv_tfshift(f, g, angle, d, q, u, side) -> ComplexArray:
    cot = angle.cot_phi
    phase = np.exp(-1j * (u - q) * d + 0.5j * d * d * cot)
    if side == "L":
        fs = _spectrum_at(f, u - q - d * cot, angle)
        gs = _spectrum_at(g, u, angle)
    else:
        fs = _spectrum_at(f, u, angle)
        gs = _spectrum_at(g, u - q - d * cot, angle)
    return sqrt_j2pi() * phase * fs * gs


def rhs_product(f, g, angle, ugrid: UniformGrid) -> ComplexArray:
    """Spectral convolution, truncated to the computed u grid.

    R[k] = sqrt(j/(2*pi)) * du * sum_j F[v_j] G[u_k - v_j], with G taken
    as zero beyond the grid. Only trustworthy on the inner half of the
    grid, where the truncation leakage of decaying spectra is negligible;
    the check restricts the residual accordingly.
    """
    u = ugrid.points()
    origin = ugrid.start / ugrid.step
    r_u = round(origin)
    if abs(origin - r_u) > 1e-9 * max(1.0, abs(origin)):
        raise GridCompatibilityError(
            "product check needs a u grid whose start is a multiple of du"
        )
    fs = _spectrum_at(f, u, angle)
    gs = _spectrum_at(g, u, angle)
    full = linear_convolve(fs, gs)
    take = np.arange(ugrid.count) - r_u
    valid = (take >= 0) & (take < full.shape[0])
    out = np.zeros(ugrid.count, dtype=np.complex128)
    out[valid] = full[take[valid]]
    return sqrt_j_over_2pi() * ugrid.step * out


def rhs_correlation(f, g, angle, u) -> ComplexArray:
    return (sqrt_j2pi() * _conj_spectrum_at(f, -u, angle)
            * _spectrum_at(g, u, angle))


def rhs_corr_shift_derived(f, g, angle, d, u, side) -> ComplexArray:
    cot = angle.cot_phi
    if side == "L":
        phase = np.exp(1j * u * d + 0.5j * d * d * cot)
        fs = _conj_spectrum_at(f, -u - d * cot, angle)
        gs = _spectrum_at(g, u, angle)
    else:
        phase = np.exp(-1j * u * d + 0.5j * d * d * cot)
        fs = _conj_spectrum_at(f, -u, angle)
        gs = _spectrum_at(g, u - d * cot, angle)
    return sqrt_j2pi() * phase * fs * gs


def rhs_corr_shift_paper(f, g, angle, d, u, side) -> ComplexArray:
    """Shifted correlation exactly as printed.

    The general form matches the derived one; only the pi/2 special case
    is printed with the opposite phase sign on the left-shift side.
    """
    if side == "L" and angle.phi == PI_HALF:
        phase = np.exp(-1j * u * d)
        return (sqrt_j2pi() * phase * _conj_spectrum_at(f, -u, angle)
                * _spectrum_at(g, u, angle))
    return rhs_corr_shift_derived(f, g, angle, d, u, side)


def rhs_corr_modulation(f, g, angle, q, u, side) -> ComplexArray:
    if side == "L":
        fs = _conj_spectrum_at(f, -u - q, angle)
        gs = _spectrum_at(g, u, angle)
    else:
        fs = _conj_spectrum_at(f, -u, angle)
        gs = _spectrum_at(g, u - q, angle)
    return sqrt_j2pi() * fs * gs


def rhs_corr_tfshift_derived(f, g, angle, d, q, u, side) -> ComplexArray:
    """Time-frequency-shifted correlation from the derivation chain."""
    cot = angle.cot_phi
    if side == "L":
        phase = np.exp(1j * (u + q) * d + 0.5j * d * d * cot)
        fs = _conj_spectrum_at(f, -u - q - d * cot, angle)
        gs = _spectrum_at(g, u, angle)
    else:
        phase = np.exp(-1j * (u - q) * d + 0.5j * d * d * cot)
        fs = _conj_spectrum_at(f, -u, angle)
        gs = _spectrum_at(g, u - q - d * cot, angle)
    return sqrt_j2pi() * phase * fs * gs


def rhs_corr_tfshift_paper(f, g, angle, d, q, u, side) -> ComplexArray:
    """Time-frequency-shifted correlation exactly as printed.

    On the left side the printed phase is e^{-j(u-q)d + ...} and the
    printed spectrum argument is u - q - d*cot, without the leading
    negation the plain shifted form carries. The right side matches the
    derivation.
    """
    if side == "L":
        cot = angle.cot_phi
        phase = np.exp(-1j * (u - q) * d + 0.5j * d * d * cot)
        fs = _conj_spectrum_at(f, u - q - d * cot, angle)
        gs = _spectrum_at(g, u, angle)
        return sqrt_j2pi() * phase * fs * gs
    return rhs_corr_tfshift_derived(f, g, angle, d, q, u, side)


def _rhs_forms(identity: IdentityId, f, g, angle: Angle, d: float, q: float,
               ugrid: UniformGrid):
    """Return (paper_form, derived_form, forms_differ) on the u grid."""
    u = ugrid.points()
    if identity is IdentityId.CONV:
        rhs = rhs_convolution(f, g, angle, u)
        return rhs, rhs, False
    if identity in (IdentityId.CONV_SHIFT_L, IdentityId.CONV_SHIFT_R):
        side = "L" if identity is IdentityId.CONV_SHIFT_L else "R"
        rhs = rhs_conv_shift(f, g, angle, d, u, side)
        return rhs, rhs, False
    if identity in (IdentityId.CONV_MOD_L, IdentityId.CONV_MOD_R):
        side = "L" if identity is IdentityId.CONV_MOD_L else "R"
        rhs = rhs_conv_modulation(f, g, angle, q, u, side)
        return rhs, rhs, False
    if identity in (IdentityId.CONV_TFSHIFT_L, IdentityId.CONV_TFSHIFT_R):
        side = "L" if identity is IdentityId.CONV_TFSHIFT_L else "R"
        rhs = rhs_conv_tfshift(f, g, angle, d, q, u, side)
        return rhs, rhs, False
    if identity is IdentityId.PROD:
        rhs = rhs_product(f, g, angle, ugrid)
        return rhs, rhs, False
    if identity is IdentityId.CORR:
        rhs = rhs_correlation(f, g, angle, u)
        return rhs, rhs, False
    if identity in (IdentityId.CORR_SHIFT_L, IdentityId.CORR_SHIFT_R):
        side = "L" if identity is IdentityId.CORR_SHIFT_L else "R"
        derived = rhs_corr_shift_derived(f, g, angle, d, u, side)
        differ = side == "L" and angle.phi == PI_HALF and d != 0.0
        paper = (rhs_corr_shift_paper(f, g, angle, d, u, side)
                 if differ else derived)
        return paper, derived, differ
    if identity in (IdentityId.CORR_MOD_L, IdentityId.CORR_MOD_R):
        side = "L" if identity is IdentityId.CORR_MOD_L else "R"
        rhs = rhs_corr_modulation(f, g, angle, q, u, side)
        return rhs, rhs, False
    if identity in (IdentityId.CORR_TFSHIFT_L, IdentityId.CORR_TFSHIFT_R):
        side = "L" if identity is IdentityId.CORR_TFSHIFT_L else "R"
        derived = rhs_corr_tfshift_derived(f, g, angle, d, q, u, side)
        if side == "L":
            paper = rhs_corr_tfshift_paper(f, g, angle, d, q, u, side)
            return paper, derived, True
        return derived, derived, False
    raise ValueError(f"unknown identity {identity!r}")


# --------------------------------------------------------------------------
# residuals and reports

def _residual(lhs: ComplexArray, rhs: ComplexArray) -> tuple[float, bool]:
    """(residual, is_absolute): relative L2 against rhs, or the absolute
    difference norm when the reference side is identically zero."""
    nrm = float(np.linalg.norm(rhs))
    diff = float(np.linalg.norm(lhs - rhs))
    if nrm == 0.0:
        return diff, True
    return diff / nrm, False


def _inner_slice(count: int) -> slice:
    # the product check trusts only the inner half of the u grid, where
    # truncating the spectral-convolution integral leaks nothing
    quarter = count // 4
    return slice(quarter, count - quarter)


def _check(identity: IdentityId, f: SampledSignal, g: SampledSignal,
           angle: Angle, d: float, q: float, cfg: CheckConfig) -> IdentityReport:
    u = cfg.ugrid.points()
    operator_out = lhs_signal(identity, f, g, angle, d, q)
    paper, derived, differ = _rhs_forms(identity, f, g, angle, d, q, cfg.ugrid)
    if identity is IdentityId.PROD:
        sl = _inner_slice(cfg.ugrid.count)
        lhs = smfrft_quadrature(operator_out, u[sl], angle)
        paper = paper[sl]
        derived = derived[sl]
    else:
        lhs = smfrft_quadrature(operator_out, u, angle)

    r_paper, absolute = _residual(lhs, paper)
    if differ:
        r_derived, abs_d = _residual(lhs, derived)
        absolute = absolute and abs_d
    else:
        r_derived = r_paper
    tolerance = cfg.zero_floor if absolute else cfg.tolerance
    passed = min(r_paper, r_derived) <= tolerance
    if not differ:
        chosen = "agree"
    else:
        chosen = "derived" if r_derived <= r_paper else "paper"
    return IdentityReport(
        identity=identity, phi=angle.phi, d=d, q=q, n=f.grid.count,
        residual_paper_form=r_paper, residual_derived_form=r_derived,
        tolerance=tolerance, passed=passed, chosen_form=chosen,
    )


# --------------------------------------------------------------------------
# public per-identity checks

def check_convolution(f, g, angle, cfg) -> IdentityReport:
    """Transform of the weighted convolution vs sqrt(j*2*pi)*F*G."""
    return _check(IdentityId.CONV, f, g, angle, 0.0, 0.0, cfg)


def check_conv_shift(f, g, angle, d, side, cfg) -> IdentityReport:
    identity = (IdentityId.CONV_SHIFT_L if side == "L"
                else IdentityId.CONV_SHIFT_R)
    return _check(identity, f, g, angle, d, 0.0, cfg)


def check_conv_modulation(f, g, angle, q, side, cfg) -> IdentityReport:
    identity = (IdentityId.CONV_MOD_L if side == "L"
                else IdentityId.CONV_MOD_R)
    return _check(identity, f, g, angle, 0.0, q, cfg)


def check_conv_tfshift(f, g, angle, d, q, side, cfg) -> IdentityReport:
    identity = (IdentityId.CONV_TFSHIFT_L if side == "L"
                else IdentityId.CONV_TFSHIFT_R)
    return _check(identity, f, g, angle, d, q, cfg)


def check_product(f, g, angle, cfg) -> IdentityReport:
    """Transform of the weighted product vs the truncated spectral
    convolution, residual restricted to the inner half of the grid."""
    return _check(IdentityId.PROD, f, g, angle, 0.0, 0.0, cfg)


def check_correlation(f, g, angle, cfg) -> IdentityReport:
    return _check(IdentityId.CORR, f, g, angle, 0.0, 0.0, cfg)


def check_corr_shift(f, g, angle, d, side, cfg) -> IdentityReport:
    identity = (IdentityId.CORR_SHIFT_L if side == "L"
                else IdentityId.CORR_SHIFT_R)
    return _check(identity, f, g, angle, d, 0.0, cfg)


def check_corr_modulation(f, g, angle, q, side, cfg) -> IdentityReport:
    identity = (IdentityId.CORR_MOD_L if side == "L"
                else IdentityId.CORR_MOD_R)
    return _check(identity, f, g, angle, 0.0, q, cfg)


def check_corr_tfshift(f, g, angle, d, q, side, cfg) -> IdentityReport:
    identity = (IdentityId.CORR_TFSHIFT_L if side == "L"
                else IdentityId.CORR_TFSHIFT_R)
    return _check(identity, f, g, angle, d, q, cfg)


# --------------------------------------------------------------------------
# the suite

_ALL_IDENTITIES = tuple(IdentityId)

_DEFAULT_ANGLES = (math.pi / 6, math.pi / 4, math.pi / 3,
                   PI_HALF - 0.1, PI_HALF)


def _number(name: str, value, integral: bool = False):
    kind = numbers.Integral if integral else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not math.isfinite(value)):
        what = "an integer" if integral else "a finite number"
        raise InvalidParameterError(f"{name}: expected {what}, got {value!r}")
    return value


def _numbers(name: str, values, integral: bool = False) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise InvalidParameterError(f"{name}: expected a list, got {values!r}")
    return tuple(_number(name, v, integral) for v in values)


def _identities(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise InvalidParameterError(f"identities: expected a list, got {values!r}")
    try:
        return tuple(v if isinstance(v, IdentityId) else IdentityId(v)
                     for v in values)
    except ValueError:
        raise InvalidParameterError(
            f"identities: expected names from {[i.value for i in IdentityId]}, "
            f"got {list(values)!r}") from None


@dataclass(frozen=True, slots=True)
class SuiteConfig:
    """Corpus, parameter grid, and tolerances for a full suite run."""

    n: int = 2048
    start: float = -16.0
    span: float = 32.0
    angles: tuple = _DEFAULT_ANGLES
    d_values: tuple = (0.0, 0.5)
    q_values: tuple = (0.0, 1.0)
    identities: tuple = _ALL_IDENTITIES
    pair_indices: tuple = (0, 1, 2)
    tolerance_fractional: float = 1e-4
    tolerance_pi_half: float = 1e-6
    tolerance_product: float = 1e-3
    zero_floor: float = 1e-14

    def __post_init__(self):
        """Check every field's type and range, so that a bad configuration
        fails here with InvalidParameterError instead of deep in a check.

        Sequences become tuples and identity names become IdentityId.
        Delays and the grid start must sit on the time lattice, because
        the operators shift by whole samples.
        """
        n = _number("n", self.n, integral=True)
        if n < 2:
            raise InvalidParameterError(f"n: need at least 2 samples, got {n}")
        start = _number("start", self.start)
        span = _number("span", self.span)
        if span <= 0:
            raise InvalidParameterError(f"span: must be > 0, got {span!r}")
        for name in ("angles", "d_values", "q_values"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name)))
        for phi in self.angles:
            make_angle(phi)
        step = span / n
        try:
            _lattice_index(start, step, "start")
            for d in self.d_values:
                if abs(_lattice_index(d, step, "d_values entry")) >= n:
                    raise InvalidParameterError(
                        f"d_values: delay {d!r} is not shorter than the span")
        except AlignmentError as exc:
            raise InvalidParameterError(str(exc)) from None
        pairs = _numbers("pair_indices", self.pair_indices, integral=True)
        if any(not 0 <= i < PAIR_COUNT for i in pairs):
            raise InvalidParameterError(
                f"pair_indices: each must be in 0..{PAIR_COUNT - 1}, got {list(pairs)}")
        object.__setattr__(self, "pair_indices", pairs)
        object.__setattr__(self, "identities", _identities(self.identities))
        for name in ("tolerance_fractional", "tolerance_pi_half",
                     "tolerance_product", "zero_floor"):
            if _number(name, getattr(self, name)) < 0:
                raise InvalidParameterError(f"{name}: must be >= 0")

    def time_grid(self) -> UniformGrid:
        return make_grid(self.start, self.span / self.n, self.n)

    def tolerance_for(self, identity: IdentityId, phi: float) -> float:
        if identity is IdentityId.PROD:
            return self.tolerance_product
        if phi == PI_HALF:
            return self.tolerance_pi_half
        return self.tolerance_fractional


def _params_for(kind: str, cfg: SuiteConfig):
    if kind == "base":
        return [(0.0, 0.0)]
    if kind == "shift":
        return [(d, 0.0) for d in cfg.d_values]
    if kind == "mod":
        return [(0.0, q) for q in cfg.q_values]
    return [(d, q) for d in cfg.d_values for q in cfg.q_values]


_BASE_OF = {
    IdentityId.CONV_SHIFT_L: IdentityId.CONV,
    IdentityId.CONV_SHIFT_R: IdentityId.CONV,
    IdentityId.CONV_MOD_L: IdentityId.CONV,
    IdentityId.CONV_MOD_R: IdentityId.CONV,
    IdentityId.CORR_SHIFT_L: IdentityId.CORR,
    IdentityId.CORR_SHIFT_R: IdentityId.CORR,
    IdentityId.CORR_MOD_L: IdentityId.CORR,
    IdentityId.CORR_MOD_R: IdentityId.CORR,
}

_TFSHIFT_COLLAPSE = {
    IdentityId.CONV_TFSHIFT_L: (IdentityId.CONV, IdentityId.CONV_SHIFT_L,
                                IdentityId.CONV_MOD_L),
    IdentityId.CONV_TFSHIFT_R: (IdentityId.CONV, IdentityId.CONV_SHIFT_R,
                                IdentityId.CONV_MOD_R),
    IdentityId.CORR_TFSHIFT_R: (IdentityId.CORR, IdentityId.CORR_SHIFT_R,
                                IdentityId.CORR_MOD_R),
    # CORR_TFSHIFT_L is deliberately absent: its printed form differs from
    # the derivation at every (d, q), so its adjudication is never shared.
}


def _canonical_check(identity: IdentityId, d: float,
                     q: float) -> tuple[IdentityId, float, float]:
    """Collapse zero-parameter variants onto the identity they equal.

    The specialized right-hand sides coincide bitwise at d = 0 and/or
    q = 0 (the specialization lattice), so the suite computes each
    distinct check once and relabels the report.
    """
    if identity in _BASE_OF and d == 0.0 and q == 0.0:
        return _BASE_OF[identity], 0.0, 0.0
    if identity in _TFSHIFT_COLLAPSE:
        base, shift, mod = _TFSHIFT_COLLAPSE[identity]
        if d == 0.0 and q == 0.0:
            return base, 0.0, 0.0
        if q == 0.0:
            return shift, d, 0.0
        if d == 0.0:
            return mod, 0.0, q
    return identity, d, q


def _merge_reports(reports: list[IdentityReport]) -> IdentityReport:
    """Worst case over the corpus pairs for one parameter combination."""
    first = reports[0]
    r_paper = max(r.residual_paper_form for r in reports)
    r_derived = max(r.residual_derived_form for r in reports)
    tolerance = max(r.tolerance for r in reports)
    differ = any(r.chosen_form != "agree" for r in reports)
    if not differ:
        chosen = "agree"
    else:
        chosen = "derived" if r_derived <= r_paper else "paper"
    return IdentityReport(
        identity=first.identity, phi=first.phi, d=first.d, q=first.q,
        n=first.n, residual_paper_form=r_paper,
        residual_derived_form=r_derived, tolerance=tolerance,
        passed=min(r_paper, r_derived) <= tolerance, chosen_form=chosen,
    )


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> list[IdentityReport]:
    """Run every configured identity over the parameter grid.

    One report per (identity, phi, d, q), aggregating the worst residual
    over the corpus pairs. Order follows the configuration. Any failure
    inside a check aborts with the identity and parameters in context.
    """
    tgrid = cfg.time_grid()
    ugrid = fast_ugrid(tgrid)
    pairs = default_pairs(tgrid)
    selected = [pairs[i] for i in cfg.pair_indices]
    memo: dict = {}
    reports: list[IdentityReport] = []
    for identity in cfg.identities:
        for phi in cfg.angles:
            angle = make_angle(phi)
            check_cfg = CheckConfig(
                ugrid=ugrid,
                tolerance=cfg.tolerance_for(identity, phi),
                zero_floor=cfg.zero_floor,
            )
            for d, q in _params_for(_PARAM_KIND[identity], cfg):
                canon = _canonical_check(identity, d, q)
                try:
                    per_pair = []
                    for pair_idx, (f, g) in enumerate(selected):
                        key = (pair_idx, phi, canon)
                        if key not in memo:
                            memo[key] = _check(canon[0], f, g, angle,
                                               canon[1], canon[2], check_cfg)
                        per_pair.append(memo[key])
                except Exception as exc:
                    raise RuntimeError(
                        f"{identity.value} failed at phi={phi} d={d} q={q}"
                    ) from exc
                if per_pair:
                    merged = _merge_reports(per_pair)
                    reports.append(IdentityReport(
                        identity=identity, phi=merged.phi, d=d, q=q,
                        n=merged.n,
                        residual_paper_form=merged.residual_paper_form,
                        residual_derived_form=merged.residual_derived_form,
                        tolerance=merged.tolerance, passed=merged.passed,
                        chosen_form=merged.chosen_form,
                    ))
    return reports


def suite_passed(reports: list[IdentityReport]) -> bool:
    return all(r.passed for r in reports)


def report_rows(reports: list[IdentityReport]) -> list[dict]:
    """JSON-ready rows; key order is part of the report format."""
    return [
        {
            "identity": r.identity.value,
            "phi": r.phi,
            "d": r.d,
            "q": r.q,
            "n": r.n,
            "residual_paper_form": r.residual_paper_form,
            "residual_derived_form": r.residual_derived_form,
            "tolerance": r.tolerance,
            "pass": r.passed,
            "chosen_form": r.chosen_form,
        }
        for r in reports
    ]


def reports_to_json(reports: list[IdentityReport]) -> str:
    return json.dumps(report_rows(reports), indent=2)
