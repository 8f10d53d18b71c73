"""Time-domain fractional operators: weighted convolution, product,
correlation, and the shift/modulation operators they compose with.

The weights are the chirps that make the spectral identities take pure
product form:

    convolution  (f <*> g)(t) = int f(tau) g(t-tau) e^{j tau (tau-t) cot} dtau
    product      z(t) = f(t) g(t) e^{(j/2) t^2 cot}
    correlation  (f <o> g)(t) = int conj(f(tau)) g(t+tau)
                                     e^{j tau (tau+t) cot} dtau

Off-grid samples of the lagged operand are zero (compact-support model,
no wrap-around), and shifts are restricted to whole samples so that no
interpolation error can leak into theorem residuals. Because the lag
arguments t_n -+ tau_m must land back on the sampling lattice, the grid
origin itself has to sit on the lattice (start an integer multiple of
step); both harness grids satisfy this by construction.

Both weighted sums run in O(N log N). Their weights split into chirps,

    tau (tau -+ t) = tau^2/2 + (t -+ tau)^2/2 - t^2/2,

so each operator is: chirp both operands with e^{(j/2) cot s^2}, take one
linear (zero-extended, never circular) FFT convolution or correlation of
length 2N - 1, and post-chirp with e^{-(j/2) cot t^2}. The dense lagged
sums they replace are kept only as the test suite's oracle.

Each operator composes the steps of ``transform.linear_convolve`` (one
size rule, ``convolution_window``; a ``padded_fft`` per operand; one
``inverse_window``) from the FFTs of its chirped operands,
``_operand_spectrum``: x*c, which the convolution takes on either side
and the correlation on its right, and the reversed conj(x)*c of the
correlation's left.

In a reuse scope (``kernel.reused``, which ``run_suite`` opens) the
chirps and the modulation carriers e^{jqt} are built once per grid and
angle, or grid and carrier, and live for the run. ``shift_op`` and
``modulate_op`` return one signal per operand and shift or carrier, so
that an operand keeps its identity from one check to the next, and each
chirped operand's FFT is taken once per (operand, angle, kind, FFT
size); an operator then does only the product, the inverse FFT and the
window. The 14 weighted operators of one (angle, pair) of ``run_suite``
read 12 distinct chirped operands: 12 forward FFTs of 2N points, where
each call taking its own took 28. These entries are keyed by the operand
itself (a signal equals only itself), so ``run_suite`` drops them when
their (angle, pair) ends.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlignmentError, InvalidParameterError, ShapeMismatchError
from .grid import ComplexArray, SampledSignal, _Fresh
from .kernel import Angle, reused, time_chirp
from .transform import convolution_window, inverse_window, lattice_split, padded_fft

_ALIGN_RTOL = 1e-9


def _require_common_grid(f: SampledSignal, g: SampledSignal) -> None:
    if f.grid != g.grid:
        raise ShapeMismatchError("operands must share one grid")


def _lattice_index(value: float, step: float, what: str) -> int:
    """Nearest integer k with value = k*step, or AlignmentError (also for
    a value that is not finite)."""
    k, rest = lattice_split(value, step, what)
    if abs(rest) > _ALIGN_RTOL * max(step, abs(value)):
        raise AlignmentError(
            f"{what} = {value!r} is not an integer multiple of the step {step!r}")
    return k


def shift_op(x: SampledSignal, d: float) -> SampledSignal:
    """Delay by d: output(t) = x(t - d), zero-filled where x is off-grid.

    d must be a whole number of samples, |d| < N*step. In a reuse scope
    each (x, k samples) has one such signal.
    """
    k = _lattice_index(float(d), x.grid.step, "shift delay")
    n = x.grid.count
    if abs(k) >= n:
        raise InvalidParameterError(
            f"shift of {k} samples exceeds the grid length {n}"
        )
    return reused((_shifted, x, k), lambda: _shifted(x, k))


def _shifted(x: SampledSignal, k: int) -> SampledSignal:
    n = x.grid.count
    shifted = np.zeros(n, dtype=np.complex128)
    if k >= 0:
        shifted[k:] = x.samples[: n - k]
    else:
        shifted[:k] = x.samples[-k:]
    return SampledSignal(x.grid, _Fresh(shifted))


def modulate_op(x: SampledSignal, q: float) -> SampledSignal:
    """Multiply by the unimodular carrier e^{j*q*t}, read-only and
    ``reused`` per (grid, q); InvalidParameterError when q*t is not finite
    on the grid. In a reuse scope each (x, q) has one such signal."""
    return reused((_modulated, x, q), lambda: _modulated(x, q))


def _modulated(x: SampledSignal, q: float) -> SampledSignal:
    grid = x.grid

    def build():
        t_max = max(abs(grid.start), abs(grid.point(grid.count - 1)))
        if not math.isfinite(q * t_max):
            raise InvalidParameterError(
                f"carrier phase q*t is not finite: q={q!r} on {grid}")
        carrier = np.exp(1j * q * grid.points())
        carrier.setflags(write=False)
        return carrier
    carrier = reused((modulate_op, grid, q), build)
    return SampledSignal(grid, _Fresh(x.samples * carrier))


def _operand_spectrum(x: SampledSignal, angle: Angle, chirp: np.ndarray,
                      reverse: bool, size: int) -> ComplexArray:
    """The ``size``-point FFT of x*c zero-padded, c = ``chirp`` the
    ``time_chirp`` at ``angle``; with ``reverse``, of conj(x)*c reversed,
    the correlation's left operand. Read-only and ``reused`` per (x, angle,
    kind, size)."""
    def build():
        spectrum = padded_fft((np.conj(x.samples) * chirp)[::-1] if reverse
                              else x.samples * chirp, size)
        spectrum.setflags(write=False)
        return spectrum
    return reused((_operand_spectrum, x, angle, reverse, size), build)


def frac_product(f: SampledSignal, g: SampledSignal,
                 angle: Angle) -> SampledSignal:
    """Pointwise product times the chirp weight e^{(j/2) t^2 cot(phi)}."""
    _require_common_grid(f, g)
    weight = time_chirp(f.grid, angle)
    return SampledSignal(f.grid, _Fresh(f.samples * g.samples * weight))


def _weighted(f: SampledSignal, g: SampledSignal, angle: Angle,
              reverse: bool, offset: int) -> SampledSignal:
    """dt * conj(c) times the window at ``offset`` of the linear
    convolution of f*c (reversed conj(f)*c with ``reverse``) with g*c: the
    inverse FFT of the product of the two ``_operand_spectrum`` values."""
    n = f.grid.count
    chirp = time_chirp(f.grid, angle)
    size, lo, hi = convolution_window(n, n, offset, n)
    if lo < hi:
        window = inverse_window(
            np.multiply(_operand_spectrum(f, angle, chirp, reverse, size),
                        _operand_spectrum(g, angle, chirp, False, size)),
            offset, n, lo, hi)
    else:
        window = np.zeros(n, dtype=np.complex128)
    return SampledSignal(f.grid, _Fresh(f.grid.step * np.conj(chirp) * window))


def frac_convolve(f: SampledSignal, g: SampledSignal,
                  angle: Angle) -> SampledSignal:
    """Weighted convolution on a common grid.

    out[n] = dt * sum_m f[m] g~(t_n - tau_m) e^{j tau_m (tau_m - t_n) cot}

    where g~ is g zero-extended off-grid. With c(s) = e^{(j/2) cot s^2}
    the weight is c(tau) c(t - tau) / c(t), so the sum is the linear
    convolution of f*c with g*c, read at lattice index n - origin and
    post-chirped. Commutative for decaying operands: the substitution
    sigma = t - tau maps the weight onto the same form with the operand
    roles exchanged.
    """
    _require_common_grid(f, g)
    origin = _lattice_index(g.grid.start, g.grid.step, "grid start")
    return _weighted(f, g, angle, False, -origin)


def frac_correlate(f: SampledSignal, g: SampledSignal,
                   angle: Angle) -> SampledSignal:
    """Weighted correlation, conjugate-linear in its first operand.

    out[n] = dt * sum_m conj(f[m]) g~(t_n + tau_m) e^{j tau_m (tau_m + t_n) cot}

    The weight is c(tau) c(t + tau) / c(t), so the sum is the linear
    correlation of conj(f)*c with g*c (a convolution with the first
    operand reversed), read at lattice index n + origin.
    """
    _require_common_grid(f, g)
    origin = _lattice_index(g.grid.start, g.grid.step, "grid start")
    return _weighted(f, g, angle, True, origin + f.grid.count - 1)
