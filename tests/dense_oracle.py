"""Dense O(N*M) reference sums, the test suite's independent oracle.

The library evaluates its quadrature by a chirp-z transform and its
weighted operators by chirp-factorized FFT convolutions. This module keeps
the direct arithmetic they replaced, single-threaded: every phase
e^{j*rows[k]*cols[n]} is formed explicitly, in row blocks, and summed by
a matrix-vector product. It shares no code with the FFT evaluators beyond
the value types and kernel constants, so agreement at rounding level is
evidence for both. The functions mirror the library's signatures, which
lets a test patch them in where the library's own are called.

It also holds what only the tests evaluate: the scalar simplified and
conventional kernels, the conventional transform the paper compares
against, and the relative-L2 norm the tests measure residuals with.
"""

from __future__ import annotations

import math

import numpy as np

from smfrft import (
    Angle,
    SampledSignal,
    ShapeMismatchError,
    Spectrum,
    SQRT_J2PI,
    SQRT_J_OVER_2PI,
    UniformGrid,
)
from smfrft.operators import _lattice_index

BLOCK_ROWS = 256


def relative_l2_error(a, b) -> float:
    """|| a - b ||_2 / || b ||_2 for equal-length complex arrays; ValueError
    on a zero reference."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        raise ValueError("reference vector has zero norm")
    return float(np.linalg.norm(a - b)) / nb


def smfrft_kernel(t, u, angle: Angle):
    """Simplified fractional kernel, broadcast over t and u.

    Unimodular chirp factors times the constant 1/sqrt(j*2*pi); the
    magnitude is 1/sqrt(2*pi) everywhere.
    """
    return (1.0 / SQRT_J2PI) * np.exp(1j * (0.5 * angle.cot_phi * t * t - t * u))


def frft_kernel(t, u, angle: Angle):
    """Conventional fractional kernel, broadcast over t and u.

    The amplitude sqrt((1 - j*cot(phi))/(2*pi)) is evaluated on the
    principal branch; its real part is always positive so the branch cut
    is never crossed.
    """
    cot = angle.cot_phi
    csc = 1.0 / math.sin(angle.phi)
    amp = np.sqrt((1.0 - 1j * cot) / (2.0 * math.pi))
    return amp * np.exp(1j * (0.5 * (u * u + t * t) * cot - u * t * csc))


def unit_phasor(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase) without a complex-exp pass over the array."""
    out = np.empty(phase.shape, dtype=np.complex128)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _blocks(total_rows: int):
    return [slice(lo, min(lo + BLOCK_ROWS, total_rows))
            for lo in range(0, total_rows, BLOCK_ROWS)]


def phase_matvec(rows: np.ndarray, cols: np.ndarray,
                 vec: np.ndarray) -> np.ndarray:
    """out[k] = sum_n exp(1j * rows[k] * cols[n]) * vec[n]."""
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    out = np.empty(rows.shape[0], dtype=np.complex128)
    for block in _blocks(rows.shape[0]):
        out[block] = unit_phasor(np.outer(rows[block], cols)) @ vec
    return out


def smfrft_quadrature(x: SampledSignal, u_points, angle: Angle) -> np.ndarray:
    """Rectangle-rule transform at arbitrary (also uneven) output points."""
    t = x.grid.points()
    u = np.atleast_1d(np.asarray(u_points, dtype=np.float64))
    chirped = x.samples * np.exp(0.5j * angle.cot_phi * t * t)
    return (x.grid.step / SQRT_J2PI) * phase_matvec(-u, t, chirped)


def ismfrft_direct(spectrum: Spectrum, tgrid: UniformGrid) -> np.ndarray:
    """Post-chirped rectangle-rule inverse over the u grid, at the
    spectrum's angle."""
    t = tgrid.points()
    u = spectrum.ugrid.points()
    fourier = phase_matvec(t, u, spectrum.values)
    cot = spectrum.angle.cot_phi
    post = SQRT_J_OVER_2PI * np.exp(-0.5j * cot * t * t)
    return post * spectrum.ugrid.step * fourier


def frft_direct(x: SampledSignal, ugrid: UniformGrid,
                angle: Angle) -> np.ndarray:
    """Conventional-kernel rectangle rule with rows -csc*u."""
    cot = angle.cot_phi
    csc = 1.0 / math.sin(angle.phi)
    amp = np.sqrt((1.0 - 1j * cot) / (2.0 * math.pi))
    t = x.grid.points()
    u = ugrid.points()
    chirped = x.samples * np.exp(0.5j * cot * t * t)
    sums = phase_matvec(-csc * u, t, chirped)
    return (x.grid.step * amp) * np.exp(0.5j * cot * u * u) * sums


def _lagged_matrix(g: SampledSignal, origin: int, lag_sign: int) -> np.ndarray:
    """Toeplitz/Hankel view V[n, m] = g~[n + lag_sign*(m + origin)] built
    from one zero-padded copy."""
    n = g.grid.count
    padded = np.zeros(2 * n - 1, dtype=np.complex128)
    # padded[j] holds sample index j - shift of g, zeros elsewhere
    shift = (n - 1) + origin if lag_sign < 0 else -origin
    lo = max(0, shift)
    hi = min(2 * n - 1, shift + n)
    if lo < hi:
        padded[lo:hi] = g.samples[lo - shift:hi - shift]
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)
    return windows[:, ::-1] if lag_sign < 0 else windows


def _weighted_lag_sum(first: np.ndarray, g: SampledSignal, cot: float,
                      lag_sign: int) -> np.ndarray:
    """out[n] = sum_m first[m] g~[n + lag_sign*(m + origin)]
    e^{lag_sign * j cot tau_m t_n}."""
    grid = g.grid
    n = grid.count
    t = grid.points()
    lagged = _lagged_matrix(
        g, _lattice_index(grid.start, grid.step, "grid start"), lag_sign)
    out = np.empty(n, dtype=np.complex128)
    for block in _blocks(n):
        cross = unit_phasor(np.outer(lag_sign * cot * t[block], t))
        cross *= lagged[block]
        out[block] = cross @ first
    return out


def frac_convolve(f: SampledSignal, g: SampledSignal,
                  angle: Angle) -> SampledSignal:
    """Weighted convolution: weight e^{j cot tau^2} * e^{-j cot tau t}."""
    if f.grid != g.grid:
        raise ShapeMismatchError("operands must share one grid")
    t = f.grid.points()
    cot = angle.cot_phi
    first = f.samples * np.exp(1j * cot * t * t)
    out = _weighted_lag_sum(first, g, cot, lag_sign=-1)
    return SampledSignal(f.grid, f.grid.step * out)


def frac_correlate(f: SampledSignal, g: SampledSignal,
                   angle: Angle) -> SampledSignal:
    """Weighted correlation, conjugate-linear in its first operand."""
    if f.grid != g.grid:
        raise ShapeMismatchError("operands must share one grid")
    t = f.grid.points()
    cot = angle.cot_phi
    first = np.conj(f.samples) * np.exp(1j * cot * t * t)
    out = _weighted_lag_sum(first, g, cot, lag_sign=+1)
    return SampledSignal(f.grid, f.grid.step * out)
