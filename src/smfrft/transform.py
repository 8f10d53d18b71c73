"""Forward and inverse transforms: chirp-z quadrature and the FFT-bin fast path.

Two routes compute the same simplified fractional transform:

* ``smfrft_quadrature`` / ``smfrft_direct`` evaluate the defining integral
  by a left-point rectangle rule on any evenly spaced output grid
  (shifted, negated, a sub-range, or a single point). The sum is a
  chirp-z transform (Bluestein): one linear FFT convolution, O((N+M) log).
* ``smfrft_fast`` realizes the three-step chirp-multiply -> FFT ->
  constant-scale factorization on the FFT-bin output grid, O(N log N)
  at any N.

On the FFT-bin grid the two are algebraically the same finite sum, so
their agreement is a rounding-level cross-check, not a discretization
statement. The rectangle rule (rather than trapezoid) is what makes the
sums identical; for Gaussian-enveloped signals the endpoint terms are
negligible anyway. The dense O(N*M) sums these replace live on only as
the test suite's oracle, which gates every evaluator here.

The fast inverse refuses any spectrum whose grids do not satisfy
du * N * dt = 2*pi exactly (to 1e-9 relative): on that reciprocal pairing
the discrete chain is an exact inverse DFT, and interpolating anything
else would contaminate downstream residuals.

What the quadrature would otherwise recompute is cached, because the
identity suite makes hundreds of calls on a handful of geometries (180
calls on 9 geometries at N = 1024 with two angles):

* per chirp-z geometry (N, x0, dx, y0, dy, count, sign), its input
  chirp, the FFT of Bluestein's lag chirp and its output chirp
  (``_chirp_z_plan``);
* per (grid, angle), the kernel chirp e^{(j/2) cot t^2}
  (``kernel.time_chirp``), also the inverses' post-chirp, conjugated.

All are read-only and bounded, and a cached call gives the same bits as
a cold one. The forward chirp of ``smfrft_fast`` alone is computed
inline: the CLI's CSV bytes rest on the rounding of that expression
(see the comment there).

The fast transforms drop each array once it has been used. Counted in
complex arrays of the signal's length beyond the input (tracemalloc,
which does not see pocketfft's plan and work buffer), ``smfrft_fast``
holds three at its peak: the chirped samples, their FFT and its shifted
copy, and later the shifted FFT, the output phase and its argument.
``ismfrft_fast`` holds two: the re-referenced input and its shifted
copy, then that copy and its inverse FFT; 3.5 on a call that builds the
cached post-chirp. The products done in place (``values *= bins``,
``post *= du``, ``post *= sums``) have the operand order that the chain
``a * b * c`` gives them at every size. numpy's temporary elision, from
256 KiB on, swaps the operands of some other products, so those stay
written as expressions. ``tests/fast_reference.py`` keeps the chains,
and the tests require their bits.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import GridCompatibilityError
from .grid import ComplexArray, SampledSignal, Spectrum, UniformGrid
from .kernel import SQRT_J2PI, SQRT_J_OVER_2PI, Angle, time_chirp

# relative slack on du*N*dt == 2*pi for the fast inverse pairing
_RECIPROCAL_RTOL = 1e-9
# quadrature points may leave an exact arithmetic progression by this much,
# relative to their largest magnitude (rounding of shifts and negations)
_EVEN_RTOL = 1e-12


def _fft_size(length: int) -> int:
    return 1 << max(0, length - 1).bit_length()


def linear_convolve(a: np.ndarray, b: np.ndarray, offset: int,
                    count: int) -> ComplexArray:
    """out[k] = (a * b)[k + offset] for k < count, where a * b is the full
    linear convolution of two 1-D arrays (zero-extended, never circular,
    len(a) + len(b) - 1 values) by one zero-padded FFT product; zero where
    k + offset leaves it."""
    length = a.shape[0] + b.shape[0] - 1
    size = _fft_size(length)
    full = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))
    out = np.zeros(count, dtype=np.complex128)
    lo, hi = max(0, -offset), min(count, length - offset)
    if lo < hi:
        out[lo:hi] = full[lo + offset:hi + offset]
    return out


@functools.lru_cache(maxsize=16)
def _chirp_z_plan(n: int, x0: float, dx: float, y0: float, dy: float,
                  count: int, sign: int
                  ) -> tuple[ComplexArray, ComplexArray, ComplexArray]:
    """The input chirp, the FFT of the lag chirp exp(-(j/2) rate l^2)
    (zero-padded to the transform size, its length) and the output chirp
    of one chirp-z geometry (see ``_chirp_z``), all read-only. Keys that
    differ only in the sign of a zero give the same bits, since
    exp(1j * -0.0) is exp(1j * 0.0)."""
    mid_n, mid_k = (n - 1) // 2, (count - 1) // 2
    rate = sign * dx * dy
    xc = x0 + mid_n * dx
    yc = y0 + mid_k * dy
    i = np.arange(n, dtype=np.float64) - mid_n
    pre = np.exp(1j * (sign * yc * dx * i + 0.5 * rate * i * i))
    lags = np.arange(-(n - 1), count, dtype=np.float64) - (mid_k - mid_n)
    lag_fft = np.fft.fft(np.exp(-0.5j * rate * lags * lags),
                         _fft_size(lags.shape[0]))
    k = np.arange(count, dtype=np.float64) - mid_k
    post = np.exp(1j * (sign * (yc + k * dy) * xc + 0.5 * rate * k * k))
    for plan in (pre, lag_fft, post):
        plan.setflags(write=False)
    return pre, lag_fft, post


def _chirp_z(values: np.ndarray, x0: float, dx: float, y0: float, dy: float,
             count: int, sign: int) -> ComplexArray:
    """out[k] = sum_n values[n] * exp(sign*j*(y0 + k*dy)*(x0 + n*dx)), k < count.

    With both indices counted from the middle of their axis (n', k'),
    Bluestein's k'*n' = (k'^2 + n'^2 - (k' - n')^2)/2 splits the phase into
    a chirp on the input, one linear convolution with a chirp over the
    lags k' - n', and a chirp on the output. Output k is entry k + N - 1
    of that convolution, which a circular FFT convolution of size
    >= N + count - 1 already holds exactly. Centring the indices keeps the
    phases, and so their rounding, small. The two end chirps and the lag
    chirp's FFT come from ``_chirp_z_plan``.
    """
    n = values.shape[0]
    pre, lag_fft, post = _chirp_z_plan(n, x0, dx, y0, dy, count, sign)
    sums = np.fft.ifft(np.fft.fft(values * pre, lag_fft.shape[0]) * lag_fft)
    return post * sums[n - 1:n - 1 + count]


def _even_spacing(points: np.ndarray) -> tuple[float, float]:
    """(start, step) of an evenly spaced 1-D array; step may be negative,
    and is 0 for a single point."""
    if points.ndim != 1:
        raise GridCompatibilityError(
            f"quadrature points must be a 1-D array, got shape {points.shape}"
        )
    count = points.shape[0]
    start = float(points[0])
    step = (float(points[-1]) - start) / (count - 1) if count > 1 else 0.0
    line = start + step * np.arange(count, dtype=np.float64)
    slack = _EVEN_RTOL * float(np.max(np.abs(points)))
    if not np.all(np.abs(points - line) <= slack):
        raise GridCompatibilityError(
            "quadrature points must be evenly spaced (a uniform grid, possibly "
            "shifted, negated or a contiguous sub-range)"
        )
    return start, step


def fast_ugrid(tgrid: UniformGrid) -> UniformGrid:
    """FFT-bin output grid for a time grid: u_m = 2*pi*m/(N*dt),
    m = -N/2 .. N/2-1, ascending."""
    n = tgrid.count
    du = 2.0 * np.pi / (n * tgrid.step)
    return UniformGrid(-(n // 2) * du, du, n)


def smfrft_quadrature(x: SampledSignal, u_points, angle: Angle) -> ComplexArray:
    """Rectangle-rule transform of ``x`` at evenly spaced output points.

    values[k] = dt * sum_n x[n] * kernel(t_n, u_k). ``u_points`` is a 1-D
    arithmetic progression in either direction (or one point); u0 and du
    are read from it, and anything else raises GridCompatibilityError.
    The kernel chirp e^{(j/2) t^2 cot} depends only on t, so it is folded
    into the input vector and the remaining e^{-j u t} sum is a chirp-z
    transform.
    """
    u = np.atleast_1d(np.asarray(u_points, dtype=np.float64))
    if u.shape == (0,):
        return np.zeros(0, dtype=np.complex128)
    u0, du = _even_spacing(u)
    grid = x.grid
    chirped = x.samples * time_chirp(grid, angle)
    sums = _chirp_z(chirped, grid.start, grid.step, u0, du, u.shape[0], -1)
    return (grid.step / SQRT_J2PI) * sums


def smfrft_direct(x: SampledSignal, ugrid: UniformGrid, angle: Angle) -> Spectrum:
    """Quadrature transform onto a uniform output grid."""
    return Spectrum(ugrid, smfrft_quadrature(x, ugrid.points(), angle),
                    angle, tgrid=x.grid)


def smfrft_fast(x: SampledSignal, angle: Angle) -> Spectrum:
    """Fast transform: pre-chirp, FFT, constant scale.

    Output lands on ``fast_ugrid(x.grid)`` in ascending order and equals
    the direct quadrature on that grid exactly (same finite sum):

        values[k] = (dt / sqrt(j*2*pi))
                    * sum_n (x[n] * exp((j/2) t_n^2 cot)) * exp(-j t_n u_k)
    """
    t = x.grid.points()
    # not kernel.time_chirp: from 256 KiB on, numpy computes this product
    # in the exp temporary's buffer with the operands swapped, and the
    # fused multiply-add rounds that order differently; the CLI's CSV
    # bytes rest on this order
    chirped = x.samples * np.exp(0.5j * angle.cot_phi * t * t)
    del t
    bins = np.fft.fftshift(np.fft.fft(chirped))
    del chirped
    ugrid = fast_ugrid(x.grid)
    values = (x.grid.step / SQRT_J2PI) * np.exp(-1j * x.grid.start * ugrid.points())
    values *= bins  # (scale * phase) * bins, in that order at every size
    del bins
    return Spectrum(ugrid, values, angle, tgrid=x.grid)


def ismfrft_direct(spectrum: Spectrum, tgrid: UniformGrid) -> SampledSignal:
    """Quadrature inverse at the spectrum's angle: post-chirped rectangle
    rule over the u grid, onto any uniform time grid (a chirp-z transform).

    samples[n] = sqrt(j/(2*pi)) * exp(-(j/2) t_n^2 cot)
                 * du * sum_k exp(j u_k t_n) * X[k]
    """
    ugrid = spectrum.ugrid
    fourier = _chirp_z(spectrum.values, ugrid.start, ugrid.step,
                       tgrid.start, tgrid.step, tgrid.count, +1)
    post = SQRT_J_OVER_2PI * np.conj(time_chirp(tgrid, spectrum.angle))
    return SampledSignal(tgrid, post * ugrid.step * fourier)


def ismfrft_fast(spectrum: Spectrum) -> SampledSignal:
    """Fast inverse at the spectrum's angle: inverse FFT plus post-chirp,
    exact on reciprocal grids.

    The spectrum must carry the originating time grid and satisfy
    du * N * dt = 2*pi; then the composition with ``smfrft_fast`` is the
    identity up to floating point.
    """
    tgrid = spectrum.tgrid
    if tgrid is None:
        raise GridCompatibilityError(
            "spectrum does not record its originating time grid; "
            "the fast inverse needs it for the phase reference"
        )
    n = spectrum.ugrid.count
    if tgrid.count != n:
        raise GridCompatibilityError(
            f"time grid has {tgrid.count} points, spectrum has {n}"
        )
    product = spectrum.ugrid.step * n * tgrid.step
    if abs(product / (2.0 * np.pi) - 1.0) > _RECIPROCAL_RTOL:
        raise GridCompatibilityError(
            f"du*N*dt = {product!r} is not 2*pi within {_RECIPROCAL_RTOL} relative"
        )
    referenced = spectrum.values * np.exp(1j * tgrid.start * spectrum.ugrid.points())
    referenced = np.fft.ifftshift(referenced)
    sums = n * np.fft.ifft(referenced)
    del referenced
    post = SQRT_J_OVER_2PI * np.conj(time_chirp(tgrid, spectrum.angle))
    post *= spectrum.ugrid.step  # (post * du) * sums, in that order
    post *= sums
    del sums
    return SampledSignal(tgrid, post)
