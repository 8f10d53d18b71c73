"""Forward and inverse transforms: chirp-z quadrature and the FFT-bin fast path.

Two routes compute the same simplified fractional transform:

* ``smfrft_quadrature`` / ``smfrft_direct`` evaluate the defining integral
  by a left-point rectangle rule on any evenly spaced output grid
  (shifted, negated, a sub-range, or a single point). The sum is a
  chirp-z transform (Bluestein): one linear FFT convolution, O((N+M) log).
* ``smfrft_fast`` chirps, rolls, FFTs and scales onto the FFT-bin output
  grid, O(N log N) at any N; ``ismfrft_fast`` undoes each step.

On the FFT-bin grid the two are the same finite sum, so their agreement
is a rounding-level cross-check, not a discretization statement: the
rectangle rule (rather than trapezoid) makes the sums identical, and for
Gaussian-enveloped signals the endpoint terms are negligible anyway. The
dense O(N*M) sums they replace are the test suite's oracle, which gates
every evaluator here.

The fast transforms place the origin exactly: with t0 = m*dt + r and
m = round(t0/dt) (``lattice_split``), e^{-j m dt u_k} on the FFT-bin grid
is a roll of the samples by m, and only e^{-j r u_k} is computed. Near
u = 0, u_k cancels two terms of size pi/dt, so e^{-j t0 u_k} would err by
~|t0| pi/dt * eps (Schatzman, SIAM J. Sci. Comput. 17(5), 1996).

The fast inverse refuses grids off du * N * dt = 2*pi (to 1e-9 relative):
on that reciprocal pairing the discrete chain is an exact inverse DFT, and
interpolating anything else would contaminate downstream residuals.

In a reuse scope (``kernel.reused``: ``run_suite``'s 180 quadratures at
N = 1024 with two angles share 9 chirp-z geometries) the quadrature
reuses each geometry's plan (``_chirp_z_plan``), with a fresh build's
bits. The fast transforms drop each array once it has been used. In
complex arrays of the signal's length beyond the input (tracemalloc;
pocketfft's plan and buffer unseen), ``smfrft_fast`` peaks at three: the
shifted FFT, the output phase and its argument; ``ismfrft_fast`` at 3.5:
the rolled sums beside the post-chirp's grid, argument and value. The
in-place products ``values *= bins``, ``post *= du`` and ``post *= sums``
have the operand order that the chain ``a * b * c`` gives them at every
size. numpy's temporary elision, from 256 KiB on, swaps the operands of
some other products, so those stay expressions; the tests require the
bits of the chains in ``tests/fast_reference.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import AlignmentError, GridCompatibilityError
from .grid import ComplexArray, SampledSignal, Spectrum, UniformGrid, _Fresh
from .kernel import SQRT_J2PI, SQRT_J_OVER_2PI, Angle, reused, time_chirp

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
    phases, and so their rounding, small. The chirps come from
    ``_chirp_z_plan``; one buffer takes each product in the chain's order.
    """
    n = values.shape[0]
    geometry = (n, x0, dx, y0, dy, count, sign)
    pre, lag_fft, post = reused((_chirp_z_plan, *geometry),
                                lambda: _chirp_z_plan(*geometry))
    buf = np.zeros(lag_fft.shape[0], dtype=np.complex128)
    np.multiply(values, pre, out=buf[:n])
    np.fft.fft(buf, out=buf)
    buf *= lag_fft
    np.fft.ifft(buf, out=buf)
    return post * buf[n - 1:n - 1 + count]


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


def lattice_split(value: float, step: float, what: str) -> tuple[int, float]:
    """(m, value - m*step), m the nearest integer to value/step, or an
    AlignmentError naming ``what`` when value/step is not finite."""
    ratio = value / step
    if not np.isfinite(ratio):
        raise AlignmentError(
            f"{what} = {value!r} is not a finite multiple of the step {step!r}")
    return round(ratio), value - round(ratio) * step


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
    return Spectrum(ugrid, _Fresh(smfrft_quadrature(x, ugrid.points(), angle)),
                    angle, tgrid=x.grid)


def smfrft_fast(x: SampledSignal, angle: Angle) -> Spectrum:
    """Fast transform: pre-chirp, roll, FFT, residual phase and scale.

    Output lands on ``fast_ugrid(x.grid)`` in ascending order and equals
    the direct quadrature on that grid exactly (same finite sum):

        values[k] = (dt / sqrt(j*2*pi))
                    * sum_n (x[n] * exp((j/2) t_n^2 cot)) * exp(-j t_n u_k)
    """
    grid = x.grid
    m, r = lattice_split(grid.start, grid.step, "time grid start")
    chirped = np.roll(x.samples * time_chirp(grid, angle), m % grid.count)
    bins = np.fft.fftshift(np.fft.fft(chirped))
    del chirped
    ugrid = fast_ugrid(grid)
    values = (grid.step / SQRT_J2PI) * np.exp(-1j * r * ugrid.points())
    values *= bins  # (scale * phase) * bins, in that order at every size
    del bins
    return Spectrum(ugrid, _Fresh(values), angle, tgrid=grid)


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
    return SampledSignal(tgrid, _Fresh(post * ugrid.step * fourier))


def ismfrft_fast(spectrum: Spectrum) -> SampledSignal:
    """Fast inverse at the spectrum's angle: residual phase, inverse FFT,
    roll and post-chirp, exact on reciprocal grids.

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
    m, r = lattice_split(tgrid.start, tgrid.step, "time grid start")
    referenced = spectrum.values * np.exp(1j * r * spectrum.ugrid.points())
    referenced = np.fft.ifftshift(referenced)
    sums = n * np.fft.ifft(referenced)
    del referenced
    sums = np.roll(sums, -m % n)
    post = SQRT_J_OVER_2PI * np.conj(time_chirp(tgrid, spectrum.angle))
    post *= spectrum.ugrid.step  # (post * du) * sums, in that order
    post *= sums
    del sums
    return SampledSignal(tgrid, _Fresh(post))
