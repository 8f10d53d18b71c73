"""Forward and inverse transforms: the rectangle-rule quadrature as a chirp-z.

``smfrft_quadrature`` / ``smfrft_direct`` evaluate the defining integral by
a left-point rectangle rule on any evenly spaced output grid, read by its
start, step and count (shifted, negated by a negative step, a sub-range,
or a single point), and ``ismfrft_direct`` the inverse onto any uniform
time grid: each sum is a chirp-z transform, O((N+M) log). ``smfrft_fast``
is the quadrature onto the FFT-bin grid ``fast_ugrid`` and ``ismfrft_fast``
the inverse onto the originating time grid, which it refuses off
du * N * dt = 2*pi (to 1e-9 relative): on that reciprocal pairing the sum
is an exact inverse DFT, and interpolating anything else would
contaminate downstream residuals. The rectangle rule (rather than
trapezoid) makes the FFT-bin sum a DFT; for Gaussian-enveloped signals the
endpoint terms are negligible anyway. The dense O(N*M) sums are the test
suite's oracle, which gates every evaluator here.

The chirp-z of N inputs x_m = x0 + m*dx onto M outputs y_k = y0 + k*dy has
the ratio e^{sign*j*dx*dy}. On the FFT-bin lattice, sign*dx*dy*N = turn*2*pi
with M <= N (the FFT-bin grid shifted by any amount, negated, or a
sub-range of it, and the inverse onto the reciprocal step), it is an N-th
root of unity. With x0 = a*dx + r and y0 = b*dy + s, a and b the nearest
integers (``lattice_split``), the phase sign*y_k*x_m is
turn*2*pi*(b + k)*(a + m)/N + sign*s*x_m + sign*r*(y_k - s): the input
times its phase, rolled by a, one length-N DFT, its N-periodic bins read
from b on, times the output phase (Rabiner, Schafer & Rader, "The chirp
z-transform algorithm", IEEE Trans. Audio Electroacoust. 17(2), 1969). The
DFT holds the integer part exactly, so no phase of size |x0*y0| is formed
(near u = 0, u_k cancels two terms of size pi/dt, and e^{-j t0 u_k} would
err by ~|t0| pi/dt * eps; Schatzman, SIAM J. Sci. Comput. 17(5), 1996).
As |r| <= dx/2 and |s| <= dy/2, the two computed phases stay within
(dy/2) max|x| and (dx/2) max|y - s|, about pi/2 on grids centred on the
origin. ``_dft_turn`` reads sign*dx*dy*N/(2*pi) = turn*(1 + delta) and
takes the DFT at |delta| <= 4 eps, which drops delta times the integer
part, about delta*|u t| (1.4e-12 rad at N = 1024 on a span of 32 at the
full 4 eps): the rounding of the kernel phase u*t itself. The lattice
grids of ``run_suite`` (N = 256 to 4096) lie within 1 eps. Everywhere
else, a step 1e-9 off the lattice too, the sum is Bluestein's: one linear
FFT convolution of size >= N + M - 1 with a chirp over the lags. Against
the closed form at N = 2^17 the lattice route errs 7e-14 of the peak onto
the FFT-bin grid, where Bluestein's erred 9e-13.

In a reuse scope (``kernel.reused``: ``run_suite``'s 180 quadratures at
N = 1024 with two angles share 9 chirp-z geometries, all on the lattice)
each geometry's plan (``_lattice_plan`` or ``_bluestein_plan``) is built
once, with a fresh build's bits; a Bluestein plan is built in its one
2N-point buffer. Each array dies once it has been used: in complex arrays
of the signal's length beyond the input (tracemalloc; pocketfft unseen),
``smfrft_fast`` peaks at 2.5 while it builds the time chirp (3.5 beside
the output phase of a start off the lattice) and ``ismfrft_fast`` at 3.5,
the sums beside the post-chirp's grid, argument and value.
"""

from __future__ import annotations

import numpy as np

from .errors import AlignmentError, GridCompatibilityError, InvalidGridError
from .grid import ComplexArray, SampledSignal, Spectrum, UniformGrid, _Fresh
from .kernel import SQRT_J2PI, SQRT_J_OVER_2PI, Angle, reused, time_chirp

# relative slack on du*N*dt == 2*pi for the fast inverse pairing
_RECIPROCAL_RTOL = 1e-9
# a chirp-z whose sign*dx*dy*n/(2*pi) is +-1 to within this is a length-n
# DFT (see the module docstring for the phase that drops)
_LATTICE_EPS = 4 * np.finfo(np.float64).eps


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


def _bluestein_plan(n: int, x0: float, dx: float, y0: float, dy: float,
                    count: int, sign: int
                    ) -> tuple[ComplexArray, ComplexArray, ComplexArray]:
    """The input chirp, the FFT of the lag chirp exp(-(j/2) rate l^2)
    (zero-padded to the transform size, its length) and the output chirp
    of one chirp-z geometry (see ``_chirp_z``), all read-only. Keys that
    differ only in the sign of a zero give the same bits, since
    exp(1j * -0.0) is exp(1j * 0.0). The lag chirp is written into its
    zero-padded buffer and transformed there, its float lags dropped
    first, so a build holds that one buffer of 2N points."""
    mid_n, mid_k = (n - 1) // 2, (count - 1) // 2
    rate = sign * dx * dy
    xc = x0 + mid_n * dx
    yc = y0 + mid_k * dy
    i = np.arange(n, dtype=np.float64) - mid_n
    pre = np.exp(1j * (sign * yc * dx * i + 0.5 * rate * i * i))
    del i
    lags = np.arange(-(n - 1), count, dtype=np.float64) - (mid_k - mid_n)
    lag_fft = np.zeros(_fft_size(lags.shape[0]), dtype=np.complex128)
    chirp = lag_fft[:lags.shape[0]]
    chirp[:] = lags   # the products of exp(-0.5j * rate * lags * lags), in place
    chirp *= -0.5j * rate
    chirp *= lags
    del lags
    np.exp(chirp, out=chirp)
    np.fft.fft(lag_fft, out=lag_fft)
    k = np.arange(count, dtype=np.float64) - mid_k
    post = np.exp(1j * (sign * (yc + k * dy) * xc + 0.5 * rate * k * k))
    for plan in (pre, lag_fft, post):
        plan.setflags(write=False)
    return pre, lag_fft, post


def _dft_turn(n: int, dx: float, dy: float, count: int, sign: int) -> int:
    """+1 or -1 when the chirp-z ratio e^{sign*j*dx*dy} is e^{+-2*pi*j/n}:
    sign*dx*dy*n/(2*pi) within ``_LATTICE_EPS`` of +-1, with the count
    outputs inside one period (count <= n). 0 otherwise, also for a
    product that is not finite."""
    turn = sign * dx * dy * n / (2.0 * np.pi)
    if count <= n and abs(abs(turn) - 1.0) <= _LATTICE_EPS:
        return 1 if turn > 0 else -1
    return 0


def _lattice_plan(n: int, x0: float, dx: float, y0: float, dy: float,
                  count: int, sign: int, scale: complex | None,
                  axes: tuple[str, str]):
    """(a, b, pre, post) of a chirp-z geometry on the FFT-bin lattice (see
    the module docstring): a and b mod n, split by ``lattice_split`` naming
    the axis of ``axes``; the input phase e^{sign*j*s*x_m} in the order of
    the input rolled by a, or None at s = 0; the output phase
    scale * e^{sign*j*r*(y_k - s)}, or None at r = 0. Both read-only."""
    a, r = lattice_split(x0, dx, f"{axes[0]} grid start")
    b, s = lattice_split(y0, dy, f"{axes[1]} grid start")
    a, b = a % n, b % n
    pre = post = None
    if s:
        x = np.arange(n, dtype=np.float64) * dx + x0
        pre = np.exp((sign * 1j * s) * np.concatenate((x[n - a:], x[:n - a])))
        del x
        pre.setflags(write=False)
    if r:
        arg = (sign * 1j * r) * (np.arange(count, dtype=np.float64) * dy + y0 - s)
        post = np.exp(arg) if scale is None else scale * np.exp(arg)
        post.setflags(write=False)
    return a, b, pre, post


def _chirp_z(n: int, x0: float, dx: float, y0: float, dy: float, count: int,
             sign: int, scale: complex | None, axes: tuple[str, str]):
    """The function of n values that returns, for k < count,
    scale * sum_m values[m] * exp(sign*j*(y0 + k*dy)*(x0 + m*dx)) (no
    scale for None), with its plan ``reused`` per geometry. ``axes`` names
    the input and the output axis.

    On the FFT-bin lattice (``_dft_turn``), the chain of the module
    docstring, its rolls and its n-periodic read done by slices. Elsewhere,
    Bluestein's k'*n' = (k'^2 + n'^2 - (k' - n')^2)/2, both indices counted
    from the middle of their axis, splits the phase into a chirp on the
    input, one linear convolution with a chirp over the lags k' - n', and
    a chirp on the output. Output k is entry k + N - 1 of that convolution,
    which a circular FFT convolution of size >= N + count - 1 already holds
    exactly. One buffer takes each product in the chain's order.
    """
    geometry = (n, x0, dx, y0, dy, count, sign)
    turn = _dft_turn(n, dx, dy, count, sign)
    if not turn:
        pre, lag_fft, post = reused((_bluestein_plan, *geometry),
                                    lambda: _bluestein_plan(*geometry))

        def bluestein(values: np.ndarray) -> ComplexArray:
            buf = np.zeros(lag_fft.shape[0], dtype=np.complex128)
            np.multiply(values, pre, out=buf[:n])
            del values   # each array dies when its stage ends
            np.fft.fft(buf, out=buf)
            buf *= lag_fft
            np.fft.ifft(buf, out=buf)
            sums = post * buf[n - 1:n - 1 + count]
            del buf
            return sums if scale is None else scale * sums
        return bluestein
    a, b, pre, post = reused((_lattice_plan, *geometry, scale),
                             lambda: _lattice_plan(*geometry, scale, axes))

    def lattice(values: np.ndarray) -> ComplexArray:
        buf = np.concatenate((values[n - a:], values[:n - a]))
        del values   # each array dies when its stage ends
        if pre is not None:
            np.multiply(pre, buf, out=buf)
        if turn < 0:
            np.fft.fft(buf, out=buf)
        else:   # the unscaled sum, sum_m buf[m] e^{+2*pi*j*k*m/n}
            np.fft.ifft(buf, out=buf, norm="forward")
        sums = np.concatenate((buf[b:b + count], buf[:max(0, b + count - n)]))
        factor = scale if post is None else post
        if factor is not None:
            np.multiply(factor, sums, out=sums)
        return sums
    return lattice


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


def _quadrature(x: SampledSignal, u0: float, du: float, count: int,
                angle: Angle) -> ComplexArray:
    """dt/sqrt(j*2*pi) * sum_n x[n] e^{(j/2) cot t_n^2} e^{-j t_n (u0 + k*du)},
    k < count: the chirp-z of the chirped samples, its plan (and so the
    time grid start's split) made before the chirp."""
    grid = x.grid
    chirp_z = _chirp_z(grid.count, grid.start, grid.step, u0, du, count, -1,
                       grid.step / SQRT_J2PI, ("time", "u"))
    return chirp_z(x.samples * time_chirp(grid, angle))


def smfrft_quadrature(x: SampledSignal, start: float, step: float, count: int,
                      angle: Angle) -> ComplexArray:
    """Rectangle-rule transform of ``x`` at the ``count`` points
    start + k*step (step negative for a negated grid, anything for one
    point): values[k] = dt * sum_n x[n] * kernel(t_n, u_k). The entry
    point of the certificate's quadratures; ``smfrft_direct`` takes the
    same sum onto a ``UniformGrid``. The fast and direct transforms call
    ``_quadrature``, so a wrapper patched in at this name (the benchmark's
    trace, the dense cross-check) sees the certificate's calls alone."""
    return _quadrature(x, start, step, count, angle)


def _refuse_overflowing_phase(tgrid: UniformGrid, ugrid: UniformGrid,
                              out: UniformGrid) -> None:
    """InvalidGridError naming the output grid ``out`` when a phase of the
    quadrature between ``tgrid`` and ``ugrid`` overflows a double: the
    kernel phase u*t, whose parts the chirp-z forms up to twice over, or
    Bluestein's lag phase dt*du*l^2/2 over lags up to the two counts."""
    t_max = max(abs(tgrid.start), abs(tgrid.point(tgrid.count - 1)))
    u_max = max(abs(ugrid.start), abs(ugrid.point(ugrid.count - 1)))
    lags = tgrid.count + ugrid.count
    for name, phase in (
            ("kernel phase u*t", 2.0 * u_max * t_max),
            ("lag phase dt*du*l^2/2", 0.5 * tgrid.step * ugrid.step * lags * lags)):
        if not np.isfinite(phase):
            raise InvalidGridError(
                f"quadrature onto {out}: its {name} overflows a double "
                f"(|t| up to {t_max!r}, |u| up to {u_max!r})")


def smfrft_direct(x: SampledSignal, ugrid: UniformGrid, angle: Angle) -> Spectrum:
    """Quadrature transform onto a uniform output grid, read by its own
    start, step and count; InvalidGridError naming that grid when a phase
    of the sum overflows a double."""
    _refuse_overflowing_phase(x.grid, ugrid, ugrid)
    values = _quadrature(x, ugrid.start, ugrid.step, ugrid.count, angle)
    return Spectrum(ugrid, _Fresh(values), angle, tgrid=x.grid)


def smfrft_fast(x: SampledSignal, angle: Angle) -> Spectrum:
    """Fast transform: the quadrature onto ``fast_ugrid(x.grid)``, by one
    length-N FFT at any N. No phase of it overflows once the time grid
    start splits (``lattice_split``)."""
    ugrid = fast_ugrid(x.grid)
    values = _quadrature(x, ugrid.start, ugrid.step, ugrid.count, angle)
    return Spectrum(ugrid, _Fresh(values), angle, tgrid=x.grid)


def _inverse(spectrum: Spectrum, tgrid: UniformGrid) -> SampledSignal:
    """The post-chirped rectangle rule of ``ismfrft_direct``."""
    ugrid = spectrum.ugrid
    fourier = _chirp_z(ugrid.count, ugrid.start, ugrid.step, tgrid.start,
                       tgrid.step, tgrid.count, +1, None, ("u", "time"))(spectrum.values)
    post = SQRT_J_OVER_2PI * np.conj(time_chirp(tgrid, spectrum.angle))
    post *= ugrid.step  # (post * du) * fourier, in that order
    post *= fourier
    return SampledSignal(tgrid, _Fresh(post))


def ismfrft_direct(spectrum: Spectrum, tgrid: UniformGrid) -> SampledSignal:
    """Quadrature inverse at the spectrum's angle: post-chirped rectangle
    rule over the u grid, onto any uniform time grid (a chirp-z transform).

    samples[n] = sqrt(j/(2*pi)) * exp(-(j/2) t_n^2 cot)
                 * du * sum_k exp(j u_k t_n) * X[k]

    InvalidGridError naming ``tgrid`` when a phase of the sum overflows a
    double.
    """
    _refuse_overflowing_phase(tgrid, spectrum.ugrid, tgrid)
    return _inverse(spectrum, tgrid)


def ismfrft_fast(spectrum: Spectrum) -> SampledSignal:
    """Fast inverse: the quadrature inverse onto the spectrum's originating
    time grid, which must satisfy du * N * dt = 2*pi; then the composition
    with ``smfrft_fast`` is the identity up to floating point."""
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
    return _inverse(spectrum, tgrid)
