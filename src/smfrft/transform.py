"""Forward and inverse transforms: chirp-z quadrature and the FFT-bin fast path.

Two routes compute the same simplified fractional transform:

* ``smfrft_quadrature`` / ``smfrft_direct`` evaluate the defining integral
  by a left-point rectangle rule on any evenly spaced output grid
  (shifted, negated, a sub-range, or a single point). The sum is a
  chirp-z transform, O((N+M) log), by one of the two routes below.
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

The chirp-z of N inputs onto M outputs has the ratio e^{sign*j*dt*du}.
On the FFT-bin lattice, dt*du*N = 2*pi with M <= N (the FFT-bin grid
shifted by any amount, negated, or a sub-range of it, and the inverse
onto the reciprocal step), that ratio is an N-th root of unity and the
sum is one length-N DFT between an input and an output phase (Rabiner,
Schafer & Rader, "The chirp z-transform algorithm", IEEE Trans. Audio
Electroacoust. 17(2), 1969). Everywhere else it is Bluestein's: one
linear FFT convolution of size >= N + M - 1 with a chirp over the lags.
The rule (``_dft_turn``) reads sign*dt*du*N/(2*pi) = +-(1 + delta) and
takes the DFT at |delta| <= 4 eps. The DFT then drops the phase
2*pi*delta*k'n'/N, at most pi*N*|delta|/2 at the corner indices
|k'|, |n'| <= N/2 (1.4e-12 rad at N = 1024 and the full 4 eps). That is
the order of the rounding of Bluestein's own phases, whose lag chirp
reaches pi*N rad and is rounded in its rate and in each of its
products; the lattice grids of ``run_suite`` (measured at N = 256 to
4096) lie within 1 eps, where it is below it. Against the closed form
at N = 2^17 the DFT route errs 1e-13 of the peak where Bluestein's
erred 9e-13. A step 1e-9 off the lattice takes Bluestein's route.

In a reuse scope (``kernel.reused``: ``run_suite``'s 180 quadratures at
N = 1024 with two angles share 9 chirp-z geometries, all on the lattice)
the quadrature reuses each geometry's plan (``_dft_plan`` or
``_bluestein_plan``), with a fresh build's bits; a Bluestein plan is
built in its one 2N-point buffer. The fast transforms drop each array
once it has been used. In complex arrays of the signal's length beyond
the input (tracemalloc; pocketfft's plan and buffer unseen),
``smfrft_fast`` peaks at three: the shifted FFT, the output phase and
its argument; ``ismfrft_fast`` at 3.5:
the rolled sums beside the post-chirp's grid, argument and value. The
in-place products ``values *= bins``, ``post *= du`` and ``post *= sums``
have the operand order that the chain ``a * b * c`` gives them at every
size. numpy's temporary elision, from 256 KiB on, swaps the operands of
some other products, so those stay expressions; the tests require the
bits of the chains in ``tests/fast_reference.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import AlignmentError, GridCompatibilityError, InvalidGridError
from .grid import ComplexArray, SampledSignal, Spectrum, UniformGrid, _Fresh
from .kernel import SQRT_J2PI, SQRT_J_OVER_2PI, Angle, reused, time_chirp

# relative slack on du*N*dt == 2*pi for the fast inverse pairing
_RECIPROCAL_RTOL = 1e-9
# quadrature points may leave an exact arithmetic progression by this much,
# relative to their largest magnitude (rounding of shifts and negations)
_EVEN_RTOL = 1e-12
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


def _dft_plan(n: int, x0: float, dx: float, y0: float, dy: float,
              count: int, sign: int, turn: int
              ) -> tuple[ComplexArray, ComplexArray]:
    """The input and output phases, read-only, that turn one length-n DFT
    into a chirp-z geometry whose ratio is e^{turn*2*pi*j/n} (see
    ``_chirp_z``). With both indices counted from the middle of their
    axis, k'n' = k*m - mid_k*m - k'*mid_n for input m and output k:
    the DFT holds e^{turn*2*pi*j*k*m/n}, and the two cross terms, reduced
    mod n as integers before they are scaled by 2*pi/n, move to the
    input and the output, so neither grows with n."""
    mid_n, mid_k = (n - 1) // 2, (count - 1) // 2
    xc = x0 + mid_n * dx
    yc = y0 + mid_k * dy
    unit = turn * 2.0 * np.pi / n
    m = np.arange(n)
    pre = np.exp(1j * (sign * yc * dx * (m - mid_n) - unit * (mid_k * m % n)))
    k = np.arange(count) - mid_k
    post = np.exp(1j * (sign * (yc + k * dy) * xc - unit * (k * mid_n % n)))
    for plan in (pre, post):
        plan.setflags(write=False)
    return pre, post


def _chirp_z(values: np.ndarray, x0: float, dx: float, y0: float, dy: float,
             count: int, sign: int) -> ComplexArray:
    """out[k] = sum_n values[n] * exp(sign*j*(y0 + k*dy)*(x0 + n*dx)), k < count.

    Both indices are counted from the middle of their axis (n', k'),
    which keeps the phases, and so their rounding, small. Then the phase
    is sign*(yc*xc + yc*dx*n' + xc*dy*k' + dx*dy*k'*n'), and the last
    term takes one of two routes:

    * on the FFT-bin lattice (``_dft_turn``: dx*dy*n = 2*pi, count <= n)
      it is the DFT's own phase up to integer cross terms, so the sum is
      one length-n FFT between the phases of ``_dft_plan``;
    * elsewhere, Bluestein's k'*n' = (k'^2 + n'^2 - (k' - n')^2)/2 splits
      it into a chirp on the input, one linear convolution with a chirp
      over the lags k' - n', and a chirp on the output. Output k is entry
      k + N - 1 of that convolution, which a circular FFT convolution of
      size >= N + count - 1 already holds exactly. The chirps come from
      ``_bluestein_plan``.

    One buffer takes each product in the chain's order.
    """
    n = values.shape[0]
    geometry = (n, x0, dx, y0, dy, count, sign)
    turn = _dft_turn(n, dx, dy, count, sign)
    if turn:
        pre, post = reused((_dft_plan, *geometry),
                           lambda: _dft_plan(*geometry, turn))
        buf = values * pre
        if turn < 0:
            np.fft.fft(buf, out=buf)
        else:   # the unscaled sum, sum_m buf[m] e^{+2*pi*j*k*m/n}
            np.fft.ifft(buf, out=buf, norm="forward")
        return post * buf[:count]
    pre, lag_fft, post = reused((_bluestein_plan, *geometry),
                                lambda: _bluestein_plan(*geometry))
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
    """Quadrature transform onto a uniform output grid; InvalidGridError
    naming that grid when a phase of the sum overflows a double."""
    _refuse_overflowing_phase(x.grid, ugrid, ugrid)
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

    InvalidGridError naming ``tgrid`` when a phase of the sum overflows a
    double.
    """
    ugrid = spectrum.ugrid
    _refuse_overflowing_phase(tgrid, ugrid, tgrid)
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
