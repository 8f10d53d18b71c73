"""The transforms with each chain of products as one expression: a
bit-level reference.

``smfrft_fast`` and ``ismfrft_fast`` below keep every temporary alive to
the end and do no product in place, and ``chirp_z``, behind
``smfrft_quadrature`` and ``ismfrft_direct``, takes the library's route
for each geometry (``_dft_turn``): the lattice chain (its phases formed
afresh, its rolls by ``np.roll``) or Bluestein's, each without the
library's one in-place buffer. Which operands numpy's
temporary elision (from 256 KiB on) swaps follows from these expression
shapes; ``tests/test_transform.py`` requires the library's bits to equal
these at sizes on both sides of that threshold. Do not tidy these
bodies: their expression shapes are the point.
"""

import numpy as np

from smfrft.errors import GridCompatibilityError
from smfrft.grid import SampledSignal, Spectrum
from smfrft.kernel import SQRT_J2PI, SQRT_J_OVER_2PI, time_chirp
from smfrft.transform import (
    _RECIPROCAL_RTOL,
    _bluestein_plan,
    _dft_turn,
    _even_spacing,
    fast_ugrid,
    lattice_split,
)


def smfrft_fast(x, angle):
    m, r = lattice_split(x.grid.start, x.grid.step, "time grid start")
    chirp = time_chirp(x.grid, angle)
    bins = np.fft.fftshift(np.fft.fft(np.roll(x.samples * chirp, m)))
    ugrid = fast_ugrid(x.grid)
    u = ugrid.points()
    values = (x.grid.step / SQRT_J2PI) * np.exp(-1j * r * u) * bins
    return Spectrum(ugrid, values, angle, tgrid=x.grid)


def ismfrft_fast(spectrum):
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
    u = spectrum.ugrid.points()
    referenced = spectrum.values * np.exp(1j * r * u)
    sums = np.roll(n * np.fft.ifft(np.fft.ifftshift(referenced)), -m)
    chirp = time_chirp(tgrid, spectrum.angle)
    post = SQRT_J_OVER_2PI * np.conj(chirp)
    return SampledSignal(tgrid, post * spectrum.ugrid.step * sums)


def chirp_z(values, x0, dx, y0, dy, count, sign, scale):
    n = values.shape[0]
    turn = _dft_turn(n, dx, dy, count, sign)
    if turn:
        a, r = lattice_split(x0, dx, "x0")
        b, s = lattice_split(y0, dy, "y0")
        x = np.arange(n, dtype=np.float64) * dx + x0
        y = np.arange(count, dtype=np.float64) * dy + y0
        phased = values * np.exp((sign * 1j * s) * x) if s else values
        if turn < 0:
            bins = np.roll(np.fft.fft(np.roll(phased, a)), -b)[:count]
        else:
            bins = np.roll(np.fft.ifft(np.roll(phased, a), norm="forward"), -b)[:count]
        if r and scale is None:
            return np.exp((sign * 1j * r) * (y - s)) * bins
        if r:
            return scale * np.exp((sign * 1j * r) * (y - s)) * bins
        return bins if scale is None else scale * bins
    pre, lag_fft, post = _bluestein_plan(n, x0, dx, y0, dy, count, sign)
    size = lag_fft.shape[0]
    sums = post * np.fft.ifft(np.fft.fft(values * pre, size) * lag_fft)[n - 1:n - 1 + count]
    return sums if scale is None else scale * sums


def smfrft_quadrature(x, u_points, angle):
    u = np.asarray(u_points, dtype=np.float64)
    u0, du = _even_spacing(u)
    grid = x.grid
    chirped = x.samples * time_chirp(grid, angle)
    return chirp_z(chirped, grid.start, grid.step, u0, du, u.shape[0], -1,
                   grid.step / SQRT_J2PI)


def ismfrft_direct(spectrum, tgrid):
    ugrid = spectrum.ugrid
    fourier = chirp_z(spectrum.values, ugrid.start, ugrid.step,
                      tgrid.start, tgrid.step, tgrid.count, +1, None)
    post = SQRT_J_OVER_2PI * np.conj(time_chirp(tgrid, spectrum.angle))
    return SampledSignal(tgrid, post * ugrid.step * fourier)
