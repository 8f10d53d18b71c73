"""The fast transforms with each chain of products as one expression: a
bit-level reference.

``smfrft_fast`` and ``ismfrft_fast`` below keep every temporary alive to
the end and do no product in place. Which operands numpy's temporary
elision (from 256 KiB on) swaps follows from these expression shapes;
``tests/test_transform.py`` requires the library's bits to equal these
at sizes on both sides of that threshold. Do not tidy these bodies:
their expression shapes are the point.
"""

import numpy as np

from smfrft.errors import GridCompatibilityError
from smfrft.grid import SampledSignal, Spectrum
from smfrft.kernel import SQRT_J2PI, SQRT_J_OVER_2PI, time_chirp
from smfrft.transform import _RECIPROCAL_RTOL, fast_ugrid, lattice_split


def smfrft_fast(x, angle):
    m, r = lattice_split(x.grid.start, x.grid.step, "time grid start")
    chirp = time_chirp.__wrapped__(x.grid, angle)
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
    chirp = time_chirp.__wrapped__(tgrid, spectrum.angle)
    post = SQRT_J_OVER_2PI * np.conj(chirp)
    return SampledSignal(tgrid, post * spectrum.ugrid.step * sums)
