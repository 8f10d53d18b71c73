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
from smfrft.transform import _RECIPROCAL_RTOL, fast_ugrid


def smfrft_fast(x, angle):
    t = x.grid.points()
    # not kernel.time_chirp: from 256 KiB on, numpy computes this product
    # in the exp temporary's buffer with the operands swapped, and the
    # fused multiply-add rounds that order differently; the CLI's CSV
    # bytes rest on this order
    chirped = x.samples * np.exp(0.5j * angle.cot_phi * t * t)
    bins = np.fft.fftshift(np.fft.fft(chirped))
    ugrid = fast_ugrid(x.grid)
    u = ugrid.points()
    values = (x.grid.step / SQRT_J2PI) * np.exp(-1j * x.grid.start * u) * bins
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
    u = spectrum.ugrid.points()
    referenced = spectrum.values * np.exp(1j * tgrid.start * u)
    sums = n * np.fft.ifft(np.fft.ifftshift(referenced))
    post = SQRT_J_OVER_2PI * np.conj(time_chirp(tgrid, spectrum.angle))
    return SampledSignal(tgrid, post * spectrum.ugrid.step * sums)
