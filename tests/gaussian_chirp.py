"""Closed-form simplified transform of a Gaussian chirp: the test suite's
ground truth for the transforms.

The signal x(t) = exp(-a t^2 + b t + c), with complex a, b, c and
Re a > 0, has the transform

    X(u) = (1/sqrt(j*2*pi)) * integral exp(-A t^2 + B t + c) dt
         = exp(c + B^2/(4A)) * sqrt(pi/A) / sqrt(j*2*pi),

    A = a - (j/2) cot(phi),  B = b - j*u,

with every root on the principal branch (Re A = Re a > 0, where the
Gaussian integral takes the principal sqrt(pi/A)). Nothing here calls the
library's evaluators or constants, and ``tests/test_transform.py`` checks
the formula against a 40-digit quadrature.

Every operand of ``smfrft.corpus.default_pairs`` is such a triple
(``CORPUS_PAIRS``), written here from the generators' parameters.
"""

import numpy as np


def signal(t, a, b, c):
    """x(t) = exp(-a t^2 + b t + c)."""
    return np.exp(-a * t * t + b * t + c)


def spectrum(u, a, b, c, phi):
    """X(u) at the angle phi, from the closed form."""
    big_a = a - 0.5j * np.cos(phi) / np.sin(phi)
    big_b = b - 1j * np.asarray(u)
    return (np.exp(c + big_b * big_b / (4.0 * big_a)) * np.sqrt(np.pi / big_a)
            / np.sqrt(2j * np.pi))


def gaussian(center, width, carrier):
    """The triple of ``gen_gaussian(grid, center, width, carrier)``."""
    return (1 / (2 * width**2), center / width**2 + 1j * carrier,
            -center**2 / (2 * width**2))


def chirp(rate, width, carrier=0.0):
    """The triple of ``gen_chirp(grid, rate, width)`` times e^{j carrier t}
    (``corpus.modulated_chirp``)."""
    return 1 / (2 * width**2) + 0.5j * rate, 1j * carrier, 0.0


# corpus.default_pairs as triples, pair by pair
CORPUS_PAIRS = [
    (gaussian(0.2, 1.0, 0.7), gaussian(0.4, 0.8, 1.5)),
    (chirp(14.0, 2.1, 1.2), chirp(-11.0, 2.0)),
    (chirp(14.0, 2.1, -0.8), chirp(11.0, 2.0)),
]
