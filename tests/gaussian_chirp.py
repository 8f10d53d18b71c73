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
