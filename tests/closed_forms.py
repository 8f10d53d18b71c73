"""Specialized closed forms, the test suite's reference for the RHS builders.

The library evaluates every convolution family through the general
time-frequency-shifted builder ``rhs_conv_tfshift`` and every correlation
family through ``rhs_corr_tfshift_derived``. This module keeps the six
specialized right-hand sides they replaced (plain, shifted and modulated
convolution and correlation), written out from their own formulas and not
from the general builders, so that the general builders collapsing onto
them at d = 0 and/or q = 0 is evidence for both. Correlation forms take
the overline spectrum: the transform of the conjugated signal.
"""

from __future__ import annotations

import numpy as np

from smfrft import smfrft_quadrature, sqrt_j2pi


def rhs_convolution(f, g, angle, u):
    return (sqrt_j2pi() * smfrft_quadrature(f, u, angle)
            * smfrft_quadrature(g, u, angle))


def rhs_conv_shift(f, g, angle, d, u, side):
    cot = angle.cot_phi
    phase = np.exp(-1j * u * d + 0.5j * d * d * cot)
    if side == "L":
        fs = smfrft_quadrature(f, u - d * cot, angle)
        gs = smfrft_quadrature(g, u, angle)
    else:
        fs = smfrft_quadrature(f, u, angle)
        gs = smfrft_quadrature(g, u - d * cot, angle)
    return sqrt_j2pi() * phase * fs * gs


def rhs_conv_modulation(f, g, angle, q, u, side):
    if side == "L":
        fs = smfrft_quadrature(f, u - q, angle)
        gs = smfrft_quadrature(g, u, angle)
    else:
        fs = smfrft_quadrature(f, u, angle)
        gs = smfrft_quadrature(g, u - q, angle)
    return sqrt_j2pi() * fs * gs


def rhs_correlation(f, g, angle, u):
    return (sqrt_j2pi() * smfrft_quadrature(f.conjugate(), -u, angle)
            * smfrft_quadrature(g, u, angle))


def rhs_corr_shift_derived(f, g, angle, d, u, side):
    cot = angle.cot_phi
    if side == "L":
        phase = np.exp(1j * u * d + 0.5j * d * d * cot)
        fs = smfrft_quadrature(f.conjugate(), -u - d * cot, angle)
        gs = smfrft_quadrature(g, u, angle)
    else:
        phase = np.exp(-1j * u * d + 0.5j * d * d * cot)
        fs = smfrft_quadrature(f.conjugate(), -u, angle)
        gs = smfrft_quadrature(g, u - d * cot, angle)
    return sqrt_j2pi() * phase * fs * gs


def rhs_corr_modulation(f, g, angle, q, u, side):
    if side == "L":
        fs = smfrft_quadrature(f.conjugate(), -u - q, angle)
        gs = smfrft_quadrature(g, u, angle)
    else:
        fs = smfrft_quadrature(f.conjugate(), -u, angle)
        gs = smfrft_quadrature(g, u - q, angle)
    return sqrt_j2pi() * fs * gs
