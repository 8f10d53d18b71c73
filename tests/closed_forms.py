"""Specialized closed forms, the test suite's reference for the RHS builders.

The library evaluates every convolution and correlation family through
one time-frequency-shifted builder, ``rhs_tfshift``, which takes the
shifted and modulated operand's spectrum from the transform's
time-frequency-shift property. This module keeps the six specialized
right-hand sides it replaced (plain, shifted and modulated convolution
and correlation), and the printed left time-frequency-shifted
correlation, each written out from its own formula and not from the
general builder, so that the builder collapsing onto them at d = 0
and/or q = 0, or reproducing the printed form, is evidence for both.
Correlation forms take the overline spectrum: the transform of the
conjugated signal.
"""

from __future__ import annotations

import numpy as np

from smfrft import SQRT_J2PI, smfrft_quadrature


def rhs_convolution(f, g, angle, u):
    return (SQRT_J2PI * smfrft_quadrature(f, u, angle)
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
    return SQRT_J2PI * phase * fs * gs


def rhs_conv_modulation(f, g, angle, q, u, side):
    if side == "L":
        fs = smfrft_quadrature(f, u - q, angle)
        gs = smfrft_quadrature(g, u, angle)
    else:
        fs = smfrft_quadrature(f, u, angle)
        gs = smfrft_quadrature(g, u - q, angle)
    return SQRT_J2PI * fs * gs


def rhs_correlation(f, g, angle, u):
    return (SQRT_J2PI * smfrft_quadrature(f.conjugate(), -u, angle)
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
    return SQRT_J2PI * phase * fs * gs


def rhs_corr_modulation(f, g, angle, q, u, side):
    if side == "L":
        fs = smfrft_quadrature(f.conjugate(), -u - q, angle)
        gs = smfrft_quadrature(g, u, angle)
    else:
        fs = smfrft_quadrature(f.conjugate(), -u, angle)
        gs = smfrft_quadrature(g, u - q, angle)
    return SQRT_J2PI * fs * gs


def rhs_corr_tfshift_printed(f, g, angle, d, q, u):
    # the left form as printed: phase e^{-j(u-q)d + (j/2) d^2 cot} and the
    # overline spectrum at u - q - d*cot, with no negation of u
    cot = angle.cot_phi
    phase = np.exp(-1j * (u - q) * d + 0.5j * d * d * cot)
    fs = smfrft_quadrature(f.conjugate(), u - q - d * cot, angle)
    gs = smfrft_quadrature(g, u, angle)
    return SQRT_J2PI * phase * fs * gs
