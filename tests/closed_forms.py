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
conjugated signal. Each form takes the u grid, and each spectrum is a
quadrature onto the shifted or negated grid of its abscissae.
"""

from __future__ import annotations

import numpy as np

from smfrft import SQRT_J2PI
from smfrft.transform import smfrft_quadrature


def _at(x, angle, ugrid, sign=1.0, shift=0.0):
    """The quadrature spectrum of ``x`` at sign*u - shift, u the points of
    ``ugrid``: a grid of start sign*u0 - shift and step sign*du."""
    return smfrft_quadrature(x, sign * ugrid.start - shift, sign * ugrid.step,
                             ugrid.count, angle)


def rhs_convolution(f, g, angle, ugrid):
    return SQRT_J2PI * _at(f, angle, ugrid) * _at(g, angle, ugrid)


def rhs_conv_shift(f, g, angle, d, ugrid, side):
    cot = angle.cot_phi
    u = ugrid.points()
    phase = np.exp(-1j * u * d + 0.5j * d * d * cot)
    if side == "L":
        fs = _at(f, angle, ugrid, shift=d * cot)
        gs = _at(g, angle, ugrid)
    else:
        fs = _at(f, angle, ugrid)
        gs = _at(g, angle, ugrid, shift=d * cot)
    return SQRT_J2PI * phase * fs * gs


def rhs_conv_modulation(f, g, angle, q, ugrid, side):
    if side == "L":
        fs = _at(f, angle, ugrid, shift=q)
        gs = _at(g, angle, ugrid)
    else:
        fs = _at(f, angle, ugrid)
        gs = _at(g, angle, ugrid, shift=q)
    return SQRT_J2PI * fs * gs


def rhs_correlation(f, g, angle, ugrid):
    return (SQRT_J2PI * _at(f.conjugate(), angle, ugrid, sign=-1.0)
            * _at(g, angle, ugrid))


def rhs_corr_shift_derived(f, g, angle, d, ugrid, side):
    cot = angle.cot_phi
    u = ugrid.points()
    if side == "L":
        phase = np.exp(1j * u * d + 0.5j * d * d * cot)
        fs = _at(f.conjugate(), angle, ugrid, sign=-1.0, shift=d * cot)
        gs = _at(g, angle, ugrid)
    else:
        phase = np.exp(-1j * u * d + 0.5j * d * d * cot)
        fs = _at(f.conjugate(), angle, ugrid, sign=-1.0)
        gs = _at(g, angle, ugrid, shift=d * cot)
    return SQRT_J2PI * phase * fs * gs


def rhs_corr_modulation(f, g, angle, q, ugrid, side):
    if side == "L":
        fs = _at(f.conjugate(), angle, ugrid, sign=-1.0, shift=q)
        gs = _at(g, angle, ugrid)
    else:
        fs = _at(f.conjugate(), angle, ugrid, sign=-1.0)
        gs = _at(g, angle, ugrid, shift=q)
    return SQRT_J2PI * fs * gs


def rhs_corr_tfshift_printed(f, g, angle, d, q, ugrid):
    # the left form as printed: phase e^{-j(u-q)d + (j/2) d^2 cot} and the
    # overline spectrum at u - q - d*cot, with no negation of u
    cot = angle.cot_phi
    u = ugrid.points()
    phase = np.exp(-1j * (u - q) * d + 0.5j * d * d * cot)
    fs = _at(f.conjugate(), angle, ugrid, shift=q + d * cot)
    gs = _at(g, angle, ugrid)
    return SQRT_J2PI * phase * fs * gs
