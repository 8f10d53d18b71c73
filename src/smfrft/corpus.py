"""Deterministic operand pairs for the identity suite.

Two of the three theorem pairs are broadband chirp pairs whose envelopes
reach toward the span edges. Their support-window leakage terms oscillate
too fast to resolve at N = 1024 but are fully resolved at N = 2048, which
gives every identity family a genuine, strongly decreasing discretization
residual instead of two rounding floors. The stationary point of the
leakage phase lands in the convolution's missed window for opposite-sign
chirp rates and in the correlation's for same-sign rates, so one pair of
each is included.
"""

from __future__ import annotations

from .grid import SampledSignal, UniformGrid, gen_chirp, gen_gaussian
from .operators import modulate_op


PAIR_COUNT = 3  # len(default_pairs(grid))


def default_pairs(grid: UniformGrid) -> list[tuple[SampledSignal, SampledSignal]]:
    """Three operand pairs for the identity suite.

    Pair 0: two Gaussians with carriers.
    Pair 1: broadband chirps, opposite rates (convolution-family probe).
    Pair 2: broadband chirps, same-sign rates (correlation-family probe).

    Every first operand is deliberately non-even: the adjudicated
    correlation forms differ only in the sign of a spectrum argument, and
    an even signal would mask that difference entirely.
    """
    return [
        (
            gen_gaussian(grid, center=0.2, width=1.0, carrier=0.7),
            gen_gaussian(grid, center=0.4, width=0.8, carrier=1.5),
        ),
        (
            modulated_chirp(grid, rate=14.0, envelope_width=2.1, carrier=1.2),
            gen_chirp(grid, rate=-11.0, envelope_width=2.0),
        ),
        (
            modulated_chirp(grid, rate=14.0, envelope_width=2.1, carrier=-0.8),
            gen_chirp(grid, rate=11.0, envelope_width=2.0),
        ),
    ]


def modulated_chirp(grid: UniformGrid, rate: float, envelope_width: float,
                    carrier: float) -> SampledSignal:
    """Chirp with an extra linear carrier, for off-center spectra."""
    return modulate_op(gen_chirp(grid, rate, envelope_width), carrier)
