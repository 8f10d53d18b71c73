"""Sampled-data value types and test-signal generators.

All types are immutable after construction and every operation is a pure
function. Signals are zero outside their grid span; the generators are
Gaussian-enveloped so that truncation at the grid edges is controllable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import InvalidGridError, InvalidParameterError, ShapeMismatchError
from .kernel import Angle

ComplexArray = npt.NDArray[np.complex128]
FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True, slots=True)
class UniformGrid:
    """Evenly spaced axis: point(k) = start + k*step for 0 <= k < count.

    Units are seconds for time axes and rad/s for fractional-frequency
    axes; the type does not distinguish the two.
    """

    start: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "count", int(self.count))
        if not np.isfinite(self.start) or not np.isfinite(self.step):
            raise InvalidGridError("grid start and step must be finite")
        if self.step <= 0.0:
            raise InvalidGridError(f"grid step must be > 0, got {self.step!r}")
        if self.count < 2:
            raise InvalidGridError(f"grid count must be >= 2, got {self.count!r}")

    def point(self, k: int) -> float:
        return self.start + k * self.step

    def points(self) -> FloatArray:
        # arange(count)*step + start reproduces point(k) bit-for-bit
        return np.arange(self.count, dtype=np.float64) * self.step + self.start


def _energy(step: float, values: np.ndarray) -> float:
    """Discrete L2 energy, step * sum(|v|^2); InvalidParameterError when
    it overflows a double, rather than an inf that turns ratios into nan."""
    with np.errstate(over="ignore"):
        energy = float(step * np.sum(np.abs(values) ** 2))
    if energy == np.inf:
        raise InvalidParameterError("energy step * sum|v|^2 overflows a double")
    return energy


class _Fresh:
    """An array that the library has just made and drops. A signal or a
    spectrum built on it takes it as its own, read-only, instead of
    copying it. A plain class: a dataclass would add ~1.6 ms to every
    command's start-up."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _freeze(obj, field: str, count: int, noun: str) -> None:
    """Check that ``obj.<field>`` holds ``count`` finite numbers and put a
    read-only complex128 array in its place: a copy, unless the field
    holds a ``_Fresh`` array; ``noun`` names the owner in the error
    message."""
    value = getattr(obj, field)
    fresh = isinstance(value, _Fresh)
    values = np.asarray(value.array if fresh else value, dtype=np.complex128)
    if values.ndim != 1 or values.shape[0] != count:
        raise ShapeMismatchError(
            f"expected {count} {field}, got shape {values.shape}"
        )
    if not np.all(np.isfinite(values.view(np.float64))):
        raise InvalidParameterError(f"{noun} {field} must all be finite")
    if not fresh:
        values = values.copy()
    values.setflags(write=False)
    object.__setattr__(obj, field, values)


@dataclass(frozen=True, slots=True)
class SampledSignal:
    """Complex samples of a time-domain signal on a uniform grid.

    The signal is zero outside [start, start + (count-1)*step]; operators
    use that zero-extension, never periodic wrap-around.
    """

    grid: UniformGrid
    samples: ComplexArray

    def __post_init__(self):
        _freeze(self, "samples", self.grid.count, "signal")

    def conjugate(self) -> "SampledSignal":
        return SampledSignal(self.grid, _Fresh(np.conj(self.samples)))

    def energy(self) -> float:
        """Discrete L2 energy, step * sum(|x|^2)."""
        return _energy(self.grid.step, self.samples)


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Transform values on a fractional-frequency grid at a fixed angle.

    `tgrid` records the time grid the spectrum was computed from; the
    fast inverse needs it to reproduce the exact forward phase reference.
    """

    ugrid: UniformGrid
    values: ComplexArray
    angle: Angle
    tgrid: UniformGrid | None = None

    def __post_init__(self):
        _freeze(self, "values", self.ugrid.count, "spectrum")

    def energy(self) -> float:
        """Discrete L2 energy, step * sum(|X|^2)."""
        return _energy(self.ugrid.step, self.values)


def _check_parameters(width_name: str, width: float, **finite: float) -> None:
    """InvalidParameterError naming the width when it is not in (0, inf),
    else the first of the other parameters that is not finite."""
    if not 0.0 < width < math.inf:
        raise InvalidParameterError(
            f"{width_name} must be in (0, inf), got {width!r}")
    for name, value in finite.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def _check_phases(grid: UniformGrid, **largest: float) -> None:
    """InvalidParameterError naming the grid and the first of the
    generator's exponents whose largest magnitude on it is not finite, so
    that no sample arithmetic overflows."""
    for name, value in largest.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} overflows a double on {grid}")


def _envelope_exponent(reach: float, width: float) -> float:
    """reach^2 / (2 width^2), inf where it or 2 width^2 leaves a double."""
    denominator = 2.0 * width * width
    return reach * reach / denominator if denominator else math.inf


def gen_gaussian(grid: UniformGrid, center: float, width: float,
                 carrier: float) -> SampledSignal:
    """Gaussian envelope with an optional complex carrier.

    samples[n] = exp(-(t_n - center)^2 / (2*width^2)) * exp(j*carrier*t_n)
    """
    _check_parameters("width", width, center=center, carrier=carrier)
    first, last = grid.start, grid.point(grid.count - 1)
    _check_phases(grid, **{
        "envelope exponent (t - center)^2 / (2 width^2)": _envelope_exponent(
            max(abs(first - center), abs(last - center)), width),
        "carrier phase carrier * t": carrier * max(abs(first), abs(last))})
    t = grid.points()
    envelope = np.exp(-((t - center) ** 2) / (2.0 * width * width))
    return SampledSignal(grid, _Fresh(envelope * np.exp(1j * carrier * t)))


def gen_chirp(grid: UniformGrid, rate: float,
              envelope_width: float) -> SampledSignal:
    """Gaussian-enveloped linear chirp with down-sweeping quadratic phase.

    samples[n] = exp(-t_n^2 / (2*envelope_width^2)) * exp(-j*rate*t_n^2/2)

    A chirp generated with rate equal to cot(phi) is exactly phase-
    cancelled by the fast path's pre-multiplication at angle phi, which is
    what makes it maximally compact in that fractional domain.
    """
    _check_parameters("envelope_width", envelope_width, rate=rate)
    reach = max(abs(grid.start), abs(grid.point(grid.count - 1)))
    _check_phases(grid, **{
        "envelope exponent t^2 / (2 envelope_width^2)": _envelope_exponent(
            reach, envelope_width),
        "chirp phase rate * t^2 / 2": 0.5 * abs(rate) * reach * reach})
    t = grid.points()
    envelope = np.exp(-(t * t) / (2.0 * envelope_width * envelope_width))
    return SampledSignal(grid, _Fresh(envelope * np.exp(-0.5j * rate * t * t)))
