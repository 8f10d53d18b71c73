"""CSV serialization of signals and spectra.

Signal files carry the header ``t,re,im``, spectrum files ``u,re,im``;
one row per sample in grid order (ascending axis). Values are written
with shortest round-trip decimal formatting (at most 17 significant
digits), so parsing reproduces the exact doubles. The axis grid is
inferred on read: the step is (last - first)/(rows - 1), and every
row-to-row difference must match it to within 1e-9 relative. A file
that is not ASCII text is refused like any other bad input. The
spectrum writer raises ShapeMismatchError for more or fewer values than
grid points. Write -> read -> write is byte-identical
whenever the grid start and step are exactly representable doubles,
which holds for every grid this package generates by default.

Both directions work in blocks of ``_BLOCK_ROWS`` rows. The writer
formats one block at a time with ``repr`` and streams it to the open
file, so it never holds all N row strings. The reader parses one block
at a time with Python's ``float`` (the same syntax and the same doubles
as a row-by-row parse) into a preallocated ``(rows, 3)`` table, and
looks for the offending row only in a block that failed, so errors
name the first bad row in file order. Empty lines at the end of a file
are ignored; an empty line between rows is an error.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InvalidGridError, InvalidParameterError, ShapeMismatchError
from .grid import ComplexArray, SampledSignal, UniformGrid

_UNIFORMITY_RTOL = 1e-9
_BLOCK_ROWS = 4096
_ROW = "{!r},{!r},{!r}\n".format


def _write(path, header: str, axis, values) -> None:
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(header + "\n")
        for start in range(0, axis.shape[0], _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            handle.write("".join(map(_ROW, axis[block].tolist(),
                                     values.real[block].tolist(),
                                     values.imag[block].tolist())))


def _parse_block(lines: list[str], out: np.ndarray) -> bool:
    """Fill the ``(len(lines), 3)`` table ``out``; False if any line is bad."""
    # two commas on every line, so the joined split has 3 parts per line
    if list(map(str.count, lines, repeat(","))) != [2] * len(lines):
        return False
    try:
        out.reshape(-1)[:] = list(map(float, ",".join(lines).split(",")))
    except ValueError:
        return False
    return bool(np.isfinite(out).all())


def _bad_row(path, lines: list[str], first_row: int) -> InvalidParameterError:
    """The error for the first offending line of a block that failed;
    ``first_row`` is the file row number of ``lines[0]``."""
    for i, line in enumerate(lines, start=first_row):
        parts = line.split(",")
        if len(parts) != 3:
            return InvalidParameterError(f"{path}: row {i}: expected 3 columns")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            return InvalidParameterError(f"{path}: row {i}: {exc}")
        if not np.all(np.isfinite(row)):
            return InvalidParameterError(f"{path}: row {i}: non-finite value")
    raise AssertionError("block failed but every row parses")


def _parse(path, header: str) -> tuple[np.ndarray, ComplexArray]:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            f"{path}: not ASCII text (byte {exc.start} is {exc.object[exc.start]:#04x})"
        ) from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise InvalidParameterError(
            f"{path}: expected header {header!r}, got {lines[0]!r}"
            if lines else f"{path}: empty file"
        )
    del text  # the lines hold it from here on
    rows = len(lines) - 1
    while rows and not lines[rows]:
        rows -= 1
    table = np.empty((rows, 3), dtype=np.float64)
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        block = lines[1 + start:1 + stop]
        if not _parse_block(block, table[start:stop]):
            raise _bad_row(path, block, start + 2)
    values = np.ascontiguousarray(table[:, 1:]).view(np.complex128)
    return table[:, 0].copy(), values.reshape(-1)


def _infer_grid(axis: np.ndarray, path) -> UniformGrid:
    if axis.shape[0] < 2:
        raise InvalidGridError(f"{path}: need at least 2 rows")
    # from the endpoints, not a median of differences: on a 2^17-row
    # spectrum file the median misses du = 2*pi/(N*dt) by ~1.6e-12
    # relative, and invert's phases grow that error N-fold
    step = (float(axis[-1]) - float(axis[0])) / (axis.shape[0] - 1)
    if step <= 0.0:
        raise InvalidGridError(f"{path}: axis must be strictly increasing")
    steps = np.diff(axis)
    if np.any(np.abs(steps - step) > _UNIFORMITY_RTOL * abs(step)):
        worst = int(np.argmax(np.abs(steps - step))) + 2
        raise InvalidGridError(
            f"{path}: row {worst}: axis not uniform within "
            f"{_UNIFORMITY_RTOL} relative of the endpoint step"
        )
    return UniformGrid(float(axis[0]), step, int(axis.shape[0]))


def write_signal_csv(path, signal: SampledSignal) -> None:
    _write(path, "t,re,im", signal.grid.points(), signal.samples)


def read_signal_csv(path) -> SampledSignal:
    axis, values = _parse(path, "t,re,im")
    return SampledSignal(_infer_grid(axis, path), values)


def write_spectrum_csv(path, ugrid: UniformGrid, values: ComplexArray) -> None:
    # a signal's samples match its grid by construction; spectrum values
    # arrive as a bare array, so check their length here
    if np.shape(values) != (ugrid.count,):
        raise ShapeMismatchError(
            f"{path}: {np.size(values)} values for a grid of {ugrid.count} points")
    _write(path, "u,re,im", ugrid.points(), values)


def read_spectrum_csv(path) -> tuple[UniformGrid, ComplexArray]:
    """Grid and values only; the angle is not part of the file format."""
    axis, values = _parse(path, "u,re,im")
    return _infer_grid(axis, path), values
