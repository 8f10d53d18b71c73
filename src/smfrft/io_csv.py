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

Both directions split the rows into contiguous parts, one per CPU this
process may run on, each of at least ``_MIN_PART_ROWS`` rows; a smaller
file, or any file where ``os.fork`` does not exist, is one part. The
calling process handles part 0 and forks one worker per other part. A
worker only formats or parses its own part and leaves through
``os._exit``; the caller waits for every worker, also when it raises.
Within a part, rows go in blocks of ``_BLOCK_ROWS``, so no process holds
more than one block as strings beyond the lines it was given.

The writer formats one block at a time with ``repr``. Part 0 streams to
the output after the header; each worker streams to its own unlinked
temporary file, whose bytes the caller then appends in part order. The
reader splits the text into lines, checks the header, and parses each
block with Python's ``float`` (the same syntax and the same doubles as a
row-by-row parse) into a ``(rows, 3)`` table, which the workers fill in
place through a shared anonymous mmap. It looks for the offending row
only in a block that failed.

A part whose worker failed is done again by the caller, in file order,
so every error is the one a single process would raise: the reader names
the first bad row in file order, and the writer raises the write's own
error. A write that raises removes the output file (when it is a regular
file): a partial file ends on a row boundary and would read back as a
valid, shorter signal. Empty lines at the end of a file are ignored; an
empty line between rows is an error.
"""

from __future__ import annotations

import mmap
import os
import shutil
import stat
import tempfile
from contextlib import ExitStack, suppress
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import InvalidGridError, InvalidParameterError, ShapeMismatchError
from .grid import ComplexArray, SampledSignal, UniformGrid

_UNIFORMITY_RTOL = 1e-9
_BLOCK_ROWS = 4096
# below this a part costs more in fork, exit and wait (~2 ms) and in
# copy-on-write faults than it saves. Split 2 ways on 2 CPUs, 16384 rows
# wrote in 35 ms against 46 ms in one process and read in 23-24 ms against
# 23-24 ms; 8192 rows wrote in 20-23 ms against 21-23 ms and read in
# 14-16 ms against 12 ms.
_MIN_PART_ROWS = 8192
_ROW = "{!r},{!r},{!r}\n".format


def _workers(rows: int) -> int:
    """How many parts to split ``rows`` rows into."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows // _MIN_PART_ROWS))


def _parts(rows: int) -> list[range]:
    """Contiguous row ranges of near-equal length that tile ``range(rows)``."""
    n = _workers(rows)
    return [range(rows * k // n, rows * (k + 1) // n) for k in range(n)]


def _fork(jobs) -> list[int | None]:
    """Run each job in a forked child and return the children's pids, None
    where no process could be forked.

    A child runs only its job and leaves through ``os._exit``, with status
    0 if the job returned and 1 if it raised; it never returns into the
    caller.
    """
    pids: list[int | None] = []
    try:
        for job in jobs:
            try:
                pid = os.fork()
            except OSError:  # out of processes: the caller does this job
                pids.append(None)
                continue
            if pid == 0:
                status = 1
                try:
                    job()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
    except BaseException:
        _reap(pids)
        raise
    return pids


def _reap(pids: list[int | None]) -> list[bool]:
    """Wait for every child in ``pids``; True for each that exited 0."""
    return [pid is not None and os.waitpid(pid, 0)[1] == 0 for pid in pids]


def _write_rows(handle, columns, part: range) -> None:
    axis, re, im = columns
    for start in range(part.start, part.stop, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, part.stop))
        handle.write("".join(map(_ROW, axis[block].tolist(),
                                 re[block].tolist(), im[block].tolist())))


def _spill(spill, columns, part: range) -> None:
    with open(spill.fileno(), "w", encoding="ascii", closefd=False) as handle:
        _write_rows(handle, columns, part)


def _remove_partial(path) -> None:
    # only a regular file: never a device, a pipe or a symlink such as
    # /dev/stdout that the output name happened to be
    with suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


def _write(path, header: str, axis, values) -> None:
    axis = np.asarray(axis, dtype=np.float64)
    values = np.asarray(values, dtype=np.complex128)
    columns = (axis, values.real, values.imag)
    first, *rest = _parts(axis.shape[0])
    with ExitStack() as stack:
        spills = [stack.enter_context(tempfile.TemporaryFile()) for _ in rest]
        handle = open(path, "w", encoding="ascii")
        try:
            with handle:
                pids = _fork(partial(_spill, spill, columns, part)
                             for spill, part in zip(spills, rest))
                try:
                    handle.write(header + "\n")
                    _write_rows(handle, columns, first)
                finally:
                    done = _reap(pids)
                for spill, part, ok in zip(spills, rest, done):
                    if ok:
                        handle.flush()
                        spill.seek(0)
                        shutil.copyfileobj(spill, handle.buffer)
                    else:  # write it here, so an error is the write's own
                        _write_rows(handle, columns, part)
        except BaseException:
            _remove_partial(path)
            raise


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


def _parse_rows(path, lines: list[str], table: np.ndarray, part: range) -> None:
    """Parse data rows ``part`` of ``lines`` (whose first line is the
    header) into the same rows of ``table``; raise for the first bad row."""
    for start in range(part.start, part.stop, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, part.stop)
        block = lines[1 + start:1 + stop]
        if not _parse_block(block, table[start:stop]):
            raise _bad_row(path, block, start + 2)


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
    first, *rest = _parts(rows)
    # the workers fill the caller's table, so it must be shared memory
    table = (np.frombuffer(mmap.mmap(-1, rows * 24), dtype=np.float64)
             .reshape(rows, 3) if rest else np.empty((rows, 3), dtype=np.float64))
    pids = _fork(partial(_parse_rows, path, lines, table, part) for part in rest)
    try:
        _parse_rows(path, lines, table, first)
    finally:
        done = _reap(pids)
    for part, ok in zip(rest, done):
        if not ok:  # parse it here, so the error names its first bad row
            _parse_rows(path, lines, table, part)
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
