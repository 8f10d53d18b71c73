"""CSV serialization of signals and spectra.

Signal files carry the header ``t,re,im``, spectrum files ``u,re,im``;
one row per sample in grid order (ascending axis). Values are written
with shortest round-trip decimal formatting, byte for byte what ``repr``
prints, so parsing reproduces the exact doubles. The axis grid is
inferred on read: the step is (last - first)/(rows - 1), and every
row-to-row difference must match it to within 1e-9 relative. The
writers apply that rule with ``check_grid_readable`` before they open
the file, so they refuse a grid whose file would not read back. The
spectrum writer raises ShapeMismatchError for more or fewer values than
grid points. A file that is not ASCII text is refused like any other
bad input.
Write -> read -> write is byte-identical whenever the grid start and
step are exactly representable doubles, which holds for every grid this
package generates by default.

Everything runs in the calling process. The writer formats blocks of
``_BLOCK_ROWS`` rows with ``_repr_rows``, a numpy formatter: Giulietti's
Schubfach ("The Schubfach way to render doubles", 2020) gives each
double's shortest digits from a 126-bit table entry and three 128-bit
products, and the digits are laid out as ``repr`` lays them out. A write
that raises removes the output file (when it is a regular file): a
partial file ends on a row boundary and would read back as a valid,
shorter signal.

The reader reads the file once and hands it to numpy's C parser
(``np.loadtxt``). It keeps that table only when the parser cannot have
read the file differently from Python's ``float``: no line-break
characters other than ``\\n`` and ``\\r\\n``, no ``\\x1f``, one row of
three finite numbers for every line after the header. Any other file
goes to one row-by-row pass: ``splitlines``, then ``float`` on each
field, which reads every number ``float`` accepts or names the first bad
row. Empty lines at the end of a file are ignored; an empty line between
rows is an error.

The reader holds the file's bytes only while numpy parses them: it drops
them before it copies the axis and the values out of the table. A read
peaks at the file's size plus the table and numpy's parse buffers, ~1.9
complex arrays of the row count (traced: the file + 3.7 MB at 2^17 rows).
A write holds its axis and one block's temporaries (~3 MB), so at 2^17
rows the read sets every command's traced peak.
"""

from __future__ import annotations

import functools
import io
import os
import stat
import warnings
from array import array
from contextlib import suppress
from pathlib import Path

import numpy as np

from .errors import InvalidGridError, InvalidParameterError, ShapeMismatchError
from .grid import ComplexArray, SampledSignal, UniformGrid

_UNIFORMITY_RTOL = 1e-9
# the formatter's temporaries take ~1.5 KB a row (traced), ~3 MB a block:
# from 2^16 rows on, a write then holds less than a read of its file. With
# 16384-row blocks the filter command's peak RSS at 2^17 rows was 70.0 MB,
# against 52.9 MB with 4096-row ones
_BLOCK_ROWS = 2048
# bytes that np.loadtxt reads without error but differently from Python's
# splitlines and float (a lone "\r" is checked apart): line breaks to
# splitlines, while loadtxt takes \v, \f and \x1c-\x1f around a number
# as blanks, which float refuses in \x1c-\x1f
_NOT_FOR_LOADTXT = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# ---------------------------------------------------------------- writer

_U = np.uint64
_LOW32 = _U(0xFFFF_FFFF)
_LOW63 = _U(2**63 - 1)
_K_MIN = -324  # the decimal exponents k of Schubfach's table: [-324, 292]
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_ZERO = ord("0")
_FIELD = 25  # widest field, "-d.dddddddddddddddde-308", plus its separator
_TABLE = 45  # digit table columns: 5 zeros, 17 digits, 23 zeros


def _mulhi(a, b):
    """High 64 bits of the 128-bit products ``a * b`` of uint64 arrays."""
    a0, a1 = a & _LOW32, a >> _U(32)
    b0, b1 = b & _LOW32, b >> _U(32)
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> _U(32)) + (cross1 >> _U(32)) + (mid >> _U(32))


@functools.cache
def _g_table() -> np.ndarray:
    """Rows (g1, g0), g = g1 * 2^63 + g0 = floor(10^-k * 2^(125 - r)) + 1
    with r = floor(log2 10^-k), so that 2^125 < g < 2^126."""
    rows = []
    for k in range(_K_MIN, 293):
        shift = 125 - ((-k * 913_124_641_741) >> 38)
        g = ((10 ** max(-k, 0) << max(shift, 0))
             // (10 ** max(k, 0) << max(-shift, 0)) + 1)
        rows.append((g >> 63, g & (2**63 - 1)))
    return np.array(rows, dtype=np.uint64)


def _round_to_odd(g1, g0, cp):
    """cp * g / 2^127 rounded to odd: the integer part, with the lowest bit
    set when any fraction was dropped."""
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> _U(63))) | ((z & _LOW63) != 0)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with |x| = f * 10^e read back exactly: the fewest digits, and
    of those the decimal closest to x (even f on a tie), as ``repr``.
    Zero gives (0, 0). Raises ValueError for a non-finite x."""
    bits = x.view(np.uint64)
    mantissa = bits & _U(2**52 - 1)
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    if (biased == 0x7FF).any():
        raise ValueError("cannot format a non-finite value")
    normal = biased != 0
    c = np.where(normal, mantissa | _U(2**52), mantissa)  # |x| = c * 2^q
    q = np.where(normal, biased - 1075, -1074)
    # a power of two has a closer neighbour below: 3/4 of the spacing
    irregular = (mantissa == 0) & (biased > 1)
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = _g_table()[k - _K_MIN]
    cb = c << _U(2)
    cbl = cb - np.where(irregular, _U(1), _U(2))
    # 4 x 10^-k and the ends of its rounding interval, scaled the same way
    vb, vbl, vbr = _round_to_odd(g[:, 0], g[:, 1], np.stack([cb, cbl, cb + _U(2)]) << h)
    out = c & _U(1)  # an odd c cannot take the interval's ends
    s = vb >> _U(2)
    t = s + _U(1)
    u_in = vbl + out <= s << _U(2)
    w_in = (t << _U(2)) + out <= vbr
    twice_mid = (s + t) << _U(1)
    closer_s = (vb < twice_mid) | ((vb == twice_mid) & ((s & _U(1)) == 0))
    f = np.where(u_in != w_in, np.where(u_in, s, t), np.where(closer_s, s, t))
    # one digit fewer, if a multiple of 10 lies in the interval (it is
    # narrower than 10, so it holds at most one)
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    up_in = vbl + out <= sp10 << _U(2)
    wp_in = (tp10 << _U(2)) + out <= vbr
    f = np.where((s >= _U(10)) & (up_in != wp_in), np.where(up_in, sp10, tp10), f)
    zero = c == 0
    f[zero] = 0
    k[zero] = 0
    return f, k


def _repr_rows(cells: np.ndarray) -> bytes:
    """The rows ``repr(a),repr(b),repr(c)\\n`` of a ``(rows, 3)`` float64
    array, as ASCII bytes. Raises ValueError for a non-finite value."""
    x = np.ascontiguousarray(cells, dtype=np.float64).reshape(-1)
    m = x.shape[0]
    f, e = _shortest(x)
    # table: f's 17 digits (zero-padded) at columns 5-21, '0' elsewhere
    table = np.full((m, _TABLE), _ZERO, dtype=np.uint8)
    part = f
    for column in range(21, 4, -1):
        part, digit = np.divmod(part, _U(10))
        table[:, column] += digit.astype(np.uint8)
    nd = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)  # digits of f
    n = nd - np.argmax(table[:, 21:4:-1] != _ZERO, axis=1)  # without trailing 0s
    decpt = e + nd  # x = 0.d1d2...dn * 10^decpt
    # repr's layouts: [-]int.frac, int = '0' when decpt <= 0, and
    # [-]d[.ddd]e±XX outside -4 < decpt <= 16
    sci = (decpt <= -4) | (decpt > 16)
    neg = (x.view(np.uint64) >> _U(63)).astype(np.int64)
    int_len = np.where(sci, 1, np.maximum(decpt, 1))
    has_dot = ~sci | (n > 1)
    frac_len = np.where(sci, n - 1, np.maximum(n - decpt, 1))
    dot = neg + int_len
    exponent = np.abs(decpt - 1)
    exp_at = dot + has_dot + frac_len
    length = exp_at + np.where(sci, np.where(exponent >= 100, 5, 4), 0)
    # character j of a field is digit j - (dot - p) - (j > dot) of the
    # number, p = decpt (1 in exponent form), which is table column 22 - nd
    # plus that; the sign, dot, exponent and separator are written over it
    j = np.arange(_FIELD, dtype=np.int32)
    rows = np.arange(m)
    first = 22 - nd - dot + np.where(sci, 1, decpt) + rows * _TABLE
    flat = np.add.outer(first.astype(np.int32), j)
    flat -= j > dot[:, None]
    buf = np.take(table.reshape(-1), flat)
    buf[rows[neg == 1], 0] = ord("-")
    buf[rows[has_dot], dot[has_dot]] = ord(".")
    se, at, xs = rows[sci], exp_at[sci], exponent[sci]
    buf[se, at] = ord("e")
    buf[se, at + 1] = np.where(decpt[sci] > 1, ord("+"), ord("-"))
    wide = xs >= 100
    buf[se[wide], at[wide] + 2] = _ZERO + xs[wide] // 100
    at += 2 + wide
    buf[se, at] = _ZERO + xs // 10 % 10
    buf[se, at + 1] = _ZERO + xs % 10
    buf[rows, length] = np.tile(np.frombuffer(b",,\n", dtype=np.uint8), m // 3)
    return buf[j <= length[:, None]].tobytes()


def _remove_partial(path) -> None:
    # only a regular file: never a device, a pipe or a symlink such as
    # /dev/stdout that the output name happened to be
    with suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


def _write(path, header: str, grid: UniformGrid, values) -> None:
    check_grid_readable(path, grid)
    axis = grid.points()
    values = np.asarray(values, dtype=np.complex128)
    handle = open(path, "wb")
    try:
        with handle:
            handle.write(header.encode("ascii") + b"\n")
            for start in range(0, grid.count, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                handle.write(_repr_rows(np.column_stack(
                    (axis[block], values[block].real, values[block].imag))))
    except BaseException:
        _remove_partial(path)
        raise


# ---------------------------------------------------------------- reader

def _parse_lines(path, text: str, header: str) -> np.ndarray:
    """The row-by-row pass: the ``(rows, 3)`` table of ``text``, or the
    error for its header or its first bad row."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise InvalidParameterError(
            f"{path}: expected header {header!r}, got {lines[0]!r}"
            if lines else f"{path}: empty file"
        )
    rows = len(lines) - 1
    while rows and not lines[rows]:
        rows -= 1
    cells, error = array("d"), None  # doubles, not float objects
    for i, line in enumerate(lines[1:rows + 1], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            error = f"row {i}: expected 3 columns"
            break
        try:
            cells.extend([float(p) for p in parts])  # whole rows only
        except ValueError as exc:
            error = f"row {i}: {exc}"
            break
    table = np.frombuffer(cells).reshape(-1, 3)
    # a non-finite value comes before the row where the pass stopped
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        error = f"row {bad[0] + 2}: non-finite value"
    if error:
        raise InvalidParameterError(f"{path}: {error}")
    return table


def _loadtxt(data: bytes, header: str) -> np.ndarray | None:
    """The ``(rows, 3)`` table numpy's C parser reads from ``data``, or None
    when the row-by-row pass might read the file differently."""
    if any(odd in data for odd in _NOT_FOR_LOADTXT) or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    end = len(data)
    while end and data[end - 1] in b"\r\n":  # trailing empty lines
        end -= 1
    rows = data.count(b"\n", 0, end)
    if not rows or data[:data.index(b"\n")].decode("ascii").strip() != header:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty table is refused below
            table = np.loadtxt(io.BytesIO(data), delimiter=",", comments=None,
                               skiprows=1, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips empty lines, so an empty line between rows shows here
    if table.shape != (rows, 3) or not np.isfinite(table).all():
        return None
    return table


def _parse(path, header: str) -> tuple[np.ndarray, ComplexArray]:
    data = Path(path).read_bytes()
    try:
        if not data.isascii():
            data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(
            f"{path}: not ASCII text (byte {exc.start} is {data[exc.start]:#04x})"
        ) from None
    table = _loadtxt(data, header)
    if table is None:
        table = _parse_lines(path, data.decode("ascii"), header)
    del data
    values = np.ascontiguousarray(table[:, 1:]).view(np.complex128)
    return table[:, 0].copy(), values.reshape(-1)


def _infer_grid(axis: np.ndarray, where) -> UniformGrid:
    """The uniform grid of ``axis``; errors start with ``where``."""
    if axis.shape[0] < 2:
        raise InvalidGridError(f"{where}: need at least 2 rows")
    # from the endpoints, not a median of differences: on a 2^17-row
    # spectrum file the median misses du = 2*pi/(N*dt) by ~1.6e-12
    # relative, and invert's phases grow that error N-fold
    step = (float(axis[-1]) - float(axis[0])) / (axis.shape[0] - 1)
    if step <= 0.0:
        raise InvalidGridError(f"{where}: axis must be strictly increasing")
    steps = np.diff(axis)
    if np.any(np.abs(steps - step) > _UNIFORMITY_RTOL * abs(step)):
        worst = int(np.argmax(np.abs(steps - step))) + 2
        raise InvalidGridError(
            f"{where}: row {worst}: axis not uniform within "
            f"{_UNIFORMITY_RTOL} relative of the endpoint step"
        )
    return UniformGrid(float(axis[0]), step, int(axis.shape[0]))


def check_grid_readable(path, grid: UniformGrid) -> None:
    """Raise InvalidGridError, naming the grid, when the axis that a file
    written on ``grid`` holds would not read back as a uniform grid: a
    start so large that the step is lost in rounding, for example."""
    where = (f"{path}: grid start={grid.start!r}, step={grid.step!r}, "
             f"count={grid.count} does not read back")
    with np.errstate(over="ignore"):
        axis = grid.points()
    if not np.isfinite(axis[-1]):  # the largest point
        raise InvalidGridError(f"{where}: its last point overflows a double")
    _infer_grid(axis, where)


def write_signal_csv(path, signal: SampledSignal) -> None:
    _write(path, "t,re,im", signal.grid, signal.samples)


def read_signal_csv(path) -> SampledSignal:
    axis, values = _parse(path, "t,re,im")
    return SampledSignal(_infer_grid(axis, path), values)


def write_spectrum_csv(path, ugrid: UniformGrid, values: ComplexArray) -> None:
    # a signal's samples match its grid and are finite by construction;
    # spectrum values arrive as a bare array, so check them here
    if np.shape(values) != (ugrid.count,):
        raise ShapeMismatchError(
            f"{path}: {np.size(values)} values for a grid of {ugrid.count} points")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidParameterError(f"{path}: row {bad[0] + 2}: non-finite value")
    _write(path, "u,re,im", ugrid, values)


def read_spectrum_csv(path) -> tuple[UniformGrid, ComplexArray]:
    """Grid and values only; the angle is not part of the file format."""
    axis, values = _parse(path, "u,re,im")
    return _infer_grid(axis, path), values
