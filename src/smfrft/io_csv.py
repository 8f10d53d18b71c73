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
``_BLOCK_ROWS`` rows with ``_repr_rows``, a numpy formatter. Giulietti's
Schubfach ("The Schubfach way to render doubles", 2020) gives each
double's shortest digits from a 126-bit table entry: three 128-bit
products scale the value, and the ends of its rounding interval follow
from that product by shifts of the entry (the exact products only where
the shortcut could round differently). A field's layout, fixed by its
sign, decimal point, digit count and exponent form, is one of 816 rows
of a pattern table; one gather through that row, from the field's 17
digits, 4 exponent digits and the constant characters, followed by one
compaction, gives the bytes ``repr`` prints. A 2^17-row write takes
~0.12-0.19 s in-process on 2 CPUs, 36% of it in Schubfach. A write that
raises removes the output file (when it is a regular file): a partial
file ends on a row boundary and would read back as a valid, shorter
signal.

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
A write holds its axis and one block's temporaries (~2.3 MB), so at 2^17
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
from .grid import ComplexArray, SampledSignal, UniformGrid, _Fresh

_UNIFORMITY_RTOL = 1e-9
# the formatter's temporaries take ~1.2 KB a row (traced), ~2.3 MB a
# block: from 2^16 rows on, a write then holds less than a read of its
# file. A 2^17-row write is as fast with blocks of 1024 to 4096 rows and
# takes ~1.5x as long with 512 or 8192 (medians of 11 interleaved); with
# 16384-row blocks the filter command's peak RSS at 2^17 rows was 70.0
# MB, against 52.9 MB with 4096-row ones
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
# a derived end of the rounding interval whose fraction lies this close to
# an integer, in units of 2^-63, takes the exact product instead
_NEAR = _U(64)

# A field's source row: 7 little-endian uint32 words. Word 0 is "-.e" and
# the first digit d1, words 1-4 the digits d2-d17, word 5 the exponent as 4
# digits, word 6 "+" and the separator. Byte columns:
_MINUS, _DOT, _E, _D1, _ZERO, _HUNDREDS, _PLUS, _SEP = 0, 1, 2, 3, 20, 21, 24, 25
_SOURCE = 28
_FIELD = 25  # widest field, "-d.dddddddddddddddde-308", plus its separator
_DASH_DOT_E = 0x30_65_2E_2D  # word 0 with d1 = 0
_PLUS_SEP, _PLUS_NEWLINE = 0x2C_2B, 0x0A_2B  # word 6: "+," and "+\n"
_GROUP_OFFSET = np.arange(0, 40_000, 10_000, dtype=np.uint32)[:, None]  # into `last`


def _mulhi(a, b):
    """High 64 bits of the 128-bit products ``a * b`` of uint64 arrays,
    each given as its 32-bit halves ``(low, high)``."""
    (a0, a1), (b0, b1) = a, b
    cross0, cross1 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> _U(32)) + (cross1 >> _U(32)) + (mid >> _U(32))


@functools.cache
def _g_table() -> np.ndarray:
    """Pairs (g1, g0) over k: g = g1 * 2^63 + g0 = floor(10^-k * 2^(125 - r))
    + 1 with r = floor(log2 10^-k), so that 2^125 < g < 2^126."""
    rows = []
    for k in range(_K_MIN, 293):
        shift = 125 - ((-k * 913_124_641_741) >> 38)
        if k > 0:
            g = (1 << shift) // 10**k + 1
        else:
            g = (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
        rows.append((g >> 63, g & (2**63 - 1)))
    return np.array(rows, dtype=np.uint64).T


@functools.cache
def _exponent_table() -> np.ndarray:
    """Schubfach's per-exponent quantities, as rows over the key ``biased
    exponent + 2048 * irregular`` (irregular: a power of two above the
    smallest normal, whose neighbour below is closer): k; the shift h + 2
    that turns x's significand c into the centre's operand 4c << h; g1 and
    the 32-bit halves of g1 and g0; then, for the lower and the upper end
    of the rounding interval, whose operands differ from the centre's by
    2^s, the integer part and the 63-bit fraction of g * 2^s / 2^127."""
    biased = np.arange(4096) % 2048
    irregular = np.arange(4096) >= 2048
    q = np.maximum(biased, 1) - 1075  # |x| = c * 2^q
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)  # 2..5
    g1, g0 = np.take(_g_table(), k - _K_MIN, axis=1)
    rows = [k.astype(np.uint64), h + _U(2), g1,
            g1 & _LOW32, g1 >> _U(32), g0 & _LOW32, g0 >> _U(32)]
    # the lower end's operand is (4c - 2) << h, or (4c - 1) << h below a
    # power of two, the upper end's (4c + 2) << h
    for s in (h + _U(1) - irregular, h + _U(1)):
        rows += [g1 >> (_U(64) - s),
                 ((g1 << (s - _U(1))) & _LOW63) | (g0 >> (_U(64) - s))]
    return np.stack(rows)


def _scaled(g, cp):
    """cp * g / 2^127 for g given as rows g1, and g1's and g0's 32-bit
    halves: its integer part and its fraction in units of 2^-63, from
    three 64 x 64-bit products with the low half of g0 * cp and the
    lowest bit of g1 * cp dropped, as Schubfach's rounding to odd allows."""
    halves = cp & _LOW32, cp >> _U(32)
    z = ((g[0] * cp) >> _U(1)) + _mulhi(g[3:5], halves)
    return _mulhi(g[1:3], halves) + (z >> _U(63)), z & _LOW63


def _round_to_odd(g, cp):
    """cp * g / 2^127 rounded to odd: the integer part, with the lowest bit
    set when any fraction was dropped."""
    whole, fraction = _scaled(g, cp)
    return whole | (fraction != 0)


def _near_integer(fraction):
    return ((fraction + _NEAR) & _LOW63) < _NEAR << _U(1)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with |x| = f * 10^e read back exactly: the fewest digits, and
    of those the decimal closest to x (even f on a tie), as ``repr``.
    Zero gives (0, 0). Raises ValueError for a non-finite x."""
    bits = x.view(np.uint64)
    mantissa = bits & _U(2**52 - 1)
    biased = (bits >> _U(52)) & _U(0x7FF)
    if (biased == _U(0x7FF)).any():
        raise ValueError("cannot format a non-finite value")
    c = mantissa | (np.minimum(biased, _U(1)) << _U(52))  # |x| = c * 2^q
    irregular = (mantissa == 0) & (biased > _U(1))
    row = np.take(_exponent_table(), biased + (irregular << _U(11)), axis=1)
    k = row[0].view(np.int64)
    # 4|x| 10^-k, scaled: its integer part and its fraction
    cp = c << row[1]
    vb, fraction = _scaled(row[2:7], cp)
    # The ends of its rounding interval scale to the centre's value -+ the
    # table's step g * 2^s / 2^127. A derived fraction is off by less than
    # 3 units of 2^-63: where it lies 64 units or more from an integer, the
    # end's floor is the derived one and a fraction was dropped; elsewhere
    # the end takes its exact product
    vbl = (vb - row[7] - (fraction < row[8])) | _U(1)
    upper = fraction + row[10]
    vbr = (vb + row[9] + (upper >> _U(63))) | _U(1)
    vb |= fraction != 0
    lanes = np.flatnonzero(_near_integer(fraction - row[8]) | _near_integer(upper))
    if lanes.size:
        g, cp = row[2:7, lanes], cp[lanes]
        step = _U(1) << (row[1, lanes] - _U(1))
        vbl[lanes] = _round_to_odd(g, cp - (step >> irregular[lanes]))
        vbr[lanes] = _round_to_odd(g, cp + step)
    # an odd c cannot take the interval's ends
    low, high = vbl + (c & _U(1)), vbr - (c & _U(1))
    s = vb >> _U(2)
    four_s = vb & ~_U(3)
    u_in = low <= four_s
    w_in = four_s + _U(4) <= high
    # s + 1 when it alone is in the interval, or when both are and it is
    # closer (on a tie, when s is odd)
    above = (vb & _U(3)) + (s & _U(1)) > _U(2)
    f = s + np.where(u_in != w_in, w_in, above)
    # one digit fewer, if a multiple of 10 lies in the interval (it is
    # narrower than 10, so it holds at most one)
    s10 = s // _U(10) * _U(10)
    up_in = low <= s10 << _U(2)
    wp_in = (s10 << _U(2)) + _U(40) <= high
    f = np.where((s >= _U(10)) & (up_in != wp_in), s10 + _U(10) * wp_in, f)
    zero = c == 0
    f[zero] = 0
    return f, np.where(zero, 0, k)


@functools.cache
def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pattern table, its mask and the two digit tables.

    A field's layout is fixed by its sign, its decimal point p (x =
    0.d1d2...dn * 10^p), its n significant digits and, in exponent form
    (p <= -3 or p > 16, as ``repr``), the exponent's sign and width.
    Pattern ``408 * negative + 17 * form + n - 1`` lists the source
    columns of its bytes, with form p + 3 for p in -3..16 and 20 + 2 *
    (exponent < 0) + (|exponent| >= 100) in exponent form; the mask marks
    the field's length. The digit tables give, for 0 <= v < 10^4, v's 4
    ASCII digits as one uint32, and the place n of the last nonzero digit
    of the number when v is group i of its digits d2..d17 and the groups
    after it are 0 (at ``10^4 * i + v``)."""
    form, n = np.divmod(np.arange(408, dtype=np.int16), np.int16(17))
    n += 1
    sci = form >= 20
    p = np.where(sci, 1, form - 3)  # 1 in exponent form: d1.d2...dn
    int_len = np.maximum(p, 1)
    frac_len = np.where(sci, n - 1, np.maximum(n - p, 1))
    exp_at = int_len + (frac_len > 0) + frac_len
    end = exp_at + np.where(sci, 4 + form % 2, 0)  # the separator's byte
    # digit d of the number at byte k, counted from 1; '0' outside d1..d17
    k = np.arange(_FIELD, dtype=np.int16)
    d = k + (p - int_len + 1)[:, None] - (k > int_len[:, None])
    positive = np.where((d < 1) | (d > 17), _ZERO, _D1 - 1 + d)
    rows = np.arange(408)
    positive[rows[frac_len > 0], int_len[frac_len > 0]] = _DOT
    positive[rows, end] = _SEP
    rows = rows[sci]
    for back in (1, 2, 3):  # ones, tens and hundreds, then the sign
        positive[rows, end[rows] - back] = _HUNDREDS + 3 - back
    positive[rows, exp_at[rows]] = _E
    positive[rows, exp_at[rows] + 1] = np.where(form[rows] >= 22, _MINUS, _PLUS)
    pattern = np.empty((816, _FIELD), dtype=np.intp)
    pattern[:408] = positive
    pattern[408:, 0] = _MINUS
    pattern[408:, 1:] = positive[:, :-1]
    mask = k <= np.concatenate((end, end + 1))[:, None]
    digit = np.arange(10, dtype=np.uint32)
    quads = ord("0") * 0x01010101 + np.add.outer(
        np.add.outer(digit, digit << 8), np.add.outer(digit << 16, digit << 24))
    places = [np.minimum(digit, 1).astype(np.uint8) * i for i in range(1, 5)]
    place = np.maximum.outer(np.maximum.outer(places[0], places[1]),
                             np.maximum.outer(places[2], places[3]))
    last = np.add.outer(np.arange(1, 17, 4, dtype=np.uint8), place.reshape(-1))
    last[:, 0] = 1
    return pattern, mask, quads.reshape(-1), last.reshape(-1)


def _repr_rows(cells: np.ndarray) -> bytes:
    """The rows ``repr(a),repr(b),repr(c)\\n`` of a ``(rows, 3)`` float64
    array, as ASCII bytes. Raises ValueError for a non-finite value."""
    x = np.ascontiguousarray(cells, dtype=np.float64).reshape(-1)
    m = x.shape[0]
    f, e = _shortest(x)
    pattern, mask, quads, last = _layout_tables()
    nd = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)  # digits of f
    # f's 17 digits: d1, then d2..d17 in four groups of 4
    f17 = f * _POW10[17 - nd]
    high = f17 // _U(10**8)
    halves = np.stack((high, f17 - high * _U(10**8))).astype(np.uint32)
    d1 = halves[0] // np.uint32(10**8)
    halves[0] -= d1 * np.uint32(10**8)
    top = halves // np.uint32(10**4)
    groups = np.stack((top, halves - top * np.uint32(10**4)), axis=1).reshape(4, m)
    decpt = e + nd  # x = 0.d1d2...dn * 10^decpt
    exponent = np.abs(decpt - 1)
    source = np.empty((m, _SOURCE // 4), dtype=np.uint32)
    source[:, 0] = _DASH_DOT_E + (d1 << np.uint32(24))
    source[:, 1:5] = np.take(quads, groups).T
    source[:, 5] = np.take(quads, exponent)
    source[:, 6] = _PLUS_SEP
    source[2::3, 6] = _PLUS_NEWLINE
    n = np.take(last, groups + _GROUP_OFFSET).max(axis=0)  # significant digits
    sci = (decpt <= -4) | (decpt > 16)
    form = np.where(sci, 20 + 2 * (decpt < 1) + (exponent >= 100), decpt + 3)
    pid = form * 17 + n - 1 + 408 * (x.view(np.uint64) >> _U(63)).astype(np.intp)
    # each field's bytes: its pattern's source columns in its source row
    index = np.take(pattern, pid, axis=0)
    index += np.arange(0, m * _SOURCE, _SOURCE)[:, None]
    field = np.take(source.view(np.uint8).reshape(-1), index)
    return field[np.take(mask, pid, axis=0)].tobytes()


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
    return SampledSignal(_infer_grid(axis, path), _Fresh(values))


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
