"""CSV I/O against the row-by-row reference, byte for byte.

``csv_reference`` keeps the per-row formatter and parser that
``smfrft.io_csv`` must match: its block-wise writer, numpy's parser and
its own row-by-row pass. On random grids and random doubles the files
must be byte-identical, the parsed doubles bitwise equal, and any error
the same message naming the same row. A drawn grid whose axis would not
read back must instead be refused by the writer, with no file left.
Lengths cross the writer's block size, so every property is exercised
across block boundaries. The formatter is also checked against ``repr``
itself on the doubles where shortest round-trip digits are hardest to
get right.
"""

import decimal
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfrft import (InvalidGridError, InvalidParameterError, SampledSignal,
                    UniformGrid)
from smfrft import io_csv
from smfrft.io_csv import read_signal_csv, write_signal_csv, write_spectrum_csv
from smfrft.transform import fast_ugrid

import csv_reference

BLOCK = io_csv._BLOCK_ROWS

# where shortest-repr formatting changes shape: signed zeros, subnormals,
# the switch to exponent notation below 1e-4 and at 1e16, extremes
SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
    2.2250738585072014e-308, np.nextafter(1e-4, 0.0), 1e-4,
    np.nextafter(1e-4, 1.0), -np.nextafter(1e-4, 0.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf), -1e16,
    1e-300, -1e-320, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0,
])

lengths = st.one_of(st.integers(2, 40), st.integers(BLOCK - 3, 2 * BLOCK + 3))
seeds = st.integers(0, 2**32 - 1)


def random_doubles(rng, n: int) -> np.ndarray:
    """Finite doubles: a third arbitrary bit patterns, a third log-uniform
    magnitudes from 1e-320 to 1e300, a third drawn from SPECIAL."""
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    bits[~np.isfinite(bits)] = 0.0
    spread = np.copysign(10.0 ** rng.uniform(-320.0, 300.0, n),
                         rng.standard_normal(n))
    special = rng.choice(SPECIAL, n)
    pick = rng.integers(0, 3, n)
    return np.choose(pick, [bits, spread, special])


def random_values(rng, n: int) -> np.ndarray:
    values = np.empty(n, dtype=np.complex128)
    values.real = random_doubles(rng, n)
    values.imag = random_doubles(rng, n)
    return values


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def refused_unreadable(path, grid: UniformGrid, values) -> bool:
    """Write ``values`` on ``grid`` to ``path``; True when the grid's axis
    would not read back, after checking that the writer refused it with
    the same error and left no file."""
    try:
        io_csv.check_grid_readable(path, grid)
    except InvalidGridError as exc:
        with pytest.raises(InvalidGridError) as err:
            write_spectrum_csv(path, grid, values)
        assert str(err.value) == str(exc)
        assert not path.exists()
        return True
    write_spectrum_csv(path, grid, values)
    return False


@given(n=lengths, seed=seeds,
       start=st.floats(-1e6, 1e6), step=st.floats(1e-9, 1e3))
@settings(max_examples=25, deadline=None)
def test_bytes_and_doubles_match_reference(tmp_path_factory, n, seed, start, step):
    tmp = tmp_path_factory.mktemp("csv")
    grid = UniformGrid(start, step, n)
    values = random_values(np.random.default_rng(seed), n)
    ours, ref = tmp / "ours.csv", tmp / "ref.csv"
    if refused_unreadable(ours, grid, values):
        return
    csv_reference.write(ref, "u,re,im", grid.points(), values)
    assert ours.read_bytes() == ref.read_bytes()
    axis, parsed = io_csv._parse(ours, "u,re,im")
    ref_axis, ref_parsed = csv_reference.parse(ours, "u,re,im")
    assert_bitwise_equal(axis, ref_axis)
    assert_bitwise_equal(parsed, ref_parsed)
    assert_bitwise_equal(parsed, values)


@given(n=lengths, seed=seeds, origin=st.integers(-2**20, 2**20),
       exponent=st.integers(-12, 4))
@settings(max_examples=20, deadline=None)
def test_write_read_write_is_byte_stable(tmp_path_factory, n, seed, origin,
                                         exponent):
    # dyadic start and step, as every default grid: the inferred grid is
    # then exactly the written one
    tmp = tmp_path_factory.mktemp("csv")
    step = math.ldexp(1.0, exponent)
    signal = SampledSignal(UniformGrid(origin * step, step, n),
                           random_values(np.random.default_rng(seed), n))
    first, second = tmp / "a.csv", tmp / "b.csv"
    write_signal_csv(first, signal)
    back = read_signal_csv(first)
    assert back.grid == signal.grid
    write_signal_csv(second, back)
    assert first.read_bytes() == second.read_bytes()


FORMATS = [repr, "{:.17g}".format, "{:.6e}".format, "{:.3f}".format,
           "{:E}".format, " {!r} ".format, "{:+}".format, "\t{!r}".format]
CORRUPTIONS = ["garbage", "inf", "-nan", "1e999", "", "1.0.0", "0x1p3", "1_5",
               '"1.0"', "#1", "1#", "1.0\x00", "\x00", "\x1f1.0"]
# line ends: the ones splitlines knows, and pairs that make it see an
# empty line where numpy's parser sees whitespace
BREAKS = ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\v\n", "\f\n",
          "\x1c\n", "\r\r\n", "\n\r", " \n", "\t\n"]
INSERTS = ["\x00", "\t", " ", '"', "#", "\v", "\x1f", "_"]
BLANKS = ["", " ", "\t", " \t "]


def parse_quietly(path):
    """``io_csv._parse`` of a signal file; fails if any warning is raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return io_csv._parse(path, "t,re,im")
        finally:
            assert [str(w.message) for w in caught] == []


@given(n=lengths, seed=seeds, data=st.data())
@settings(max_examples=40, deadline=None)
def test_outcome_matches_reference_on_hand_written_files(tmp_path_factory, n,
                                                         seed, data):
    """Files not written by the package: mixed number formats, then a few
    rows corrupted or given other line ends. Both readers accept with
    bitwise-equal doubles, or both refuse with the same message; no
    warning escapes."""
    rng = np.random.default_rng(seed)
    cells = np.column_stack([np.arange(n) * 0.5, random_doubles(rng, n),
                             random_doubles(rng, n)])
    fmt = [FORMATS[k] for k in rng.integers(0, len(FORMATS), cells.size)]
    tokens = [f(float(v)) for f, v in zip(fmt, cells.reshape(-1).tolist())]
    lines = [",".join(tokens[3 * k:3 * k + 3]) for k in range(n)]
    ends = ["\n"] * n
    for _ in range(data.draw(st.integers(0, 3))):
        row = data.draw(st.integers(0, n - 2))
        kind = data.draw(st.sampled_from(
            ["token", "drop", "extra", "blank", "break", "insert"]))
        if kind == "token":
            parts = lines[row].split(",")
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(
                st.sampled_from(CORRUPTIONS))
            lines[row] = ",".join(parts)
        elif kind == "drop":
            lines[row] = lines[row].rsplit(",", 1)[0]
        elif kind == "extra":
            lines[row] += ",0.0"
        elif kind == "blank":
            lines[row] = data.draw(st.sampled_from(BLANKS))
        elif kind == "break":
            ends[row] = data.draw(st.sampled_from(BREAKS))
        else:
            at = data.draw(st.integers(0, len(lines[row])))
            lines[row] = (lines[row][:at] + data.draw(st.sampled_from(INSERTS))
                          + lines[row][at:])
    path = tmp_path_factory.mktemp("csv") / "hand.csv"
    path.write_bytes(("t,re,im\n" + "".join(map(str.__add__, lines, ends)))
                     .encode("ascii"))
    try:
        expected = csv_reference.parse(path, "t,re,im")
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as err:
            parse_quietly(path)
        assert str(err.value) == str(exc)
        return
    axis, values = parse_quietly(path)
    assert_bitwise_equal(axis, expected[0])
    assert_bitwise_equal(values, expected[1])


@pytest.mark.parametrize("text, outcome", [
    ("", "empty file"),
    ("\n", "expected header 't,re,im', got ''"),
    ("t,re,im", 0),
    ("t,re,im\n\n\n", 0),  # numpy's loadtxt warns on a file without rows
    ("t,re,im\r\n\r\n", 0),
    ("t,re,im\n \n", "row 2: expected 3 columns"),
    ("t,re,im\n\x00\n", "row 2: expected 3 columns"),
    ("t,re,im\n1,2,3\n\n4,5,6\n", "row 3: expected 3 columns"),
    ("t,re,im\n1,2,3\n\t\n4,5,6\n", "row 3: expected 3 columns"),
    ("t,re,im\x1f\n1,2,3\n", 1),  # str.strip takes \x1f as whitespace
    ("t,re,im\v1,2,3\n", 1),
    ("t,re,im\r1,2,3\r\r", 1),
])
def test_short_files(tmp_path, text, outcome):
    path = tmp_path / "short.csv"
    path.write_bytes(text.encode("ascii"))
    if isinstance(outcome, str):
        with pytest.raises(InvalidParameterError) as err:
            parse_quietly(path)
        assert str(err.value) == f"{path}: {outcome}"
    else:
        axis, values = parse_quietly(path)
        assert axis.shape == values.shape == (outcome,)


def test_no_fork_means_one_part(tmp_path, monkeypatch):
    """On a platform without ``os.fork`` a file of several blocks is written
    and read as everywhere else: in one part, by the calling process."""
    n = 4 * BLOCK + 5
    grid = UniformGrid(-1.0, 2.0 / n, n)
    values = random_values(np.random.default_rng(7), n)
    monkeypatch.delattr(os, "fork")
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_spectrum_csv(ours, grid, values)
    csv_reference.write(ref, "u,re,im", grid.points(), values)
    assert ours.read_bytes() == ref.read_bytes()
    axis, parsed = io_csv._parse(ours, "u,re,im")
    assert_bitwise_equal(parsed, values)


# the block split: files of 2 and 3 blocks of BLOCK rows, the last block
# short or full, through numpy's parser and through the row-by-row pass

BAD_ROWS = ["", "1.0,2.0", "1.0,2.0,3.0,4.0", "0.5,nan,1.0", "x,1.0,2.0"]


def row_pass_table(path, header: str):
    """The row-by-row pass's ``(axis, values)`` for ``path``."""
    table = io_csv._parse_lines(path, path.read_text(), header)
    values = np.ascontiguousarray(table[:, 1:]).view(np.complex128)
    return table[:, 0].copy(), values.reshape(-1)


@pytest.mark.parametrize("blocks", [2, 3])
@given(extra=st.integers(1, BLOCK), seed=seeds, start=st.floats(-1e6, 1e6),
       step=st.floats(1e-9, 1e3))
@settings(max_examples=15, deadline=None)
def test_split_bytes_and_doubles_match_reference(tmp_path_factory, blocks,
                                                 extra, seed, start, step):
    n = (blocks - 1) * BLOCK + extra
    tmp = tmp_path_factory.mktemp("csv")
    grid = UniformGrid(start, step, n)
    values = random_values(np.random.default_rng(seed), n)
    ours, ref = tmp / "ours.csv", tmp / "ref.csv"
    if refused_unreadable(ours, grid, values):
        return
    csv_reference.write(ref, "u,re,im", grid.points(), values)
    assert ours.read_bytes() == ref.read_bytes()
    ref_axis, ref_parsed = csv_reference.parse(ours, "u,re,im")
    for axis, parsed in (io_csv._parse(ours, "u,re,im"),
                         row_pass_table(ours, "u,re,im")):
        assert_bitwise_equal(axis, ref_axis)
        assert_bitwise_equal(parsed, ref_parsed)


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.parametrize("where", ["parent", "child", "both"])
@given(extra=st.integers(1, BLOCK), data=st.data())
@settings(max_examples=10, deadline=None)
def test_split_error_matches_reference(tmp_path_factory, blocks, where, extra,
                                       data):
    """A bad row in the first block ("parent"), in a later one ("child"), or
    in both: the same message, naming the same row, as the row-by-row
    reader."""
    n = (blocks - 1) * BLOCK + extra
    lines = [f"{k * 0.5!r},{k!r},{-k!r}" for k in range(n)]
    child = data.draw(st.integers(1, blocks - 1))
    for block in {"parent": [0], "child": [child], "both": [0, child]}[where]:
        row = data.draw(st.integers(block * BLOCK,
                                    min(n, (block + 1) * BLOCK) - 1))
        # a blank last row is a trailing blank line, which is not an error
        lines[row] = data.draw(st.sampled_from(
            BAD_ROWS[1:] if row == n - 1 else BAD_ROWS))
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_text("t,re,im\n" + "\n".join(lines) + "\n")
    with pytest.raises(InvalidParameterError) as expected:
        csv_reference.parse(path, "t,re,im")
    with pytest.raises(InvalidParameterError) as ours:
        parse_quietly(path)
    assert str(ours.value) == str(expected.value)


# the formatter against repr: the families where shortest digits are hard

def powers_of_two():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([twos, np.nextafter(twos, 0.0),
                           np.nextafter(twos, np.inf), -twos])


def powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0),
                           np.nextafter(tens, np.inf), -tens])


FAMILIES = {
    "bit patterns": lambda: random_doubles(np.random.default_rng(11), 60_000),
    "powers of two": powers_of_two,
    "subnormals": lambda: np.arange(1, 200_001, dtype=np.uint64).view(np.float64),
    "powers of ten": powers_of_ten,
    "dyadic grid": lambda: np.arange(-2**16, 2**16) * 2.0**-11,
    "fft-bin grid": lambda: fast_ugrid(
        UniformGrid(-32.0, 64.0 / 2**16, 2**16)).points(),
    "ties": lambda: np.array([2.0**50 + 0.25, 2.0**50 + 0.75, -(2.0**51 + 0.5),
                              2.0**53 + 2.0, 0.0, -0.0, 5e-324, 1e16, 1e-4,
                              0.1, 0.5, 9007199254740993.0]),
}


def repr_reference(x: np.ndarray) -> bytes:
    cells = x.reshape(-1, 3).tolist()
    return "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in cells).encode()


@pytest.mark.parametrize("family", FAMILIES)
def test_formatter_matches_repr(tmp_path, family):
    x = FAMILIES[family]()
    x = x[:x.size // 3 * 3]
    assert io_csv._repr_rows(x.reshape(-1, 3)) == repr_reference(x)
    # through the writer: the same values at lengths that cross blocks
    values = x[0::2][:x.size // 2] + 1j * x[1::2][:x.size // 2]
    grid = UniformGrid(0.0, 1.0, values.size)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_spectrum_csv(ours, grid, values)
    csv_reference.write(ref, "u,re,im", grid.points(), values)
    assert ours.read_bytes() == ref.read_bytes()


# the formatter against repr, one double for each layout repr prints: the
# sign, then fixed notation with its decimal point p (x = 0.d1d2...dn *
# 10^p, -3 <= p <= 16) or exponent notation with the exponent's sign and
# width, and the number n of significant digits

FORMS = [("fixed", p) for p in range(-3, 17)] + [
    ("exponent", sign, width) for sign in "+-" for width in (2, 3)]
# the decimal point that gives each exponent form, e+20, e+200, e-21, e-201
EXPONENT_POINT = {("+", 2): 21, ("+", 3): 201, ("-", 2): -20, ("-", 3): -200}
CORNERS = [1000000000000000.0, 1e16, 5e-324, -0.0, 0.0, -1e-100, 1e-300,
           -2.2250738585072014e-308, 1.7976931348623157e308, 1e-05, 0.0001,
           -5e-324]


def layout(text: str):
    """(negative, form, n) of a number as ``repr`` prints it."""
    sign, digits, exponent = decimal.Decimal(text).normalize().as_tuple()
    point = exponent + len(digits)
    if "e" in text:
        power = text.partition("e")[2]
        return bool(sign), ("exponent", power[0], len(power) - 1), len(digits)
    return bool(sign), ("fixed", point), len(digits)


def with_layout(negative: bool, form, n: int) -> float:
    """A double that ``repr`` prints in this layout: the n digits
    1234567891... at the form's decimal point, or the first double above
    them that keeps n shortest digits."""
    point = form[1] if form[0] == "fixed" else EXPONENT_POINT[form[1:]]
    x = float(f"{'-' if negative else ''}0.{'12345678912345678'[:n]}e{point}")
    for _ in range(100):
        if layout(repr(x)) == (negative, form, n):
            return x
        x = math.nextafter(x, math.inf)
    raise AssertionError(f"no double found for {negative, form, n}")


def test_every_layout_matches_repr():
    layouts = [(negative, form, n) for negative in (False, True)
               for form in FORMS for n in range(1, 18)]
    x = np.array([with_layout(*key) for key in layouts] + CORNERS)
    assert {layout(repr(v)) for v in x.tolist()} >= set(layouts)
    assert len(layouts) == 816 and x.size % 3 == 0
    assert io_csv._repr_rows(x.reshape(-1, 3)) == repr_reference(x)
    # each double in each of the three columns
    for shift in (1, 2):
        rolled = np.roll(x, shift)
        assert io_csv._repr_rows(rolled.reshape(-1, 3)) == repr_reference(rolled)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=3, max_size=90))
@settings(max_examples=200, deadline=None)
def test_formatter_matches_repr_on_drawn_doubles(values):
    x = np.array(values[:len(values) // 3 * 3])
    assert io_csv._repr_rows(x.reshape(-1, 3)) == repr_reference(x)


@pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 4, 3 * 4096 + 2])
def test_formatter_refuses_non_finite(bad, at):
    x = np.ones(3 * 4096 + 3)
    x[at] = bad
    with pytest.raises(ValueError, match="non-finite"):
        io_csv._repr_rows(x.reshape(-1, 3))
