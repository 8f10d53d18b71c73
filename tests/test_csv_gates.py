"""Blocked CSV I/O against the row-by-row reference, byte for byte.

``csv_reference`` keeps the per-row formatter and parser that
``smfrft.io_csv`` replaced. On random grids and random doubles the files
must be byte-identical, the parsed doubles bitwise equal, and any error
the same message naming the same row. Lengths cross the block size, so
every property is exercised across block boundaries. The split tests
force 2 and 3 parts, so they also cross part boundaries and run the
forked workers.
"""

import math
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfrft import InvalidParameterError, SampledSignal, UniformGrid
from smfrft import io_csv
from smfrft.io_csv import read_signal_csv, write_signal_csv, write_spectrum_csv

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


@given(n=lengths, seed=seeds,
       start=st.floats(-1e6, 1e6), step=st.floats(1e-9, 1e3))
@settings(max_examples=25, deadline=None)
def test_bytes_and_doubles_match_reference(tmp_path_factory, n, seed, start, step):
    tmp = tmp_path_factory.mktemp("csv")
    grid = UniformGrid(start, step, n)
    values = random_values(np.random.default_rng(seed), n)
    ours, ref = tmp / "ours.csv", tmp / "ref.csv"
    write_spectrum_csv(ours, grid, values)
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
           "{:E}".format, " {!r} ".format, "{:+}".format]
CORRUPTIONS = ["garbage", "inf", "-nan", "1e999", "", "1.0.0", "0x1p3", "1_5"]


@given(n=lengths, seed=seeds, data=st.data())
@settings(max_examples=25, deadline=None)
def test_outcome_matches_reference_on_hand_written_files(tmp_path_factory, n,
                                                         seed, data):
    """Files not written by the package: mixed number formats, then a few
    rows corrupted. Both readers accept with bitwise-equal doubles, or
    both refuse with the same message."""
    rng = np.random.default_rng(seed)
    cells = np.column_stack([np.arange(n) * 0.5, random_doubles(rng, n),
                             random_doubles(rng, n)])
    fmt = [FORMATS[k] for k in rng.integers(0, len(FORMATS), cells.size)]
    tokens = [f(float(v)) for f, v in zip(fmt, cells.reshape(-1).tolist())]
    lines = [",".join(tokens[3 * k:3 * k + 3]) for k in range(n)]
    for _ in range(data.draw(st.integers(0, 3))):
        row = data.draw(st.integers(0, n - 2))
        kind = data.draw(st.sampled_from(["token", "drop", "extra", "blank"]))
        if kind == "token":
            parts = lines[row].split(",")
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(
                st.sampled_from(CORRUPTIONS))
            lines[row] = ",".join(parts)
        elif kind == "drop":
            lines[row] = lines[row].rsplit(",", 1)[0]
        elif kind == "extra":
            lines[row] += ",0.0"
        else:
            lines[row] = ""
    path = tmp_path_factory.mktemp("csv") / "hand.csv"
    path.write_text("t,re,im\n" + "\n".join(lines) + "\n")
    try:
        expected = csv_reference.parse(path, "t,re,im")
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as err:
            io_csv._parse(path, "t,re,im")
        assert str(err.value) == str(exc)
        return
    axis, values = io_csv._parse(path, "t,re,im")
    assert_bitwise_equal(axis, expected[0])
    assert_bitwise_equal(values, expected[1])


BAD_ROWS = ["", "1.0,2.0", "1.0,2.0,3.0,4.0", "0.5,nan,1.0", "x,1.0,2.0"]
split_lengths = st.one_of(st.integers(3, 40),
                          st.integers(BLOCK - 3, 3 * BLOCK + 3))


@contextmanager
def forced_split(workers: int):
    """Split every file into ``workers`` parts, whatever its length and
    the number of CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io_csv, "_workers", lambda rows: workers)
        yield


@pytest.mark.parametrize("workers", [2, 3])
@given(n=split_lengths, seed=seeds, start=st.floats(-1e6, 1e6),
       step=st.floats(1e-9, 1e3))
@settings(max_examples=15, deadline=None)
def test_split_bytes_and_doubles_match_reference(tmp_path_factory, workers, n,
                                                 seed, start, step):
    tmp = tmp_path_factory.mktemp("csv")
    grid = UniformGrid(start, step, n)
    values = random_values(np.random.default_rng(seed), n)
    ours, ref = tmp / "ours.csv", tmp / "ref.csv"
    with forced_split(workers):
        write_spectrum_csv(ours, grid, values)
        axis, parsed = io_csv._parse(ours, "u,re,im")
    csv_reference.write(ref, "u,re,im", grid.points(), values)
    assert ours.read_bytes() == ref.read_bytes()
    ref_axis, ref_parsed = csv_reference.parse(ours, "u,re,im")
    assert_bitwise_equal(axis, ref_axis)
    assert_bitwise_equal(parsed, ref_parsed)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("where", ["parent", "child", "both"])
@given(n=split_lengths, data=st.data())
@settings(max_examples=10, deadline=None)
def test_split_error_matches_reference(tmp_path_factory, workers, where, n,
                                       data):
    """A bad row in the caller's part (part 0), in a worker's part, or in
    both: the same message, naming the same row, as the row-by-row reader
    and as one process."""
    lines = [f"{k * 0.5!r},{k!r},{-k!r}" for k in range(n)]
    child = data.draw(st.integers(1, workers - 1))
    parts = {"parent": [0], "child": [child], "both": [0, child]}[where]
    for part in parts:
        row = data.draw(st.integers(n * part // workers,
                                    n * (part + 1) // workers - 1))
        # a blank last row is a trailing blank line, which is not an error
        lines[row] = data.draw(st.sampled_from(
            BAD_ROWS[1:] if row == n - 1 else BAD_ROWS))
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_text("t,re,im\n" + "\n".join(lines) + "\n")
    with pytest.raises(InvalidParameterError) as expected:
        csv_reference.parse(path, "t,re,im")
    with pytest.raises(InvalidParameterError) as single:
        with forced_split(1):
            io_csv._parse(path, "t,re,im")
    with pytest.raises(InvalidParameterError) as split:
        with forced_split(workers):
            io_csv._parse(path, "t,re,im")
    assert str(split.value) == str(single.value) == str(expected.value)


def test_no_fork_means_one_part(tmp_path, monkeypatch):
    n = 2 * io_csv._MIN_PART_ROWS + 5
    grid = UniformGrid(-1.0, 2.0 / n, n)
    values = random_values(np.random.default_rng(7), n)
    monkeypatch.delattr(os, "fork")
    assert io_csv._workers(n) == 1
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_spectrum_csv(ours, grid, values)
    csv_reference.write(ref, "u,re,im", grid.points(), values)
    assert ours.read_bytes() == ref.read_bytes()
    axis, parsed = io_csv._parse(ours, "u,re,im")
    assert_bitwise_equal(parsed, values)
