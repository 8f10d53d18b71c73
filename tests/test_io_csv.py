import errno
import os
import tempfile

import numpy as np
import pytest

from smfrft import (
    InvalidGridError,
    InvalidParameterError,
    ShapeMismatchError,
    UniformGrid,
    gen_chirp,
    gen_gaussian,
)
from smfrft import io_csv
from smfrft.io_csv import (
    read_signal_csv,
    read_spectrum_csv,
    write_signal_csv,
    write_spectrum_csv,
)
from smfrft.transform import fast_ugrid

import csv_reference


def test_signal_round_trip(tmp_path):
    grid = UniformGrid(-16.0, 0.015625, 2048)
    x = gen_chirp(grid, 3.0, 1.5)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, x)
    back = read_signal_csv(path)
    assert back.grid == grid
    np.testing.assert_array_equal(back.samples, x.samples)


def test_signal_write_read_write_is_byte_stable(tmp_path):
    grid = UniformGrid(-16.0, 0.015625, 2048)
    x = gen_gaussian(grid, 0.3, 1.1, 2.0)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_signal_csv(first, x)
    write_signal_csv(second, read_signal_csv(first))
    assert first.read_bytes() == second.read_bytes()


def test_spectrum_round_trip(tmp_path):
    ugrid = UniformGrid(-64.0, 0.0625, 2048)
    values = np.exp(-np.linspace(-3, 3, 2048) ** 2) * (1 + 1j)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, ugrid, values)
    grid_back, values_back = read_spectrum_csv(path)
    assert grid_back == ugrid
    np.testing.assert_array_equal(values_back, values)


@pytest.mark.parametrize("count", [256, 4096])
@pytest.mark.parametrize("dt", [0.01, 0.3, 1 / 64])
def test_fft_bin_grid_reads_back_exactly(tmp_path, count, dt):
    # du = 2*pi/(N*dt) is not dyadic: the median of the written axis's
    # differences misses it by up to ~1e-13, the endpoints do not
    ugrid = fast_ugrid(UniformGrid(-(count // 2) * dt, dt, count))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, ugrid, np.ones(count))
    grid_back, _ = read_spectrum_csv(path)
    assert grid_back == ugrid


@pytest.mark.parametrize("count", [3, 5])
def test_spectrum_values_must_match_grid(tmp_path, count):
    path = tmp_path / "spec.csv"
    with pytest.raises(ShapeMismatchError, match=f"{count} values .* 4 points"):
        write_spectrum_csv(path, UniformGrid(0.0, 1.0, 4), np.ones(count))
    assert not path.exists()


def test_header_is_canonical(tmp_path):
    grid = UniformGrid(0.0, 0.5, 4)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, gen_gaussian(grid, 0.0, 1.0, 0.0))
    assert path.read_text().splitlines()[0] == "t,re,im"


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n")
    with pytest.raises(InvalidParameterError, match="header"):
        read_signal_csv(path)


def test_non_ascii_file_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,re,im\n0.0,\xff,0.0\n")
    with pytest.raises(InvalidParameterError, match=f"{path}: not ASCII text"):
        read_signal_csv(path)


def test_bad_row_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,garbage,0.0\n")
    with pytest.raises(InvalidParameterError, match="row 3"):
        read_signal_csv(path)


def test_missing_column_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,1.0\n")
    with pytest.raises(InvalidParameterError, match="row 3"):
        read_signal_csv(path)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,inf,0.0\n")
    with pytest.raises(InvalidParameterError, match="row 3"):
        read_signal_csv(path)


def test_non_uniform_axis_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["t,re,im"] + [f"{t},1.0,0.0" for t in (0.0, 1.0, 2.0, 3.5)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InvalidGridError, match="uniform"):
        read_signal_csv(path)


def test_single_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n")
    with pytest.raises(InvalidGridError):
        read_signal_csv(path)


def test_trailing_blank_lines_ignored(tmp_path):
    rows = "t,re,im\n0.0,1.0,0.0\n1.0,2.0,0.5\n"
    plain = tmp_path / "plain.csv"
    padded = tmp_path / "padded.csv"
    plain.write_text(rows)
    padded.write_text(rows + "\n\n")
    back = read_signal_csv(padded)
    assert back.grid == UniformGrid(0.0, 1.0, 2)
    np.testing.assert_array_equal(back.samples, read_signal_csv(plain).samples)


def test_blank_line_between_rows_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n\n1.0,1.0,0.0\n2.0,1.0,0.0\n")
    with pytest.raises(InvalidParameterError, match="row 3: expected 3 columns"):
        read_signal_csv(path)


def test_crlf_file_parses_like_lf(tmp_path):
    grid = UniformGrid(-2.0, 0.25, 16)
    lf = tmp_path / "lf.csv"
    crlf = tmp_path / "crlf.csv"
    write_signal_csv(lf, gen_gaussian(grid, 0.1, 0.7, 1.5))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = read_signal_csv(crlf)
    assert back.grid == grid
    assert back.samples.tobytes() == read_signal_csv(lf).samples.tobytes()


def test_written_files_skip_the_block_parser(tmp_path, monkeypatch):
    # the row-by-row pass is the slow path, for files numpy's parser could
    # read differently; what the package writes (LF or CRLF) never needs it
    def row_pass(*args):
        raise AssertionError("row-by-row pass used")

    grid = UniformGrid(-2.0, 0.25, 5000)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_signal_csv(lf, gen_chirp(grid, 1.5, 2.0))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
    monkeypatch.setattr(io_csv, "_parse_lines", row_pass)
    assert read_signal_csv(lf).grid == read_signal_csv(crlf).grid == grid


def _long_file(tmp_path, edits: dict):
    """A 10,000-row signal file (file rows 2..10001) with the data lines of
    the given file rows replaced, so that an error lies far into the file."""
    lines = ["t,re,im"] + [f"{k * 0.5!r},{k % 7.0!r},-1.0" for k in range(10_000)]
    for row, line in edits.items():
        lines[row - 1] = line
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("edits, message", [
    ({9000: "4498.5,garbage,-1.0"},
     "row 9000: could not convert string to float: 'garbage'"),
    ({9000: "4498.5,1.0"}, "row 9000: expected 3 columns"),
    # the columns balance over two rows; the first still has two
    ({9000: "4498.5,1.0", 9001: "4499.0,1.0,-1.0,3.0"},
     "row 9000: expected 3 columns"),
    ({9000: "4498.5,inf,-1.0"}, "row 9000: non-finite value"),
    ({3: "0.5,inf,-1.0", 5: "1.5,garbage,-1.0"}, "row 3: non-finite value"),
])
def test_error_names_row_in_later_block(tmp_path, edits, message):
    path = _long_file(tmp_path, edits)
    with pytest.raises(InvalidParameterError) as err:
        read_signal_csv(path)
    assert str(err.value) == f"{path}: {message}"


# a failed write and the partial-file rule

FAIL_ROWS = 3 * io_csv._BLOCK_ROWS + 1


def long_signal():
    grid = UniformGrid(-8.0, 16.0 / FAIL_ROWS, FAIL_ROWS)
    return gen_chirp(grid, 1.5, 2.0)


def full_disk_from(row: int):
    """A ``_repr_rows`` for which the disk fills at file row ``row`` (the
    header is row 1): the block that holds it raises as a full disk does."""
    real, written = io_csv._repr_rows, [1]

    def repr_rows(cells):
        written[0] += len(cells)
        if written[0] >= row:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(cells)

    return repr_rows


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("blocks", [2, 3])
def test_split_leaves_no_process_or_file(tmp_path, monkeypatch, blocks):
    # a file split into blocks is written and read by this process alone,
    # with no temporary file, whether the reads and writes pass or fail
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    pid = os.getpid()
    n = (blocks - 1) * io_csv._BLOCK_ROWS + 100
    x = gen_chirp(UniformGrid(-8.0, 16.0 / n, n), 1.5, 2.0)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_signal_csv(good, x)
    np.testing.assert_array_equal(read_signal_csv(good).samples, x.samples)
    for row in (3, n + 1):  # in the first block, in the last
        lines = good.read_text().splitlines()
        lines[row - 1] = "1.0,2.0"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=f"row {row}:"):
            read_signal_csv(bad)
    monkeypatch.setattr(io_csv, "_repr_rows", full_disk_from(n - 5))
    with pytest.raises(OSError):
        write_signal_csv(tmp_path / "full.csv", x)
    assert os.getpid() == pid
    assert_no_children()
    assert list(temp.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.csv", "good.csv", "temp"]


@pytest.mark.parametrize("row", [
    5,                            # in the first block
    io_csv._BLOCK_ROWS + 5,       # after a block hit the disk
    6144,
    3 * io_csv._BLOCK_ROWS - 4,   # after two blocks
])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, row):
    # the rows before the failure end on a row boundary: left behind, they
    # would read back as a valid, shorter signal
    monkeypatch.setattr(io_csv, "_repr_rows", full_disk_from(row))
    path = tmp_path / "out.csv"
    path.write_text("an earlier file\n")
    with pytest.raises(OSError) as err:
        write_signal_csv(path, long_signal())
    assert err.value.errno == errno.ENOSPC
    assert not path.exists()


def test_failed_write_keeps_a_symlinked_output(tmp_path, monkeypatch):
    # the output name may be a link such as /dev/stdout: only a regular
    # file is removed
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("")
    link.symlink_to(target)
    monkeypatch.setattr(io_csv, "_repr_rows", full_disk_from(5))
    with pytest.raises(OSError):
        write_signal_csv(link, long_signal())
    assert link.is_symlink() and target.exists()


@pytest.mark.parametrize("start, step, count, reason", [
    # the step vanishes in rounding: every point is 1e17
    (1e17, 1.0, 4, "axis must be strictly increasing"),
    # the points round to steps of 16 and 0 alternately
    (1e17, 8.0, 8, "axis not uniform"),
])
def test_grid_that_cannot_read_back_is_named(tmp_path, start, step, count,
                                             reason):
    grid = UniformGrid(start, step, count)
    path = tmp_path / "sig.csv"
    with pytest.raises(InvalidGridError) as err:
        io_csv.check_grid_readable(path, grid)
    message = str(err.value)
    assert message.startswith(f"{path}: grid start={start!r}, step={step!r}, "
                              f"count={count} does not read back: ")
    assert reason in message
    # the file it names is one the reader refuses for the same reason
    x = gen_gaussian(grid, 0.0, 1.0, 0.0)
    csv_reference.write(path, "t,re,im", grid.points(), x.samples)
    with pytest.raises(InvalidGridError, match=reason):
        read_signal_csv(path)
    # so the writer refuses the grid with the same error, and writes nothing
    path.unlink()
    with pytest.raises(InvalidGridError) as err:
        write_signal_csv(path, x)
    assert str(err.value) == message
    assert not path.exists()


def test_overflowing_grid_is_refused_before_writing(tmp_path):
    # the last point overflows a double: refused as a grid, not met as a
    # non-finite value in the middle of the write
    grid = UniformGrid(1.7e308, 1e307, 4)
    path = tmp_path / "spec.csv"
    with pytest.raises(InvalidGridError, match="last point overflows"):
        write_spectrum_csv(path, grid, np.ones(4, dtype=np.complex128))
    assert not path.exists()


def test_readable_grids_pass_the_check(tmp_path):
    for grid in (UniformGrid(-16.0, 0.015625, 2048),
                 fast_ugrid(UniformGrid(-16.0, 0.015625, 2048)),
                 UniformGrid(1e15, 1.0, 4)):
        io_csv.check_grid_readable(tmp_path / "x.csv", grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_non_finite_spectrum_value_is_refused(tmp_path, bad):
    values = np.ones(8, dtype=np.complex128)
    values[5] = bad
    path = tmp_path / "spec.csv"
    with pytest.raises(InvalidParameterError, match=f"{path}: row 7: non-finite"):
        write_spectrum_csv(path, UniformGrid(0.0, 1.0, 8), values)
    assert not path.exists()
