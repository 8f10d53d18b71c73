import errno
import os
import tempfile

import numpy as np
import pytest

from smfrft import (
    InvalidGridError,
    InvalidParameterError,
    ShapeMismatchError,
    gen_chirp,
    gen_gaussian,
    make_grid,
)
from smfrft import io_csv
from smfrft.io_csv import (
    read_signal_csv,
    read_spectrum_csv,
    write_signal_csv,
    write_spectrum_csv,
)
from smfrft.transform import fast_ugrid


def test_signal_round_trip(tmp_path):
    grid = make_grid(-16.0, 0.015625, 2048)
    x = gen_chirp(grid, 3.0, 1.5)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, x)
    back = read_signal_csv(path)
    assert back.grid == grid
    np.testing.assert_array_equal(back.samples, x.samples)


def test_signal_write_read_write_is_byte_stable(tmp_path):
    grid = make_grid(-16.0, 0.015625, 2048)
    x = gen_gaussian(grid, 0.3, 1.1, 2.0)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_signal_csv(first, x)
    write_signal_csv(second, read_signal_csv(first))
    assert first.read_bytes() == second.read_bytes()


def test_spectrum_round_trip(tmp_path):
    ugrid = make_grid(-64.0, 0.0625, 2048)
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
    ugrid = fast_ugrid(make_grid(-(count // 2) * dt, dt, count))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, ugrid, np.ones(count))
    grid_back, _ = read_spectrum_csv(path)
    assert grid_back == ugrid


@pytest.mark.parametrize("count", [3, 5])
def test_spectrum_values_must_match_grid(tmp_path, count):
    path = tmp_path / "spec.csv"
    with pytest.raises(ShapeMismatchError, match=f"{count} values .* 4 points"):
        write_spectrum_csv(path, make_grid(0.0, 1.0, 4), np.ones(count))
    assert not path.exists()


def test_header_is_canonical(tmp_path):
    grid = make_grid(0.0, 0.5, 4)
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
    assert back.grid == make_grid(0.0, 1.0, 2)
    np.testing.assert_array_equal(back.samples, read_signal_csv(plain).samples)


def test_blank_line_between_rows_is_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n\n1.0,1.0,0.0\n2.0,1.0,0.0\n")
    with pytest.raises(InvalidParameterError, match="row 3: expected 3 columns"):
        read_signal_csv(path)


def test_crlf_file_parses_like_lf(tmp_path):
    grid = make_grid(-2.0, 0.25, 16)
    lf = tmp_path / "lf.csv"
    crlf = tmp_path / "crlf.csv"
    write_signal_csv(lf, gen_gaussian(grid, 0.1, 0.7, 1.5))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = read_signal_csv(crlf)
    assert back.grid == grid
    assert back.samples.tobytes() == read_signal_csv(lf).samples.tobytes()


def _long_file(tmp_path, edits: dict):
    """A 10,000-row signal file (file rows 2..10001) with the data lines of
    the given file rows replaced; the reader parses it in several blocks."""
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


# split I/O: process hygiene and the partial-file rule

SPLIT_ROWS = 3 * io_csv._BLOCK_ROWS + 1


def split_signal():
    grid = make_grid(-8.0, 16.0 / SPLIT_ROWS, SPLIT_ROWS)
    return gen_chirp(grid, 1.5, 2.0)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def full_disk_from(row: int):
    """A ``_write_rows`` that writes the rows before ``row`` and then fails
    as a full disk does, in every process."""
    real = io_csv._write_rows

    def write_rows(handle, columns, part):
        if part.stop <= row:
            return real(handle, columns, part)
        real(handle, columns, range(part.start, max(part.start, row)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    return write_rows


@pytest.mark.parametrize("workers", [2, 3])
def test_split_leaves_no_process_or_file(tmp_path, monkeypatch, workers):
    spills = tmp_path / "spills"
    spills.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    monkeypatch.setattr(io_csv, "_workers", lambda rows: workers)
    pid = os.getpid()
    x = split_signal()
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_signal_csv(good, x)
    np.testing.assert_array_equal(read_signal_csv(good).samples, x.samples)
    for row in (3, SPLIT_ROWS):  # in the caller's part, the last worker's
        lines = good.read_text().splitlines()
        lines[row - 1] = "1.0,2.0"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match=f"row {row}:"):
            read_signal_csv(bad)
    monkeypatch.setattr(io_csv, "_write_rows", full_disk_from(SPLIT_ROWS - 5))
    with pytest.raises(OSError):
        write_signal_csv(tmp_path / "full.csv", x)
    assert os.getpid() == pid
    assert_no_children()
    assert list(spills.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.csv", "good.csv", "spills"]


@pytest.mark.parametrize("workers,row", [
    (1, io_csv._BLOCK_ROWS + 5),   # one process, after a block hit the disk
    (2, 5),                        # in the caller's part
    (2, SPLIT_ROWS - 5),           # in the worker's part
    (3, SPLIT_ROWS // 2),          # in the middle worker's part
])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, workers, row):
    # the rows before the failure end on a row boundary: left behind, they
    # would read back as a valid, shorter signal
    monkeypatch.setattr(io_csv, "_workers", lambda rows: workers)
    monkeypatch.setattr(io_csv, "_write_rows", full_disk_from(row))
    path = tmp_path / "out.csv"
    path.write_text("an earlier file\n")
    with pytest.raises(OSError) as err:
        write_signal_csv(path, split_signal())
    assert err.value.errno == errno.ENOSPC
    assert not path.exists()
    assert_no_children()


def test_failed_write_keeps_a_symlinked_output(tmp_path, monkeypatch):
    # the output name may be a link such as /dev/stdout: only a regular
    # file is removed
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("")
    link.symlink_to(target)
    monkeypatch.setattr(io_csv, "_write_rows", full_disk_from(5))
    with pytest.raises(OSError):
        write_signal_csv(link, split_signal())
    assert link.is_symlink() and target.exists()


def _fail_in_workers(monkeypatch, name):
    parent, real = os.getpid(), getattr(io_csv, name)

    def only_here(*args):
        if os.getpid() != parent:
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(io_csv, name, only_here)


def _no_process():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("failure", ["worker dies", "fork fails"])
def test_caller_does_a_failed_workers_part(tmp_path, monkeypatch, failure):
    """A worker that dies for a reason of its own, or that could not be
    forked: the caller does its part, with the same bytes and doubles."""
    x = split_signal()
    expected = tmp_path / "expected.csv"
    write_signal_csv(expected, x)
    monkeypatch.setattr(io_csv, "_workers", lambda rows: 3)
    if failure == "fork fails":
        monkeypatch.setattr(os, "fork", _no_process)
    else:
        _fail_in_workers(monkeypatch, "_write_rows")
        _fail_in_workers(monkeypatch, "_parse_block")
    path = tmp_path / "out.csv"
    write_signal_csv(path, x)
    assert path.read_bytes() == expected.read_bytes()
    back = read_signal_csv(path)
    assert back.samples.tobytes() == x.samples.tobytes()
    assert_no_children()
