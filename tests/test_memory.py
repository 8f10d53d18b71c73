"""Memory gates: what the fast transforms, the CSV readers and the commands
hold at their peak, traced with tracemalloc at N = 2^16.

numpy reports its array buffers to tracemalloc, so a traced peak counts
every array that a call holds at once; pocketfft's plans and work buffers
are not counted. Bounds are in complex arrays of N values (1 MiB here).
Each lies between what the code holds and what it held when every array
lived to the end of its function (in parentheses below), so both the
parts and the whole are gated.
"""

import math

import pytest
from click.testing import CliRunner

from smfrft import UniformGrid, gen_chirp, io_csv, make_angle
from smfrft.cli import cli
from smfrft.transform import ismfrft_fast, smfrft_fast

N = 2**16
ARRAY = 16 * N  # bytes of one complex array
TABLE = 24 * N  # bytes of the (rows, 3) float table a reader parses
RATE = 1.3
ANGLE = make_angle(math.atan(1.0 / RATE))


@pytest.fixture(scope="module")
def signal():
    return gen_chirp(UniformGrid(-32.0, 64.0 / N, N), RATE, 3.0)


@pytest.fixture(scope="module")
def files(signal, tmp_path_factory):
    """The signal's and its spectrum's CSV files."""
    root = tmp_path_factory.mktemp("memory")
    spectrum = smfrft_fast(signal, ANGLE)
    paths = {"signal": root / "x.csv", "spectrum": root / "s.csv"}
    io_csv.write_signal_csv(paths["signal"], signal)
    io_csv.write_spectrum_csv(paths["spectrum"], spectrum.ugrid, spectrum.values)
    return paths


def test_smfrft_fast_holds_three_arrays(traced_peak, signal):
    # the time chirp's grid, argument and value while it is built: 2.5 (4.6)
    assert traced_peak(lambda: smfrft_fast(signal, ANGLE)) < 4 * ARRAY


def test_ismfrft_fast_holds_two_arrays_and_the_chirp(traced_peak, signal):
    spectrum = smfrft_fast(signal, ANGLE)
    # the rolled sums beside the post-chirp, which every call builds: 3.5 (6.5)
    assert traced_peak(lambda: ismfrft_fast(spectrum)) < 5 * ARRAY


@pytest.mark.parametrize("kind, read", [("signal", io_csv.read_signal_csv),
                                        ("spectrum", io_csv.read_spectrum_csv)])
def test_reader_holds_the_file_then_the_table(traced_peak, files, kind, read):
    # the file's bytes are dropped before the columns are copied out of
    # the table: file + 1.9 (file + 3.0)
    path = files[kind]
    assert traced_peak(lambda: read(path)) < path.stat().st_size + TABLE + ARRAY


@pytest.mark.parametrize("command, source, options", [
    ("transform", "signal", []),
    ("filter", "signal", ["--passband=-4.0:4.0"]),
    ("invert", "spectrum", ["--start=-32.0"]),
])
def test_command_peaks_at_its_read(traced_peak, files, tmp_path, command, source,
                                   options):
    # each array dies when its stage ends, so no later stage outgrows the
    # read: file + 1.9 for each (transform 4.9, filter 8.5, invert 5.4)
    path = files[source]
    args = [command, "--input", str(path), "--output", str(tmp_path / "out.csv"),
            f"--angle={ANGLE.phi!r}", *options]
    results = []
    peak = traced_peak(lambda: results.append(CliRunner().invoke(cli, args)))
    assert results[0].exit_code == 0, results[0].output
    assert peak < path.stat().st_size + TABLE + ARRAY


@pytest.mark.parametrize("command, source, options, arrays", [
    ("transform", "signal", [f"--ugrid=-10.0:{20.0 / N!r}:{N}"], 10.5),
    ("invert", "spectrum", ["--start=-32.0", f"--step={64.0 / N!r}", f"--count={N}"],
     6.5),
    ("invert", "spectrum", ["--start=-32.0", f"--step={60.0 / N!r}", f"--count={N}"],
     8.5),
])
def test_quadrature_command_peaks_at_its_plan(traced_peak, files, tmp_path,
                                              command, source, options, arrays):
    # the quadrature onto N points peaks in its chirp-z, over the read's
    # peak. Off the FFT-bin lattice that is Bluestein's convolution: the
    # chirped input and its 2N-point lag chirp beside linear_convolve's
    # 2N-point buffer and the lag chirp's FFT (transform 8.0 (11.5),
    # invert 8.0 (10.5)). On the lattice (the inverse onto the reciprocal
    # step) it is the fast inverse's chain: 5.9
    args = [command, "--input", str(files[source]),
            "--output", str(tmp_path / "out.csv"), f"--angle={ANGLE.phi!r}", *options]
    results = []
    peak = traced_peak(lambda: results.append(CliRunner().invoke(cli, args)))
    assert results[0].exit_code == 0, results[0].output
    assert peak < arrays * ARRAY


def test_generate_peaks_below_a_read(traced_peak, tmp_path):
    # a write with no read: the generator's samples, then the axis and one
    # block's formatter temporaries, file + 0.3, under the bound that a
    # read of the same file meets, so that no formatter outgrows a
    # command's read
    out = tmp_path / "x.csv"
    args = ["generate", "--kind", "chirp", f"--rate={RATE!r}", "--width=3.0",
            "--start=-32.0", f"--step={64.0 / N!r}", f"--count={N}",
            "--output", str(out)]
    results = []
    peak = traced_peak(lambda: results.append(CliRunner().invoke(cli, args)))
    assert results[0].exit_code == 0, results[0].output
    assert peak < out.stat().st_size + TABLE + ARRAY
