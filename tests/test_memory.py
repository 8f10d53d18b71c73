"""Memory gates: what the fast transforms, the CSV readers and the commands
hold at their peak, traced with tracemalloc at N = 2^16, and what the
identity suite's reuse scope holds at N = 1024.

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

from smfrft import SuiteConfig, UniformGrid, gen_chirp, io_csv, make_angle, run_suite
from smfrft.cli import cli
from smfrft.transform import ismfrft_direct, ismfrft_fast, smfrft_direct, smfrft_fast

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


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_bluestein_drops_its_lag_chirp(traced_peak, signal, direction):
    # off the FFT-bin lattice: the chirped input beside the 2N-point FFT of
    # the lag chirp, which linear_convolve was handed and dropped once it
    # was transformed, and the input's 2N-point buffer: 5.0 (7.0 with the
    # lag chirp held through the convolution)
    if direction == "forward":
        ugrid = UniformGrid(-10.0, 20.0 / N, N)
        call = lambda: smfrft_direct(signal, ugrid, ANGLE)
    else:
        spectrum = smfrft_fast(signal, ANGLE)
        tgrid = UniformGrid(-32.0, 60.0 / N, N)
        call = lambda: ismfrft_direct(spectrum, tgrid)
    assert traced_peak(call) < 6 * ARRAY


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
    # chirped input beside the 2N-point FFT of the lag chirp, which was
    # handed over to linear_convolve and dropped once transformed, and the
    # input's 2N-point buffer (transform 6.0 (11.5), invert 6.0 (10.5);
    # 8.0 with the lag chirp held through the convolution). On the lattice
    # (the inverse onto the reciprocal step) it is the fast inverse's
    # chain: 5.9
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


def test_suite_peaks_at_one_angle_and_pair(traced_peak):
    # the verify workload's run: its reuse scope holds, for one (angle,
    # pair), 8 spectra on u grids, 12 chirped operand spectra of 2N, 8
    # shifted or modulated operands and the kept left sides, 52 arrays of
    # N = 1024, over the chirps, carriers, plans and phases that live for
    # the run and the corpus: 77.5 (43.2 with no operand spectra shared,
    # 298 with every (angle, pair) held to the end of the run)
    cfg = SuiteConfig(n=1024, angles=(0.8, math.pi / 2))
    run_suite(cfg)   # numpy's one-time set-up
    assert traced_peak(lambda: run_suite(cfg)) < 88 * 16 * cfg.n
