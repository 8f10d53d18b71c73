import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from smfrft import cli as cli_module, errors, io_csv, theorems
from smfrft.cli import cli
from smfrft.io_csv import read_signal_csv, read_spectrum_csv, write_signal_csv
from smfrft import (
    SampledSignal,
    Spectrum,
    SuiteConfig,
    UniformGrid,
    fast_ugrid,
    gen_chirp,
    ismfrft_direct,
    make_angle,
    reports_to_json,
    run_suite,
    smfrft_direct,
)

from dense_oracle import relative_l2_error


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)


SMALL = ["--start", "-16", "--step", str(32 / 256), "--count", "256"]


class TestGenerate:
    def test_default_gaussian(self, runner, tmp_path):
        out = tmp_path / "sig.csv"
        result = invoke(runner, "generate", "--output", out)
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2049
        row = [ln for ln in lines[1:] if ln.startswith("0.0,")]
        assert row == ["0.0,1.0,0.0"]

    def test_chirp_matches_generator(self, runner, tmp_path):
        out = tmp_path / "sig.csv"
        result = invoke(runner, "generate", "--kind", "chirp", "--rate", "1",
                        "--width", "1.5", *SMALL, "--output", out)
        assert result.exit_code == 0
        back = read_signal_csv(out)
        grid = UniformGrid(-16.0, 32 / 256, 256)
        np.testing.assert_array_equal(back.samples,
                                      gen_chirp(grid, 1.0, 1.5).samples)

    @pytest.mark.parametrize("kind, option", [
        ("chirp", "--center"), ("chirp", "--carrier"), ("gaussian", "--rate"),
    ])
    def test_option_the_kind_ignores_is_refused(self, runner, tmp_path,
                                                kind, option):
        # an option the signal kind does not use would change nothing
        out = tmp_path / "sig.csv"
        result = invoke(runner, "generate", "--kind", kind, option, "3",
                        *SMALL, "--output", out)
        assert result.exit_code == 2
        assert f"{option} does not apply to --kind {kind}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind, option", [
        ("gaussian", "--center"), ("gaussian", "--width"),
        ("gaussian", "--carrier"), ("chirp", "--rate"), ("chirp", "--width"),
    ])
    def test_non_finite_parameter_exits_two(self, runner, tmp_path, kind,
                                            option, value):
        # unchecked, an inf center or width writes an all-zero or constant
        # signal and exits 0
        out = tmp_path / "sig.csv"
        result = runner.invoke(cli, ["generate", "--kind", kind,
                                     f"{option}={value}", *SMALL,
                                     "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert option[2:] in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["chirp", "gaussian"])
    def test_overflowing_grid_exits_two(self, runner, tmp_path, kind):
        # refused before any sample arithmetic: no RuntimeWarning, and the
        # message names the grid, not the samples it would have made
        out = tmp_path / "sig.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(cli, ["generate", "--kind", kind, "--count", "64",
                                        "--step", "1e160", "--start", "0",
                                        "--output", str(out)])
        assert [str(w.message) for w in caught] == []
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: envelope exponent")
        assert "on UniformGrid(start=0.0, step=1e+160, count=64)" in result.stderr
        assert not out.exists()

    def test_zero_count_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["generate", "--count", "0", "--output",
                                     str(tmp_path / "x.csv")])
        assert result.exit_code == 2


class TestTransformInvert:
    def test_round_trip_files(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        spec = tmp_path / "spec.csv"
        back = tmp_path / "back.csv"
        invoke(runner, "generate", *SMALL, "--width", "1.0", "--output", sig)
        r = invoke(runner, "transform", "--input", sig, "--output", spec,
                   "--order", "1")
        assert r.exit_code == 0
        r = invoke(runner, "invert", "--input", spec, "--output", back,
                   "--order", "1")
        assert r.exit_code == 0
        original = read_signal_csv(sig)
        recovered = read_signal_csv(back)
        assert np.allclose(recovered.grid.points(), original.grid.points(),
                           rtol=1e-9)
        np.testing.assert_allclose(recovered.samples, original.samples,
                                   rtol=0, atol=1e-9)

    def test_degenerate_angle_is_usage_error(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        result = runner.invoke(cli, ["transform", "--input", str(sig),
                                     "--output", str(tmp_path / "s.csv"),
                                     "--angle", "0"])
        assert result.exit_code == 2
        assert "degenerate angle" in result.output

    def test_angle_and_order_are_exclusive(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        for extra in ([], ["--angle", "1", "--order", "0.5"]):
            result = runner.invoke(cli, ["transform", "--input", str(sig),
                                         "--output", str(tmp_path / "s.csv"),
                                         *extra])
            assert result.exit_code == 2

    def test_direct_method_matches_fast(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        fast = tmp_path / "fast.csv"
        direct = tmp_path / "direct.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        invoke(runner, "transform", "--input", sig, "--output", fast,
               "--angle", str(math.pi / 3))
        # --ugrid selects the quadrature; on the FFT-bin grid it is the
        # same finite sum as chirp + FFT
        ugrid = fast_ugrid(read_signal_csv(sig).grid)
        r = invoke(runner, "transform", "--input", sig, "--output", direct,
                   "--angle", str(math.pi / 3),
                   "--ugrid", f"{ugrid.start!r}:{ugrid.step!r}:{ugrid.count}")
        assert r.exit_code == 0
        direct_grid, direct_vals = read_spectrum_csv(direct)
        fast_grid, fast_vals = read_spectrum_csv(fast)
        assert direct_grid == fast_grid
        assert relative_l2_error(direct_vals, fast_vals) <= 1e-9

    def test_ugrid_selects_quadrature(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        spec = tmp_path / "s.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        r = invoke(runner, "transform", "--input", sig, "--output", spec,
                   "--order", "1", "--ugrid", "0:1:4")
        assert r.exit_code == 0, r.output
        ugrid, values = read_spectrum_csv(spec)
        assert ugrid == UniformGrid(0.0, 1.0, 4)
        expected = smfrft_direct(read_signal_csv(sig), ugrid,
                                 make_angle(math.pi / 2))
        np.testing.assert_array_equal(values, expected.values)

    def test_invert_step_count_selects_quadrature(self, runner, tmp_path):
        # the time grid the user asks for, not the spectrum's reciprocal one
        sig = tmp_path / "sig.csv"
        spec = tmp_path / "spec.csv"
        back = tmp_path / "back.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        invoke(runner, "transform", "--input", sig, "--output", spec,
               "--order", "0.5")
        r = invoke(runner, "invert", "--input", spec, "--output", back,
                   "--order", "0.5", "--step", "0.1", "--count", "100")
        assert r.exit_code == 0, r.output
        assert len(back.read_text().splitlines()) == 101
        recovered = read_signal_csv(back)
        tgrid = UniformGrid(-5.0, 0.1, 100)
        np.testing.assert_allclose(recovered.grid.points(), tgrid.points(),
                                   rtol=0, atol=1e-12)
        ugrid, values = read_spectrum_csv(spec)
        expected = ismfrft_direct(
            Spectrum(ugrid, values, make_angle(math.pi / 4)), tgrid)
        assert relative_l2_error(recovered.samples, expected.samples) <= 1e-12

    @pytest.mark.parametrize("extra", [["--step", "0.1"], ["--count", "100"]])
    def test_invert_step_or_count_alone_exits_two(self, runner, tmp_path,
                                                  extra):
        sig = tmp_path / "sig.csv"
        spec = tmp_path / "spec.csv"
        out = tmp_path / "back.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        invoke(runner, "transform", "--input", sig, "--output", spec,
               "--order", "0.5")
        result = runner.invoke(cli, ["invert", "--input", str(spec),
                                     "--output", str(out), "--order", "0.5",
                                     *extra])
        assert result.exit_code == 2, result.output
        assert "--step and --count" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("count", [1000, 1021])
    def test_pipeline_at_any_length(self, runner, tmp_path, count):
        # no power of two: generate -> transform -> filter -> invert
        sig = tmp_path / "sig.csv"
        spec = tmp_path / "spec.csv"
        filtered = tmp_path / "filtered.csv"
        back = tmp_path / "back.csv"
        for args in (
                ["generate", "--kind", "chirp", "--rate", "1", "--width", "2",
                 "--start", "-16", "--step", 32 / count, "--count", count,
                 "--output", sig],
                ["transform", "--input", sig, "--output", spec,
                 "--order", "0.5"],
                ["filter", "--input", sig, "--output", filtered,
                 "--order", "0.5", "--passband=-1e9:1e9"],
                ["invert", "--input", spec, "--output", back,
                 "--order", "0.5", "--start", "-16"]):
            result = invoke(runner, *args)
            assert result.exit_code == 0, (args[0], result.output)
        original = read_signal_csv(sig)
        for out in (back, filtered):
            recovered = read_signal_csv(out)
            assert recovered.grid.count == count
            assert np.max(np.abs(recovered.samples - original.samples)) <= 1e-12

    def test_parseval_goes_to_stderr(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        spec = tmp_path / "spec.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        result = runner.invoke(cli, ["transform", "--input", str(sig),
                                     "--output", str(spec), "--order", "1"])
        assert result.exit_code == 0
        assert "parseval" in result.stderr
        assert "parseval" not in result.stdout

    @pytest.mark.parametrize("command", ["transform", "invert", "filter"])
    def test_non_ascii_input_exits_two(self, runner, tmp_path, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "out.csv"
        extra = ["--passband", "-1:1"] if command == "filter" else []
        result = runner.invoke(cli, [command, "--input", str(bad),
                                     "--output", str(out), "--order", "1",
                                     *extra])
        assert result.exit_code == 2, result.output
        assert f"error: {bad}: not ASCII text" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["transform", "filter"])
    def test_overflowing_energy_exits_two(self, runner, tmp_path, command):
        # one sample of 1e308: dt*sum|x|^2 overflows, and the energy line
        # would print inf and nan
        signal = gen_chirp(UniformGrid(-8.0, 16 / 256, 256), 1.0, 1.0)
        samples = signal.samples.copy()
        samples[100] = 1e308
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, SampledSignal(signal.grid, samples))
        out = tmp_path / "out.csv"
        extra = ["--passband=-2:2"] if command == "filter" else []
        result = runner.invoke(cli, [command, "--input", str(sig),
                                     "--output", str(out), "--order", "0.5",
                                     *extra])
        assert result.exit_code == 2, result.output
        assert "error: energy" in result.stderr
        assert "overflows" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, options, grid, phase, spectrum_grid", [
        ("transform", ["--ugrid=-1e308:1e308:2"],
         "start=-1e+308, step=1e+308, count=2", "kernel phase u*t", None),
        # |u t| stays below 1e308, Bluestein's lags do not
        ("transform", ["--ugrid=-3e306:1e305:64"],
         "start=-3e+306, step=1e+305, count=64", "lag phase dt*du*l^2/2", None),
        # the time chirp passes at |t| near 1e10, u t does not
        ("invert", ["--start=1e10", "--step=1", "--count=4"],
         "start=10000000000.0, step=1.0, count=4", "kernel phase u*t",
         UniformGrid(0.0, 1e299, 64)),
    ], ids=["transform-ugrid", "transform-ugrid-lags", "invert-step-count"])
    def test_overflowing_chirp_z_phase_names_the_grid(
            self, runner, tmp_path, command, options, grid, phase, spectrum_grid):
        # a sum of unimodular terms whose phases overflow would be nan
        source = tmp_path / "in.csv"
        signal = gen_chirp(UniformGrid(-16.0, 0.5, 64), 1.0, 1.0)
        if spectrum_grid is None:
            write_signal_csv(source, signal)
        else:
            io_csv.write_spectrum_csv(source, spectrum_grid, signal.samples)
        out = tmp_path / "out.csv"
        result = runner.invoke(cli, [command, "--input", str(source),
                                     "--output", str(out), "--angle=0.7",
                                     *options])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(
            f"error: quadrature onto UniformGrid({grid}): its {phase} "
            "overflows a double")
        assert not out.exists()

    def test_inputs_never_mutated(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        before = sig.read_bytes()
        invoke(runner, "transform", "--input", sig,
               "--output", tmp_path / "s.csv", "--order", "1")
        assert sig.read_bytes() == before


class TestSplitIO:
    """The CLI's CSV I/O is split into blocks of ``io_csv._BLOCK_ROWS`` rows,
    all formatted and parsed in the calling process."""

    @staticmethod
    def run_pipeline(runner, tmp_path, monkeypatch, generate, invert):
        forks = []

        def fork():
            forks.append(True)
            raise AssertionError("forked")

        def row_pass(*args):
            raise AssertionError("row-by-row pass used")

        monkeypatch.setattr(os, "fork", fork)
        # what the package writes is read by numpy's parser alone: no
        # workload pays for the reader's row-by-row fallback
        monkeypatch.setattr(io_csv, "_parse_lines", row_pass)
        sig, spec = tmp_path / "sig.csv", tmp_path / "spec.csv"
        for args in (["generate", *generate, "--output", sig],
                     ["transform", "--input", sig, "--output", spec,
                      "--order", "0.5"],
                     ["filter", "--input", sig, "--output", tmp_path / "f.csv",
                      "--order", "0.5", "--passband=-2:2"],
                     ["invert", "--input", spec, "--output", tmp_path / "i.csv",
                      "--order", "0.5", *invert]):
            assert invoke(runner, *args).exit_code == 0
        assert forks == []
        return read_signal_csv(tmp_path / "i.csv").grid.count

    def test_default_pipeline_never_forks(self, runner, tmp_path,
                                          monkeypatch):
        assert self.run_pipeline(runner, tmp_path, monkeypatch, [], []) == 2048

    def test_pipeline_never_forks(self, runner, tmp_path, monkeypatch):
        # sixteen blocks a file
        n = 2**15
        generate = ["--kind", "chirp", "--start", "-32", "--step", 64 / n,
                    "--count", n]
        assert self.run_pipeline(runner, tmp_path, monkeypatch, generate,
                                 ["--start", "-32"]) == n

    def test_failed_write_exits_two_with_no_file(self, runner, tmp_path,
                                                 monkeypatch):
        # the first block is written, the second hits a full disk: the
        # first alone would read back as a shorter signal
        real, blocks = io_csv._repr_rows, []

        def full_disk(cells):
            blocks.append(len(cells))
            if len(blocks) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(cells)

        monkeypatch.setattr(io_csv, "_repr_rows", full_disk)
        out = tmp_path / "sig.csv"
        result = runner.invoke(cli, ["generate", "--count",
                                     str(3 * io_csv._BLOCK_ROWS), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert "No space left on device" in result.stderr
        assert blocks == [io_csv._BLOCK_ROWS] * 2
        assert not out.exists()


class TestUnreadableGrid:
    """A grid whose written axis its own reader would refuse: at 1e17 a
    step of 1 is lost in rounding, and every point is 1e17."""

    @pytest.mark.parametrize("args, grid, reason", [
        (["generate", "--start", "1e17", "--step", "1", "--count", "4"],
         "start=1e+17, step=1.0, count=4", "axis must be strictly increasing"),
        (["invert", "--input", "spec.csv", "--order", "0.5", "--start", "1e17",
          "--step", "1", "--count", "8"],
         "start=1e+17, step=1.0, count=8", "axis must be strictly increasing"),
        (["transform", "--input", "sig.csv", "--order", "0.5",
          "--ugrid", "1e17:1:8"],
         "start=1e+17, step=1.0, count=8", "axis must be strictly increasing"),
        # the fast inverse's step is 0.125 here: its points round unevenly
        (["invert", "--input", "spec.csv", "--order", "0.5", "--start", "1e17"],
         "start=1e+17, step=0.125, count=256",
         "row 66: axis not uniform within 1e-09 relative of the endpoint step"),
        (["generate", "--start", "1.7e308", "--step", "1e307", "--count", "4"],
         "start=1.7e+308, step=1e+307, count=4",
         "its last point overflows a double"),
    ], ids=["generate", "invert-step-count", "transform-ugrid", "invert",
            "generate-overflow"])
    def test_exits_two_naming_the_grid(self, runner, tmp_path, monkeypatch,
                                       args, grid, reason):
        monkeypatch.chdir(tmp_path)
        invoke(runner, "generate", *SMALL, "--output", "sig.csv")
        invoke(runner, "transform", "--input", "sig.csv", "--output", "spec.csv",
               "--order", "0.5")
        result = runner.invoke(cli, [*args, "--output", "out.csv"])
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: out.csv: grid {grid} does not read back: {reason}\n")
        assert not (tmp_path / "out.csv").exists()


class TestFilter:
    def test_all_pass_band_is_identity(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        out = tmp_path / "filtered.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        r = invoke(runner, "filter", "--input", sig, "--output", out,
                   "--order", "0.5", "--passband", "-1e9:1e9")
        assert r.exit_code == 0
        original = read_signal_csv(sig)
        filtered = read_signal_csv(out)
        assert relative_l2_error(filtered.samples, original.samples) <= 1e-10

    @pytest.mark.parametrize("band", ["1e6:2e6", "0.001:0.002"])
    def test_band_without_a_grid_point_exits_two(self, runner, tmp_path, band):
        # beyond the u grid, or between two of its points: the mask would
        # zero every bin and write an all-zero signal that looks filtered
        sig = tmp_path / "sig.csv"
        out = tmp_path / "filtered.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        result = runner.invoke(cli, ["filter", "--input", str(sig), "--output",
                                     str(out), "--order", "0.5", "--passband", band])
        assert result.exit_code == 2, result.output
        ugrid = fast_ugrid(UniformGrid(-16.0, 32 / 256, 256))
        assert (f"holds no point of the u grid: first u = {ugrid.start!r}, "
                f"last u = {ugrid.point(255)!r}, du = {ugrid.step!r}") in result.stderr
        assert not out.exists()

    def test_band_around_one_grid_point_is_kept(self, runner, tmp_path):
        # u = 0 is a point of the fast grid: one bin passes, so no refusal
        sig = tmp_path / "sig.csv"
        out = tmp_path / "filtered.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        r = invoke(runner, "filter", "--input", sig, "--output", out,
                   "--order", "0.5", "--passband", "-0.001:0.001")
        assert r.exit_code == 0
        assert np.any(read_signal_csv(out).samples != 0)

    def test_inverted_band_rejected(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        result = runner.invoke(cli, ["filter", "--input", str(sig),
                                     "--output", str(tmp_path / "f.csv"),
                                     "--order", "0.5", "--passband", "2:1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("band", ["nan:1", "0:nan", "-inf:1", "0:inf"])
    def test_non_finite_band_rejected(self, runner, tmp_path, band):
        sig = tmp_path / "sig.csv"
        out = tmp_path / "f.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        result = runner.invoke(cli, ["filter", "--input", str(sig),
                                     "--output", str(out), "--order", "0.5",
                                     "--passband", band])
        assert result.exit_code == 2, result.output
        assert "finite" in result.output
        assert not out.exists()

    def test_chirp_extraction_demo(self, runner, tmp_path):
        # chirp matched to cot(phi) compacts near u = 0; an interfering
        # tone sweeps far outside the narrow passband and is rejected
        angle = math.pi / 4
        grid = UniformGrid(-16.0, 32 / 1024, 1024)
        cot = 1.0 / math.tan(angle)
        clean = gen_chirp(grid, cot, 2.0)
        t = grid.points()
        tone = np.exp(1j * 40.0 * t)
        noisy = SampledSignal(grid, clean.samples + tone)
        noisy_path = tmp_path / "noisy.csv"
        out = tmp_path / "recovered.csv"
        write_signal_csv(noisy_path, noisy)
        r = invoke(runner, "filter", "--input", noisy_path, "--output", out,
                   "--angle", str(angle), "--passband", "-2:2")
        assert r.exit_code == 0
        recovered = read_signal_csv(out)
        assert relative_l2_error(recovered.samples, clean.samples) <= 0.05


def kept_energy(stderr: str) -> float:
    line = next(ln for ln in stderr.splitlines() if ln.startswith("energy kept:"))
    return float(line.rsplit("=", 1)[1])


class TestFilterEnergy:
    # a chirp of rate r is matched at phi = arccot(r): its spectrum there is
    # ~exp(-(u*w)^2/2), so -4:4 holds all of it and 20:30 none of it
    RATE = 1.3

    def run(self, runner, tmp_path, passband):
        sig = tmp_path / "sig.csv"
        out = tmp_path / "filtered.csv"
        invoke(runner, "generate", "--kind", "chirp", "--rate", self.RATE,
               "--width", "2.5", "--start", "-32", "--step", 1 / 32,
               "--count", "2048", "--output", sig)
        result = runner.invoke(cli, ["filter", "--input", str(sig),
                                     "--output", str(out),
                                     "--angle", repr(math.atan(1 / self.RATE)),
                                     "--passband", passband])
        assert result.exit_code == 0
        return result

    def test_matched_passband_keeps_energy(self, runner, tmp_path):
        result = self.run(runner, tmp_path, "-4:4")
        assert "energy kept" not in result.stdout
        assert abs(kept_energy(result.stderr) - 1.0) <= 1e-9

    def test_stopband_keeps_no_energy(self, runner, tmp_path):
        result = self.run(runner, tmp_path, "20:30")
        assert kept_energy(result.stderr) <= 1e-12


class TestVerify:
    CFG = {
        "n": 256,
        "angles": [math.pi / 4, math.pi / 2],
        "pair_indices": [0],
        "identities": ["CONV", "PROD", "CORR_SHIFT_L"],
    }

    def test_small_run_passes(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        report = tmp_path / "report.json"
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--output", str(report)])
        assert result.exit_code == 0, result.output
        rows = json.loads(report.read_text())
        assert {r["identity"] for r in rows} == {"CONV", "PROD",
                                                 "CORR_SHIFT_L"}
        assert all(r["pass"] for r in rows)
        assert "identity" in result.output
        # the adjudicated pi/2 shifted-correlation record is called out
        assert "derived form holds" in result.output

    def test_zero_tolerance_exits_one(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "identities": ["CONV"]}))
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--tolerance", "0",
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("tolerance, verdict, headroom", [
        (None, "ok", None), ("0", "FAIL", "inf")])
    def test_headroom_column(self, runner, tmp_path, tolerance, verdict,
                             headroom):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "identities": ["CONV"]}))
        report = tmp_path / "r.json"
        args = ["verify", "--config", str(cfg), "--output", str(report)]
        result = runner.invoke(cli, args + (["--tolerance", tolerance]
                                            if tolerance else []))
        lines = result.output.splitlines()
        assert lines[0].split() == ["identity", "phi", "d", "q", "residual",
                                    "headroom", "pass"]
        rows = json.loads(report.read_text())
        assert len(rows) == 2
        for row, line in zip(rows, lines[1:3]):
            fields = line.split()
            residual = min(row["residual_paper_form"],
                           row["residual_derived_form"])
            expected = headroom or f"{residual / row['tolerance']:.2e}"
            assert fields[5:] == [expected, verdict]

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the residual norms are numpy's pairwise sums, not BLAS dot
        # products, whose rounding moves with OpenBLAS's thread count
        src = str(Path(cli_module.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            report = tmp_path / f"report_{threads}.json"
            result = subprocess.run(
                [sys.executable, "-m", "smfrft.cli", "verify", "--count", "16384",
                 "--identities", "CONV,CORR,PROD", "--output", str(report)],
                env=env, capture_output=True, check=False)
            assert result.returncode == 0, result.stderr
            outputs.append((report.read_bytes(), result.stdout))
        assert outputs[0] == outputs[1]

    def test_identities_flag_filters(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, "identities": None} | {
            "n": 256, "angles": [math.pi / 4], "pair_indices": [0],
            "identities": ["CONV", "PROD", "CORR"]}))
        report = tmp_path / "report.json"
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--identities", "CONV,PROD",
                                     "--output", str(report)])
        assert result.exit_code == 0
        rows = json.loads(report.read_text())
        assert {r["identity"] for r in rows} == {"CONV", "PROD"}

    def test_malformed_config_exits_two(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(cli, ["verify", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_unknown_config_key_exits_two(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        result = runner.invoke(cli, ["verify", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_zero_floor_is_an_unknown_key(self, runner, tmp_path):
        # the absolute tolerance is a constant, not a config field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zero_floor": 1e-14}))
        result = runner.invoke(cli, ["verify", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "unknown keys ['zero_floor']" in result.stderr

    @pytest.mark.parametrize("bad", [{"pair_indices": [5]}, {"n": "abc"},
                                     {"pair_indices": [0, 0]},
                                     {"pair_indices": []}, {"angles": []},
                                     {"identities": []}, {"d_values": []},
                                     {"q_values": []}])
    def test_invalid_config_value_exits_two(self, runner, tmp_path,
                                            monkeypatch, bad):
        # a bad value is a usage error, never a reported identity failure,
        # and it is refused before the suite runs
        def boom(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(theorems, "run_suite", boom)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, **bad}))
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("bad, record", [
        ({"q_values": [0.0, 1e308]},
         r"CONV_MOD_L at phi=\S+ d=0\.0 q=1e\+308: carrier phase"),
        ({"start": -1e152, "span": 2e152},
         r"CONV at phi=\S+ d=0\.0 q=0\.0: residual norms"),
    ], ids=["carrier-phase", "residual-norm"])
    def test_overflow_exits_two_naming_the_record(self, runner, tmp_path,
                                                  bad, record):
        # sides that overflow a double are bad input: no traceback, no
        # warning, no NaN in a report, and no exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, **bad}))
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert re.match(f"error: {record}", result.stderr), result.stderr
        assert not (tmp_path / "r.json").exists()

    def test_report_file_is_reports_to_json(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CFG))
        report = tmp_path / "report.json"
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--output", str(report)])
        assert result.exit_code == 0, result.output
        expected = reports_to_json(run_suite(SuiteConfig(**self.CFG)))
        assert report.read_text(encoding="ascii") == expected + "\n"

    def test_duplicate_identities_exit_two(self, runner, tmp_path):
        result = runner.invoke(cli, ["verify", "--identities", "CONV,CONV",
                                     "--count", "256",
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert "duplicate" in result.output
        assert not (tmp_path / "r.json").exists()

    def test_empty_identities_flag_exits_two(self, runner, tmp_path):
        # no certificate of nothing: "0/0 records passed" is refused
        result = runner.invoke(cli, ["verify", "--identities", "",
                                     "--count", "256",
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
        assert "0/0" not in result.output
        assert not (tmp_path / "r.json").exists()

    def test_unknown_identity_exits_two(self, runner, tmp_path):
        result = runner.invoke(cli, ["verify", "--identities", "NOPE",
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 2


class TestDomainErrors:
    def test_every_library_error_is_a_smfrft_error(self):
        # the CLI turns exactly these into exit 2; an error outside the
        # base class would escape as a traceback
        defined = [obj for obj in vars(errors).values()
                   if isinstance(obj, type) and obj.__module__ == errors.__name__]
        assert errors.SmfrftError in defined and len(defined) > 1
        for cls in defined:
            assert issubclass(cls, errors.SmfrftError), cls
        assert cli_module._DOMAIN_ERRORS == (errors.SmfrftError, OSError,
                                             MemoryError)

    # one domain error per command: a missing input file, or a grid or
    # suite configuration that the library refuses
    DOMAIN_ERROR_ARGS = {
        "generate": ["--count", "1", "--output", "out.csv"],
        "transform": ["--input", "missing.csv", "--output", "out.csv",
                      "--order", "0.5"],
        "invert": ["--input", "missing.csv", "--output", "out.csv",
                   "--order", "0.5"],
        "filter": ["--input", "missing.csv", "--output", "out.csv",
                   "--order", "0.5", "--passband=-1:1"],
        "verify": ["--count", "3", "--output", "out.json"],
    }

    def test_every_command_exits_two_on_a_domain_error(self, runner, tmp_path,
                                                        monkeypatch):
        # the rule lives in the group: every command, this test's own
        # included, keeps it without applying anything itself
        def raises():
            raise errors.InvalidParameterError("synthetic")

        monkeypatch.setitem(cli.commands, "synthetic",
                            click.Command("synthetic", callback=raises))
        monkeypatch.chdir(tmp_path)
        cases = {**self.DOMAIN_ERROR_ARGS, "synthetic": []}
        assert set(cli.commands) == set(cases)
        for name, args in cases.items():
            result = runner.invoke(cli, [name, *args])
            assert result.exit_code == 2, (name, result.output)
            assert isinstance(result.exception, SystemExit), name
            assert result.stdout == "", name
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), name
            assert "Traceback" not in result.output, name
        assert list(tmp_path.iterdir()) == []

    MESSAGE = ("Unable to allocate 745. GiB for an array with shape "
               "(100000000000,) and data type float64")

    @pytest.mark.parametrize("args", [
        ["generate", "--count", "100000000000"],
        ["transform", "--input", "sig.csv", "--order", "0.5",
         "--ugrid=0:1:100000000000"],
        ["invert", "--input", "spec.csv", "--order", "0.5", "--step", "0.1",
         "--count", "100000000000"],
    ], ids=["generate", "transform-ugrid", "invert-step-count"])
    def test_allocation_failure_exits_two_with_no_file(self, runner, tmp_path,
                                                       monkeypatch, args):
        # numpy raises MemoryError for a grid it cannot allocate; faked here
        # for grids above 10^9 points, so that nothing large is allocated
        monkeypatch.chdir(tmp_path)
        invoke(runner, "generate", *SMALL, "--output", "sig.csv")
        invoke(runner, "transform", "--input", "sig.csv", "--output", "spec.csv",
               "--order", "0.5")
        real = UniformGrid.points

        def points(grid):
            if grid.count > 10**9:
                raise MemoryError(self.MESSAGE)
            return real(grid)

        monkeypatch.setattr(UniformGrid, "points", points)
        result = runner.invoke(cli, [*args, "--output", "out.csv"])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {self.MESSAGE}\n"
        assert not (tmp_path / "out.csv").exists()


# Import order is the point of these checks, so each runs in a fresh
# interpreter: `import smfrft` loads no numpy, and `import smfrft.cli`
# starts OpenBLAS with one thread unless the user chose a count.
STARTUP_PROBE = """
import os, re, sys
import smfrft
assert "numpy" not in sys.modules, "import smfrft loaded numpy"
import smfrft.cli
assert "numpy" in sys.modules
assert "smfrft.theorems" not in sys.modules, "only verify needs theorems"
try:
    with open("/proc/self/status") as handle:
        threads = re.search(r"Threads:\\s*(\\d+)", handle.read()).group(1)
except OSError:
    threads = "-"
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""


class TestStartup:
    @pytest.mark.parametrize("user_value, env_value, threads", [
        (None, "1", "1"),  # the default: no BLAS thread pool
        ("2", "2", None),  # a value the user set wins; the pool is theirs
    ])
    def test_cli_starts_openblas_single_threaded(self, user_value, env_value, threads):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env,
                                capture_output=True, text=True, check=False)
        assert result.returncode == 0, result.stderr
        got_env, got_threads = result.stdout.split()
        assert got_env == env_value
        if threads is not None:
            if got_threads == "-":
                pytest.skip("no /proc/self/status to count threads in")
            assert got_threads == threads
