import errno
import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from smfrft import cli as cli_module, errors, io_csv
from smfrft.cli import cli
from smfrft.io_csv import read_signal_csv, read_spectrum_csv, write_signal_csv
from smfrft import (
    SampledSignal,
    Spectrum,
    SuiteConfig,
    fast_ugrid,
    gen_chirp,
    ismfrft_direct,
    make_angle,
    make_grid,
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
        grid = make_grid(-16.0, 32 / 256, 256)
        np.testing.assert_array_equal(back.samples,
                                      gen_chirp(grid, 1.0, 1.5).samples)

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
        assert ugrid == make_grid(0.0, 1.0, 4)
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
        tgrid = make_grid(-5.0, 0.1, 100)
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
        signal = gen_chirp(make_grid(-8.0, 16 / 256, 256), 1.0, 1.0)
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

    def test_inputs_never_mutated(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        before = sig.read_bytes()
        invoke(runner, "transform", "--input", sig,
               "--output", tmp_path / "s.csv", "--order", "1")
        assert sig.read_bytes() == before


class TestSplitIO:
    def test_default_pipeline_never_forks(self, runner, tmp_path,
                                          monkeypatch):
        # the crossover measured in io_csv: a split needs two parts of
        # _MIN_PART_ROWS, so the CLI default of 2048 rows stays in one
        # process
        assert io_csv._MIN_PART_ROWS == 8192
        forks = []

        def fork():
            forks.append(True)
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        sig, spec = tmp_path / "sig.csv", tmp_path / "spec.csv"
        for args in (["generate", "--output", sig],
                     ["transform", "--input", sig, "--output", spec,
                      "--order", "0.5"],
                     ["filter", "--input", sig, "--output", tmp_path / "f.csv",
                      "--order", "0.5", "--passband=-2:2"],
                     ["invert", "--input", spec, "--output", tmp_path / "i.csv",
                      "--order", "0.5"]):
            assert invoke(runner, *args).exit_code == 0
        assert forks == []

    def test_failed_write_exits_two_with_no_file(self, runner, tmp_path,
                                                 monkeypatch):
        # the worker's part fails, and so does the caller's retry of it:
        # the caller's part alone would read back as a shorter signal
        real = io_csv._write_rows

        def full_disk(handle, columns, part):
            if part.start:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(handle, columns, part)

        monkeypatch.setattr(io_csv, "_workers", lambda rows: 2)
        monkeypatch.setattr(io_csv, "_write_rows", full_disk)
        out = tmp_path / "sig.csv"
        result = runner.invoke(cli, ["generate", *SMALL, "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert "No space left on device" in result.stderr
        assert not out.exists()


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

    def test_all_stop_band_zeroes_everything(self, runner, tmp_path):
        sig = tmp_path / "sig.csv"
        out = tmp_path / "filtered.csv"
        invoke(runner, "generate", *SMALL, "--output", sig)
        r = invoke(runner, "filter", "--input", sig, "--output", out,
                   "--order", "0.5", "--passband", "1e6:2e6")
        assert r.exit_code == 0
        assert np.all(read_signal_csv(out).samples == 0)

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
        grid = make_grid(-16.0, 32 / 1024, 1024)
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

    @pytest.mark.parametrize("bad", [{"pair_indices": [5]}, {"n": "abc"},
                                     {"pair_indices": [0, 0]},
                                     {"pair_indices": []}, {"angles": []},
                                     {"identities": []}, {"d_values": []},
                                     {"q_values": []}])
    def test_invalid_config_value_exits_two(self, runner, tmp_path, bad):
        # a bad value is a usage error, never a reported identity failure
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CFG, **bad}))
        result = runner.invoke(cli, ["verify", "--config", str(cfg),
                                     "--output", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
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
        assert cli_module._DOMAIN_ERRORS == (errors.SmfrftError, OSError)
