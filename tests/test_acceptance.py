"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. The theorem suite at N = 2048 and N = 1024 is computed once
per session and shared by the criteria that need it.
"""

import collections
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import smfrft.theorems as theorems
from smfrft import (
    IdentityId,
    SampledSignal,
    SuiteConfig,
    UniformGrid,
    fast_ugrid,
    gen_chirp,
    gen_gaussian,
    ismfrft_fast,
    make_angle,
    report_rows,
    run_suite,
    smfrft_direct,
    smfrft_fast,
)
from smfrft.cli import cli
from smfrft.corpus import modulated_chirp
from smfrft.io_csv import read_signal_csv

import closed_forms
import dense_oracle
from dense_oracle import relative_l2_error

PI = math.pi
ANGLES = (PI / 6, PI / 4, PI / 3, PI / 2 - 0.1, PI / 2)


def _mix(a, b):
    return SampledSignal(a.grid, a.samples + b.samples)


def acceptance_signals(grid):
    """Twelve signals exercising the transform paths.

    Gaussians with and without carriers, chirps over a range of rates,
    and complex mixtures; all decay far inside the default span.
    """
    return [
        gen_gaussian(grid, center=0.0, width=1.0, carrier=0.0),
        gen_gaussian(grid, center=0.5, width=0.8, carrier=2.0),
        gen_gaussian(grid, center=-1.0, width=1.5, carrier=-3.0),
        gen_gaussian(grid, center=0.0, width=0.5, carrier=5.0),
        gen_chirp(grid, rate=1.0, envelope_width=1.5),
        gen_chirp(grid, rate=-2.0, envelope_width=1.0),
        gen_chirp(grid, rate=5.0, envelope_width=2.0),
        gen_chirp(grid, rate=12.0, envelope_width=2.0),
        _mix(gen_gaussian(grid, 0.0, 1.0, 0.0),
             gen_gaussian(grid, 1.0, 0.7, 4.0)),
        _mix(gen_gaussian(grid, -0.5, 1.2, -2.0),
             gen_chirp(grid, rate=3.0, envelope_width=1.5)),
        _mix(gen_chirp(grid, rate=2.0, envelope_width=1.0),
             gen_chirp(grid, rate=-4.0, envelope_width=1.2)),
        modulated_chirp(grid, rate=6.0, envelope_width=1.5, carrier=3.0),
    ]


def announce(number, label, elapsed=None):
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nPASS criterion {number}: {label}{suffix}")


@pytest.fixture(scope="session")
def corpus_1024():
    grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
    return grid, acceptance_signals(grid)


@pytest.fixture(scope="session")
def suite_2048():
    start = time.perf_counter()
    reports = run_suite(SuiteConfig(n=2048))
    return reports, time.perf_counter() - start


@pytest.fixture(scope="session")
def suite_1024():
    start = time.perf_counter()
    reports = run_suite(SuiteConfig(n=1024))
    return reports, time.perf_counter() - start


def test_criterion_1_fast_oracle_equivalence(corpus_1024):
    grid, signals = corpus_1024
    assert len(signals) == 12
    start = time.perf_counter()
    worst = 0.0
    for x in signals:
        for phi in ANGLES:
            angle = make_angle(phi)
            fast = smfrft_fast(x, angle)
            dense = dense_oracle.smfrft_quadrature(x, fast.ugrid.points(), angle)
            worst = max(worst, relative_l2_error(fast.values, dense))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    announce(1, f"fast/oracle equivalence, worst residual {worst:.2e}",
             elapsed)


def test_criterion_2_round_trip(corpus_1024):
    grid, signals = corpus_1024
    start = time.perf_counter()
    worst = 0.0
    for x in signals:
        for phi in ANGLES:
            angle = make_angle(phi)
            back = ismfrft_fast(smfrft_fast(x, angle))
            worst = max(worst, relative_l2_error(back.samples, x.samples))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    announce(2, f"fast round trip, worst residual {worst:.2e}", elapsed)


def test_criterion_3_parseval(corpus_1024):
    grid, signals = corpus_1024
    start = time.perf_counter()
    worst = 0.0
    for x in signals:
        energy = x.energy()
        for phi in ANGLES:
            spec = smfrft_fast(x, make_angle(phi))
            worst = max(worst, abs(spec.energy() - energy) / energy)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    announce(3, f"discrete Parseval, worst deviation {worst:.2e}", elapsed)


def test_criterion_4_right_angle_reduction(corpus_1024):
    grid, signals = corpus_1024
    angle = make_angle(PI / 2)
    ugrid = UniformGrid(-32.0, 64.0 / 512, 512)
    sqrt_j = complex(math.cos(PI / 4), math.sin(PI / 4))
    ft_const = complex(math.cos(PI / 4), -math.sin(PI / 4)) / math.sqrt(2 * PI)
    start = time.perf_counter()
    worst_dft = 0.0
    worst_frft = 0.0
    for x in signals:
        spec = smfrft_fast(x, angle)
        u = spec.ugrid.points()
        reference = (ft_const * grid.step * np.exp(-1j * grid.start * u)
                     * np.fft.fftshift(np.fft.fft(x.samples)))
        worst_dft = max(worst_dft,
                        relative_l2_error(spec.values, reference))
        conventional = dense_oracle.frft_direct(x, ugrid, angle)
        simplified = smfrft_direct(x, ugrid, angle)
        worst_frft = max(worst_frft,
                         relative_l2_error(conventional,
                                           sqrt_j * simplified.values))
    elapsed = time.perf_counter() - start
    assert worst_dft <= 1e-12
    assert worst_frft <= 1e-12
    assert elapsed < 5.0
    announce(4, "pi/2 reduction to the scaled Fourier transform "
                f"(DFT {worst_dft:.2e}, conventional-kernel {worst_frft:.2e})",
             elapsed)


def test_criterion_5_theorem_suite(suite_2048):
    reports, elapsed = suite_2048
    assert len(reports) == 175
    assert {r.identity for r in reports} == set(IdentityId)
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:5]
    assert elapsed < 300.0
    worst = max(min(r.residual_paper_form, r.residual_derived_form)
                for r in reports)
    announce(5, f"all 15 identity families pass at N=2048 "
                f"(worst residual {worst:.2e})", elapsed)


def test_criterion_6_convergence(suite_2048, suite_1024):
    fine, t_fine = suite_2048
    coarse, t_coarse = suite_1024

    def family_residuals(reports):
        worst = collections.defaultdict(float)
        for r in reports:
            worst[r.identity] = max(
                worst[r.identity],
                min(r.residual_paper_form, r.residual_derived_form))
        return worst

    fine_worst = family_residuals(fine)
    coarse_worst = family_residuals(coarse)
    for identity in IdentityId:
        assert fine_worst[identity] <= coarse_worst[identity], (
            identity, fine_worst[identity], coarse_worst[identity])
    assert t_fine + t_coarse < 600.0
    announce(6, "per-family residuals shrink from N=1024 to N=2048",
             t_fine + t_coarse)


def test_criterion_7_specialization_lattice():
    grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
    f = gen_gaussian(grid, 0.2, 1.0, 0.8)
    g = gen_chirp(grid, 0.9, 1.2)
    ugrid = fast_ugrid(grid)
    start = time.perf_counter()
    for phi in (PI / 6, PI / 3):
        angle = make_angle(phi)
        for side in ("L", "R"):
            conv_cases = [
                (theorems.rhs_tfshift(f, g, angle, 0.5, 0.0, ugrid, "conv", side),
                 closed_forms.rhs_conv_shift(f, g, angle, 0.5, ugrid, side)),
                (theorems.rhs_tfshift(f, g, angle, 0.0, 1.0, ugrid, "conv", side),
                 closed_forms.rhs_conv_modulation(f, g, angle, 1.0, ugrid, side)),
                (theorems.rhs_tfshift(f, g, angle, 0.0, 0.0, ugrid, "conv", side),
                 closed_forms.rhs_convolution(f, g, angle, ugrid)),
                (theorems.rhs_tfshift(f, g, angle, 0.5, 0.0, ugrid, "corr", side),
                 closed_forms.rhs_corr_shift_derived(f, g, angle, 0.5, ugrid, side)),
                (theorems.rhs_tfshift(f, g, angle, 0.0, 1.0, ugrid, "corr", side),
                 closed_forms.rhs_corr_modulation(f, g, angle, 1.0, ugrid, side)),
                (theorems.rhs_tfshift(f, g, angle, 0.0, 0.0, ugrid, "corr", side),
                 closed_forms.rhs_correlation(f, g, angle, ugrid)),
            ]
            for specialized, simpler in conv_cases:
                assert relative_l2_error(specialized, simpler) <= 1e-12
    announce(7, "tf-shift formulas specialize onto shift/modulation/base",
             time.perf_counter() - start)


def test_criterion_8_chirp_compaction():
    grid = UniformGrid(-16.0, 32.0 / 1024, 1024)
    envelope = gen_gaussian(grid, 0.0, 2.0, 0.0)
    plain_ft = smfrft_fast(envelope, make_angle(PI / 2))
    start = time.perf_counter()
    worst = 0.0
    for phi in (PI / 6, PI / 4, PI / 3):
        angle = make_angle(phi)
        chirp = gen_chirp(grid, rate=angle.cot_phi, envelope_width=2.0)
        compacted = smfrft_fast(chirp, angle)
        worst = max(worst, relative_l2_error(np.abs(compacted.values),
                                             np.abs(plain_ft.values)))
        peak = compacted.ugrid.points()[np.argmax(np.abs(compacted.values))]
        assert abs(peak) <= 2 * compacted.ugrid.step
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    announce(8, f"matched chirp compacts onto the envelope spectrum "
                f"(magnitude residual {worst:.2e})", elapsed)


def test_criterion_9_adjudication_record(suite_2048):
    reports, _ = suite_2048
    rows = report_rows(reports)
    assert all(set(row) == {"identity", "phi", "d", "q", "n",
                            "residual_paper_form", "residual_derived_form",
                            "tolerance", "pass", "chosen_form"}
               for row in rows)
    tf_left = [row for row in rows if row["identity"] == "CORR_TFSHIFT_L"]
    assert tf_left and all(row["chosen_form"] == "derived" for row in tf_left)
    assert all(row["residual_paper_form"] > row["tolerance"]
               for row in tf_left)
    pi_half_shift = [row for row in rows
                     if row["identity"] == "CORR_SHIFT_L"
                     and row["phi"] == PI / 2 and row["d"] != 0.0]
    assert pi_half_shift
    assert all(row["chosen_form"] == "derived" for row in pi_half_shift)
    everything_else = [row for row in rows
                       if row["identity"] not in ("CORR_TFSHIFT_L",
                                                  "CORR_SHIFT_L")]
    assert all(row["chosen_form"] == "agree" for row in everything_else)
    announce(9, "report names the derivation-consistent form for the "
                "printed-form mismatches")


def test_criterion_10_cli_contract(tmp_path):
    runner = CliRunner()
    start = time.perf_counter()
    sig = tmp_path / "sig.csv"
    spec = tmp_path / "spec.csv"
    back = tmp_path / "back.csv"

    r = runner.invoke(cli, ["generate", "--output", str(sig)])
    assert r.exit_code == 0
    r = runner.invoke(cli, ["transform", "--input", str(sig), "--output",
                            str(spec), "--order", "1"])
    assert r.exit_code == 0
    r = runner.invoke(cli, ["invert", "--input", str(spec), "--output",
                            str(back), "--order", "1"])
    assert r.exit_code == 0
    original = read_signal_csv(sig)
    recovered = read_signal_csv(back)
    assert np.max(np.abs(recovered.samples - original.samples)) <= 1e-9

    # byte-stable canonical formatting
    resaved = tmp_path / "resaved.csv"
    r = runner.invoke(cli, ["generate", "--output", str(resaved)])
    assert r.exit_code == 0
    assert resaved.read_bytes() == sig.read_bytes()
    from smfrft.io_csv import write_signal_csv
    rewritten = tmp_path / "rewritten.csv"
    write_signal_csv(rewritten, read_signal_csv(sig))
    assert rewritten.read_bytes() == sig.read_bytes()

    # exit-code contract: 2 for usage errors, 1 for verification failure
    assert runner.invoke(cli, ["transform", "--input", str(sig),
                               "--output", str(spec), "--angle", "0"]
                         ).exit_code == 2
    assert runner.invoke(cli, ["generate", "--count", "0", "--output",
                               str(tmp_path / "x.csv")]).exit_code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 256, "angles": [PI / 4],
                               "pair_indices": [0],
                               "identities": ["CONV"]}))
    ok = runner.invoke(cli, ["verify", "--config", str(cfg), "--output",
                             str(tmp_path / "ok.json")])
    assert ok.exit_code == 0
    failing = runner.invoke(cli, ["verify", "--config", str(cfg),
                                  "--tolerance", "0", "--output",
                                  str(tmp_path / "fail.json")])
    assert failing.exit_code == 1
    announce(10, "CLI round trip, byte-stable CSV, exit codes 0/1/2",
             time.perf_counter() - start)
