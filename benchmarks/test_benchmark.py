"""Tests of the benchmark itself: seeded inputs, the printed metrics, and
gates that fail when an output is perturbed."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Checks, CliPipeline, Verify  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("cls", [Verify, CliPipeline])
def test_same_seed_gives_identical_inputs(cls):
    assert cls(7).input_bytes() == cls(7).input_bytes()
    assert cls(7).input_bytes() != cls(8).input_bytes()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, kind,
                                                     tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv, workdir=tmp_path) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_verify_gate_counts_a_failed_or_missing_record():
    verify = Verify(3, smoke=True)
    reports = verify.op(0)
    checks = Checks()
    verify.gate(reports, checks)
    assert checks.failed == 0

    broken = [dataclasses.replace(reports[0], passed=False)] + reports[1:]
    checks = Checks()
    verify.gate(broken, checks)
    assert checks.failed == 1

    checks = Checks()
    verify.gate(reports[1:], checks)
    assert checks.failed == 1


def _rewrite(path: Path, column: int, change) -> None:
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    table[:, column] = change(table[:, column])
    header = path.read_text().splitlines()[0]
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


def test_cli_gate_catches_exit_codes_misplaced_grids_and_lost_energy(tmp_path):
    pipeline = CliPipeline(3, smoke=True, workdir=tmp_path)
    codes = pipeline.op(0)
    checks = Checks()
    pipeline.gate(codes, checks)
    assert checks.failed == 0

    checks = Checks()
    pipeline.gate(codes[:-1] + [("invert", 2)], checks)
    assert checks.failed == 1

    step = pipeline.step
    _rewrite(pipeline.paths["filtered"], 1, lambda re: 0.5 * re)
    _rewrite(pipeline.paths["inverse"], 0, lambda t: t + step)
    checks = Checks()
    pipeline.gate(codes, checks)
    assert checks.failed == 2
    assert checks.failures[0] == "inverse is not on the generated time grid"
    assert checks.failures[1].startswith("filter kept")

    pipeline.paths["inverse"].unlink()
    checks = Checks()
    pipeline.gate(codes, checks)
    assert checks.failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_workload_names_match_benchmark_json():
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}
    assert set(run.END_TO_END.items()) == {(m["name"], m["unit"])
                                           for m in BENCHMARK["end_to_end"]}
