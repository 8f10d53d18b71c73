"""The benchmark's two workloads: inputs drawn from a seed, one timed
operation run in closed loop, and a gate that checks each output.

Each workload picks the module that does most of its work, so that a
change to one module shows on one workload and is predicted to change
nothing on the others:

* ``verify``: the identity certificate; quadrature-bound, with the
  weighted operators second; no CSV and no fast transform.
* ``cli-pipeline``: the file-based path; CSV I/O and interpreter start-up,
  no quadrature and no weighted operator.

The library receives only the generated inputs, never the seed. Gates run
outside the timed region and count every failed check; a failing seed is
reported, never redrawn.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from smfrft import cli, corpus, theorems

SRC = Path(__file__).resolve().parent.parent / "src"

# Gate bounds, each well above what the seed commit measures and well below
# the error the gate exists to catch:
# * The CLI round trip measures ~3.4e-7 at N = 2^17 (~7e-10 at N = 2^12):
#   the spectrum CSV carries no grid, and reading it re-infers du from the
#   printed u column to ~1.6e-12 relative, which moves the last time
#   samples by under 1e-6 of a step. A grid misplaced by one sample gives
#   errors of order 1e-3 and a whole step.
# * The matched chirp keeps its energy to ~1e-16.
CSV_ROUNDTRIP_BOUND = 1e-5
GRID_BOUND = 1e-4  # in steps
ENERGY_BOUND = 1e-9


@dataclass
class Checks:
    """Correctness checks attempted and failed, plus worst-case diagnostics."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def worst(self, name: str, value: float) -> None:
        self.diagnostics[name] = max(self.diagnostics.get(name, value), value)


def relative_error(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


# ---------------------------------------------------------------- verify

def expected_records(config) -> int:
    """Reports run_suite owes for ``config``: one per identity, angle and
    swept (d, q) combination, counted from the identity names alone."""
    total = 0
    for identity in config.identities:
        name = identity.value
        if "TFSHIFT" in name:
            total += len(config.d_values) * len(config.q_values)
        elif "SHIFT" in name:
            total += len(config.d_values)
        elif "MOD" in name:
            total += len(config.q_values)
        else:
            total += 1
    return total * len(config.angles)


def gate_suite(config, reports, checks: Checks) -> None:
    checks.check(len(reports) == expected_records(config),
                 f"run_suite returned {len(reports)} records, "
                 f"expected {expected_records(config)}")
    checks.worst("theorems.records", len(reports))
    for r in reports:
        checks.check(r.passed, f"{r.identity.value} phi={r.phi} d={r.d} q={r.q}")
        checks.worst("theorems.worst_ratio",
                     min(r.residual_paper_form, r.residual_derived_form) / r.tolerance)


class Verify:
    """One ``run_suite`` call at N = 1024: all 15 identities, the 3 corpus
    pairs, default d and q values, at pi/2 and one seeded fractional angle."""

    name = "verify"
    traced_ops = 1

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        # one call takes about 16 s, over which the host's speed drifts;
        # a run times at least two
        self.min_ops = 1 if smoke else 2
        self.phi = float(rng.uniform(math.pi / 6, math.pi / 3))
        angles = (self.phi, math.pi / 2)
        if smoke:
            self.config = theorems.SuiteConfig(
                n=1024, angles=angles, identities=(theorems.IdentityId.CONV,),
                pair_indices=(0,))
        else:
            self.config = theorems.SuiteConfig(n=1024, angles=angles)
        self.params = {"n": self.config.n, "start": self.config.start,
                       "span": self.config.span, "angles": list(angles),
                       "identities": len(self.config.identities),
                       "pairs": len(self.config.pair_indices),
                       "records": expected_records(self.config)}

    def input_bytes(self) -> bytes:
        return repr(self.config).encode()

    def setup(self) -> None:
        corpus.default_pairs(self.config.time_grid())
        theorems.run_suite(theorems.SuiteConfig(
            n=1024, angles=(math.pi / 2,),
            identities=(theorems.IdentityId.CONV,), pair_indices=(0,)))

    def op(self, i: int):
        return theorems.run_suite(self.config)

    def traced_op(self, i: int, tracer=None):
        return self.op(i)

    def gate(self, reports, checks: Checks) -> None:
        gate_suite(self.config, reports, checks)


# ---------------------------------------------------------- cli-pipeline

def cli_env() -> dict:
    """The caller's environment, thread settings untouched, with the
    checkout's ``src`` first on the path (the package is not installed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def read_csv(path) -> np.ndarray:
    """(axis, re, im) columns, parsed by numpy rather than by io_csv."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def gate_pipeline(paths: dict, codes: list, checks: Checks) -> None:
    """Exit codes, invert(transform(x)) == x on the generated grid, and
    the matched-chirp filter keeping the signal's energy."""
    for command, code in codes:
        checks.check(code == 0, f"{command} exited {code}")
    try:
        x, back, kept = (read_csv(paths[k]) for k in ("x", "inverse", "filtered"))
    except (OSError, ValueError) as exc:
        checks.check(False, f"unreadable output: {exc}")
        return
    same_grid = x.shape == back.shape and np.allclose(
        back[:, 0], x[:, 0], rtol=0, atol=GRID_BOUND * (x[1, 0] - x[0, 0]))
    checks.check(same_grid, "inverse is not on the generated time grid")
    x_c = x[:, 1] + 1j * x[:, 2]
    if same_grid:
        error = relative_error(back[:, 1] + 1j * back[:, 2], x_c)
        checks.worst("cli.roundtrip_err", error)
        checks.check(error <= CSV_ROUNDTRIP_BOUND, f"round trip {error:.3e}")
    energy = np.sum(np.abs(x_c) ** 2)
    kept_energy = np.sum(kept[:, 1] ** 2 + kept[:, 2] ** 2) if kept.shape == x.shape else 0.0
    checks.check(abs(kept_energy / energy - 1.0) <= ENERGY_BOUND,
                 f"filter kept {kept_energy / energy!r} of the energy")


class CliPipeline:
    """``generate -> transform -> filter -> invert`` as four subprocesses at
    N = 2^17, for a chirp whose rate r matches the angle phi = arccot(r)."""

    name = "cli-pipeline"
    traced_ops = 1
    passband = (-4.0, 4.0)  # the matched chirp's spectrum is ~exp(-(u*w)^2/2), w >= 2

    def __init__(self, seed: int, smoke: bool = False, workdir: Path = Path(".")):
        rng = np.random.default_rng(seed)
        # pipeline times differ by 10-20% from one to the next on a shared
        # host: N = 2^17 keeps CSV I/O the larger part of a pipeline while
        # fitting seven or more pipelines in a run, and a run times at
        # least three
        self.n = 2 ** 12 if smoke else 2 ** 17
        self.min_ops = 1 if smoke else 3
        self.start = -32.0
        self.step = 64.0 / self.n
        self.rate = float(rng.uniform(0.5, 2.0))
        self.width = float(rng.uniform(2.0, 4.0))
        self.phi = math.atan(1.0 / self.rate)
        self.paths = {key: workdir / f"{key}.csv"
                      for key in ("x", "spectrum", "filtered", "inverse")}
        self.params = {"n": self.n, "start": self.start, "step": self.step,
                       "rate": self.rate, "envelope_width": self.width,
                       "phi": self.phi, "passband": list(self.passband)}
        self.env = cli_env()

    def commands(self) -> list:
        p = {k: str(v) for k, v in self.paths.items()}
        angle = f"--angle={self.phi!r}"
        return [
            ("generate", ["generate", "--kind", "chirp", f"--rate={self.rate!r}",
                          f"--width={self.width!r}", f"--start={self.start!r}",
                          f"--step={self.step!r}", f"--count={self.n}",
                          "--output", p["x"]]),
            ("transform", ["transform", "--input", p["x"], "--output", p["spectrum"], angle]),
            ("filter", ["filter", "--input", p["x"], "--output", p["filtered"], angle,
                        f"--passband={self.passband[0]!r}:{self.passband[1]!r}"]),
            # the spectrum CSV carries no time grid, so pass its start
            ("invert", ["invert", "--input", p["spectrum"], "--output", p["inverse"],
                        angle, f"--start={self.start!r}"]),
        ]

    def input_bytes(self) -> bytes:
        return repr(self.commands()).encode()

    def _python(self, args: list) -> int:
        return subprocess.run([sys.executable, "-m", "smfrft.cli", *args],
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode

    def startup(self) -> float:
        """Wall time of ``smfrft --help``: interpreter, imports, click."""
        t0 = perf_counter()
        code = self._python(["--help"])
        if code != 0:
            raise RuntimeError(f"smfrft --help exited {code}")
        return perf_counter() - t0

    def setup(self) -> None:
        self.startup()

    def clear(self) -> None:
        """Remove the pipeline's files, so no command can pass on stale ones."""
        for path in self.paths.values():
            path.unlink(missing_ok=True)

    def op(self, i: int):
        self.clear()
        return [(name, self._python(args)) for name, args in self.commands()]

    def traced_op(self, i: int, tracer=None):
        """The same commands in-process through the click group, so that
        io_csv and transform calls can be wrapped."""
        self.clear()
        codes = []
        for name, args in self.commands():
            call = functools.partial(cli.cli.main, args=args, standalone_mode=False)
            try:
                if tracer is None:
                    call()
                else:
                    tracer.span(f"cli.{name}", call)
                code = 0
            except SystemExit as exc:
                code = exc.code
            codes.append((name, code))
        return codes

    def gate(self, codes, checks: Checks) -> None:
        gate_pipeline(self.paths, codes, checks)


WORKLOADS = {w.name: w for w in (Verify, CliPipeline)}
