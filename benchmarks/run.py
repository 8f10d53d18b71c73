"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer split from a traced pass. The
line before it holds the run's provenance. ``--smoke`` shrinks every
workload to a few seconds, for the benchmark's own tests.

One client drives the library in closed loop: each call starts after the
previous one returns, and the benchmark starts no threads of its own. The
only processes it starts are the CLI subprocesses of ``cli-pipeline``,
one at a time. Thread environment variables are left as the caller set
them and recorded.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy and smfrft are imported only inside functions, after the timer in
# main() starts, so that setup_s counts their import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5  # set-ups before the timed operations, and again after them
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "PYTHON_CPU_COUNT")

# end-to-end metrics, every workload: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_per_op_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "cli-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for tests")
    return parser.parse_args(argv)


def import_program():
    """Import the library from this checkout's ``src`` and the workloads.

    Refuses an smfrft found anywhere else, so that a directory holding
    only the benchmark cannot pass by picking up an installed copy.
    """
    sys.path.insert(0, str(SRC))
    import smfrft
    if Path(smfrft.__file__).resolve().parent != SRC / "smfrft":
        raise ImportError(f"smfrft imported from {smfrft.__file__}, not {SRC}")
    import smfrft.cli  # noqa: F401  (click, as the CLI loads it)
    import workloads
    return workloads


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": git_commit(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "click": importlib.metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "params": workload.params,
        "load": "closed loop, one client",
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def attempt(fn, i):
    """(output, None), or (None, traceback) if the operation raised."""
    try:
        return fn(i), None
    except Exception:  # noqa: BLE001 - keep measuring, report the failure
        return None, traceback.format_exc()


def gate(workload, i, result, checks) -> None:
    """Gate one operation's output; a raised exception is a failed check."""
    out, error = result
    if error is None:
        try:
            workload.gate(out, checks)
            return
        except Exception:  # noqa: BLE001
            error = traceback.format_exc()
    sys.stderr.write(error)
    checks.check(False, f"operation {i} raised")


def time_setups(workload, reps: int) -> list:
    """Wall time of each of ``reps`` set-ups."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
    return times


def peak_rss_mb(workload) -> float:
    # the CLI's memory is its children's; RUSAGE_CHILDREN keeps the largest
    who = (resource.RUSAGE_CHILDREN if workload.name == "cli-pipeline"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_loop(workload, seconds, checks):
    """Closed loop: run operations until the next one would overrun
    ``seconds`` of operation time, and at least ``workload.min_ops``.
    Each output is gated between operations, outside the timers.

    Also returns the peak memory once the first operation is done: later
    operations add some (``verify``'s thread pools grow the heap a little
    with each call), and a run holds a number of them that depends on the
    host's speed."""
    import numpy as np
    times, cpu = [], 0.0
    while True:
        i = len(times)
        c0, t0 = cpu_seconds(), perf_counter()
        result = attempt(workload.op, i)
        times.append(perf_counter() - t0)
        cpu += cpu_seconds() - c0
        if i == 0:
            rss_mb = peak_rss_mb(workload)
        gate(workload, i, result, checks)
        if len(times) >= workload.min_ops and sum(times) + float(np.median(times)) > seconds:
            return times, cpu, rss_mb


def end_to_end(setup_s, times, cpu, rss_mb) -> dict:
    import numpy as np
    return {
        "setup_s": setup_s,
        "wall_per_op_s": float(np.mean(times)),
        "cpu_per_op_s": cpu / len(times),
        "peak_rss_mb": rss_mb,
    }


def traced_pass(workload, checks, workdir, run_id):
    """The per-layer split. Two untraced in-process passes, the faster of
    which is the reference (the first also warms the in-process path),
    then the same operations traced. Every pass is gated with tracing off."""
    import tracing
    ops = range(workload.traced_ops)
    diagnostics = {}
    if workload.name == "cli-pipeline":
        diagnostics["cli.startup_s"] = sorted(workload.startup() for _ in range(3))[1]

    def run_pass(tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            results = [attempt(lambda i: workload.traced_op(i, tracer), i) for i in ops]
            elapsed = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i, result in zip(ops, results):
            gate(workload, i, result, checks)
        return elapsed

    untraced_s = min(run_pass(), run_pass())
    tracer = tracing.Tracer(run_id)
    traced_s = run_pass(tracer)
    tracer.write(workdir / f"spans-{run_id}.json")
    diagnostics.update(checks.diagnostics)
    return tracing.layer_metrics(tracer, untraced_s, traced_s, diagnostics)


def main(argv=None, workdir: Path | None = None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    import numpy as np
    workdir = Path(workdir or ROOT / ".bench_work")
    workdir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    writes_files = cls is workloads.CliPipeline
    workload = (cls(args.seed, args.smoke, workdir) if writes_files
                else cls(args.seed, args.smoke))

    setup_reps = 1 if args.smoke else SETUP_REPS
    reps = time_setups(workload, setup_reps)

    checks = workloads.Checks()
    info = provenance(args, workload)
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}"
        values = traced_pass(workload, checks, workdir, run_id)
        info["samples"] = {"traced_ops": workload.traced_ops}
    else:
        times, cpu, rss_mb = timed_loop(workload, args.seconds, checks)
        # set-up times from both ends of the run, so that setup_s does not
        # rest on the host's speed in its first seconds alone
        reps += time_setups(workload, setup_reps)
        setup_s = import_s + float(np.median(reps))
        raw = end_to_end(setup_s, times, cpu, rss_mb)
        values = {name: (raw[name], unit) for name, unit in END_TO_END.items()}
        info["samples"] = {"wall_per_op_s": len(times), "cpu_per_op_s": len(times),
                           "setup_s": len(reps)}
        # too few operations for a percentile above the median to have ten
        # samples beyond it; the median is given with the mean
        info["latency_p50_ms"] = float(np.median(times)) * 1e3
        info["import_s"] = import_s
        info["setup_seconds"] = reps
        info["op_seconds"] = times
    info["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                      "fail_ratio": checks.failed / max(checks.attempted, 1),
                      "first_failures": checks.failures[:10]}
    if writes_files:
        workload.clear()

    for name, (value, unit) in values.items():
        print(f"{args.workload:>13} {name:<34} {value:>16.6g} {unit}", file=sys.stderr)
    if checks.failed:
        print(f"{checks.failed}/{checks.attempted} checks failed: "
              f"{checks.failures[:10]}", file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
