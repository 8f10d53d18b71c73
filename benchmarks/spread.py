"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads verify cli-pipeline --seeds 1-10
    python3 benchmarks/spread.py --seeds 1-10 --out .bench_work/set1.json
    python3 benchmarks/spread.py --seeds 1 --trace 1

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at a
time, from the checkout root. For every end-to-end metric it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median next to the metric's bound. With ``--trace 1``
it prints the per-layer values of each run instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int, seconds) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run and the summary as JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in names:
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(bench, workload, seed, args.trace, seconds)
            runs.append(result)
            status = "ok" if result["correct"] else f"FAILED {result['failed']}"
            print(f"{workload} seed {seed}: {result['attempted']} checks {status}",
                  file=sys.stderr)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "metrics": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "samples": [r["provenance"]["samples"] for r in runs],
            "provenance": runs[0]["provenance"],
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f" bound {bound:.2f}  spread/bound {m['spread'] / bound:.2f}")
            print(f"{workload:>13} {name:<34} median {m['median']:>14.6g} "
                  f"q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g} "
                  f"spread {m['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
