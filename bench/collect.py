#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/collect.py [--workloads demo city] [--seeds 1-10] [--out FILE]

Each run is ``run.py --workload W --seed N`` for BENCHMARK.json's
``run_seconds``; the workloads default to BENCHMARK.json's. For each workload and end-to-end metric it prints the
median over the runs, the quartiles from ``statistics.quantiles(values,
n=4)`` and the spread (q3 - q1) / median, which is what a metric's bound in
BENCHMARK.json is compared with. ``--out`` also writes every run's result
and detail line as JSON, which is how bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=BENCH.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    detail = next(json.loads(line.split(" detail ", 1)[1]) for line in lines
                  if line.startswith(f"{workload} detail "))
    return {"seed": seed, "result": json.loads(lines[-1]), "detail": detail}


def summarize(runs: list[dict]) -> dict:
    """Every printed metric's spread over the runs, the bounded ones and wall_s and trips_per_s."""
    metrics = {}
    for name in runs[0]["detail"]["values"]:
        values = [r["detail"]["values"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        median = statistics.median(values)
        metrics[name] = {"median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                         "n": len(values)}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    report = {}
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, spec["run_seconds"]))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        summary = summarize(runs)
        for name, m in summary.items():
            print(f"{workload} {name:14s} median={m['median']:.6g} "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g} spread={m['spread']:.4f} n={m['n']}")
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
