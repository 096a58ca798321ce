#!/usr/bin/env python3
"""Run the workloads over several seeds and summarise every metric.

Each run is a fresh ``run.py`` process, so ``peak_rss_mib`` is that
workload's own.  Runs go seed by seed, cycling through the workloads, so
slow drift of a shared machine spreads evenly over them.  For each metric
the report gives the median, the quartiles and the spread (interquartile
range over median); it also totals ``failed`` over ``attempted``.

    python3 bench/report.py --seeds 1-10
    python3 bench/report.py --seeds 1 --trace 1 --out FILE

Every run measures for ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("decide", "realize", "verify")


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values,
        }
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            results[workload].append(run_once(workload, seed, args.trace))
            print(f"done: {workload} seed {seed}", file=sys.stderr, flush=True)

    summary = {w: summarise(rs) for w, rs in results.items()}
    for workload, s in summary.items():
        print(f"{workload}: {s['runs']} runs, correct={s['correct']},"
              f" failed_frac = {s['failed']}/{s['attempted']} = {s['failed_frac']:.6g} ratio")
        for name, m in s["metrics"].items():
            print(f"  {name} = {m['median']:.6g} {m['unit']}"
                  f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, spread {m['spread']:.4f}]")
    if args.out:
        document = {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "seeds": args.seeds,
            "seconds": RUN_SECONDS,
            "trace": args.trace,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
