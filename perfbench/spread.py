"""Spread report: repeated runs of each workload, each metric beside its bound.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --seeds 10 [--workload serve-http ...] [--sets 2]

Runs ``run.py --trace 0`` once per (workload, seed), interleaving the
workloads so slow drift of the host hits every workload alike.  For each
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and the bound from ``BENCHMARK.json``; a spread at or above a
third of the bound is flagged.  With ``--sets 2`` the whole series runs
twice and the second median is compared with the first, which is how drift
between two runs of identical code shows before a bound is set.  Every
metric is judged, ``setup_s`` too; seeds run from 1 to ``--seeds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )  # fmt: skip
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={line['correct']} failed={line['failed']}")
    return {name: metric["value"] for name, metric in line["metrics"].items()}


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3, "spread": (q3 - q1) / middle if middle else 0.0}


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    workloads = args.workload or names
    bounds = {metric["name"]: metric for metric in bench["end_to_end"]}

    runs: Dict[str, List[List[Dict[str, float]]]] = {name: [] for name in workloads}
    for index in range(args.sets):
        series: Dict[str, List[Dict[str, float]]] = {name: [] for name in workloads}
        for seed in range(1, args.seeds + 1):
            for name in workloads:
                series[name].append(run_once(name, seed, args.seconds))
                print(f"set {index + 1} {name} seed {seed} done", file=sys.stderr, flush=True)
        for name in workloads:
            runs[name].append(series[name])

    verdict = 0
    for name in workloads:
        print(f"\n{name}  ({args.seeds} seeds x {args.sets} set(s), --seconds {args.seconds})")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  status")
        for metric, spec in bounds.items():
            first = spread([values[metric] for values in runs[name][0]])
            status = []
            flagged = first["spread"] >= spec["bound"] / 3
            if flagged:
                status.append("spread >= bound/3")
            if args.sets == 2:
                later = spread([values[metric] for values in runs[name][1]])
                status.append(f"set-2 spread {later['spread']:.3f}")
                if later["spread"] >= spec["bound"] / 3:
                    flagged = True
                second = later["median"]
                worse = (first["median"] - second) if spec["better"] == "higher" else (second - first["median"])
                drift = worse / first["median"] if first["median"] else 0.0
                status.append(f"drift {drift:+.3f}")
                if drift > spec["bound"]:
                    flagged = True
                    status.append("DRIFT > bound")
            verdict |= flagged
            print(
                f"  {metric:16} {first['median']:12.5g} {first['q1']:12.5g} {first['q3']:12.5g}"
                f" {first['spread']:7.3f} {spec['bound']:6.2f}  {' '.join(status) or 'ok'}"
            )
    return verdict


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
