"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--runs 10] [--seconds 30]

For every workload: ``--runs`` untraced runs (seeds 1..runs), then one
traced run. Prints, per end-to-end metric, the median over the runs and
the spread (distance between the first and third quartile over the
median), then the traced run's per-layer figures. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args()
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = [run(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed share {sorted(shares)}")
        print("| metric | median | spread |\n|---|---|---|")
        for metric in BENCHMARK["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"| `{metric['name']}` ({metric['unit']}) | {median:.4g} | "
                  f"{(q3 - q1) / median:.3f} |")
        traced = run(workload, 1, args.seconds, 1)
        print(f"\n{workload} traced run, correct: {traced['correct']}")
        for name, value in traced["metrics"].items():
            print(f"  {name:40s} {value['value']:.4g} {value['unit']}")


if __name__ == "__main__":
    main()
