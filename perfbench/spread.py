"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload exact [--runs 10]

Runs seeds 1, 2, ..., runs one after another, untraced, for the
run_seconds of BENCHMARK.json.  For every metric it prints the median
over the runs and the distance between the first and third quartile as a
share of that median, next to the bound in BENCHMARK.json.  The last line
of standard output holds the same figures, with the quartiles, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs needs at least 2 runs for quartiles")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, "
                  f"failed {result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = spread(vals) if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share}
        bound = bounds.get(name)
        print(f"{name:48s} median {med:12.6g}  spread {share:8.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
