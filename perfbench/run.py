"""heterobaker benchmark: two seeded workloads, each in fresh processes.

    python3 perfbench/run.py --workload float|exact|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  For each workload the command starts SETUP_SAMPLES processes: the
first SETUP_SAMPLES - 1 only set up, the last also runs jobs for S seconds
(at least 20 of them).  Every job checks its outputs.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see README.md).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything else (per-job times, spans, run metadata) goes to
.perfbench_out/ in the checkout.  The exit code is 0 only if every job
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("float", "exact")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _worker(workload, args, result: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    # the worker's stdout goes to our stderr: our stdout ends with the result
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=sys.stderr,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def run_workload(workload: str, args, deadline: float) -> tuple[dict, list[str]]:
    """Metrics, attempted and failed job counts, and printable lines."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    setups = [_worker(workload, args, out / f"setup-{stem}.json", True,
                      deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(workload, args, out / f"result-{stem}.json", False, deadline)
    setups.append(res["setup_s"])

    failures = [f for p in res["phases"] for f in p["failures"]]
    failed = sum(1 for f in failures if f)
    attempted = len(failures)
    meta = dict(res["meta"], setup_samples_s=setups)
    lines = []
    if args.trace:
        metrics = res["metrics"]
        lines += [f"{workload:9s} {k:48s} {v:.6g}" for k, v in metrics.items()]
    else:
        phase = res["phases"][0]
        cpu = phase["cpu_times"]
        tail_s, pct, beyond = tail(cpu)
        passed = sum(1 for f in phase["failures"] if not f)
        metrics = {
            "setup_s": statistics.median(setups),
            "job_cpu_p50_s": statistics.median(cpu),
            "job_cpu_tail_s": tail_s,
            "jobs_per_cpu_s": passed / sum(cpu),
            "peak_rss_mib": res["peak_rss_mib"],
            "pass_ratio": passed / len(cpu),
        }
        # wall-clock figures and fail_ratio are printed, not gated
        shown = {"job_wall_p50_s": (statistics.median(phase["times"]), "s"),
                 "jobs_per_wall_s": (passed / phase["wall_s"], "1/s"),
                 "fail_ratio": (failed / attempted, "ratio")}
        meta.update(tail_percentile=pct, tail_jobs_beyond=beyond,
                    **{k: v for k, (v, _) in shown.items()})
        units = _units()
        for k, v in metrics.items():
            note = (f"  (p{pct:.1f} of {len(cpu)} jobs, {beyond} beyond)"
                    if k == "job_cpu_tail_s" else "")
            lines.append(f"{workload:9s} {k:15s} {v:12.6g} {units[k]}{note}")
        for k, (v, unit) in shown.items():
            lines.append(f"{workload:9s} {k:15s} {v:12.6g} {unit}")
    res["meta"] = meta
    with open(out / f"result-{stem}.json", "w") as fh:
        json.dump(res, fh)
    lines.append(f"# meta {json.dumps(meta)}")
    for f in failures:
        if f:
            lines.append(f"# FAILED {workload}: {'; '.join(f)[:500]}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "heterobaker" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'heterobaker'}",
              file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        res, lines = run_workload(workload, args, deadline)
        print("\n".join(lines), flush=True)
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        units = _units()
        for k, v in res["metrics"].items():
            key = k if len(chosen) == 1 else f"{workload}.{k}"
            total["metrics"][key] = {"value": v, "unit": units[k]}
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
