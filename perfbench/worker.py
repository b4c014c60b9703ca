"""One workload in its own process: set up, run timed jobs, write a result.

Started by run.py, never by hand:

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
        --t0 MONOTONIC --result PATH [--setup-only]

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers process start, `import heterobaker` and input
generation.  With `--setup-only` the process stops there.

After set-up the process caps its own address space (RLIMIT_AS) at its
current size plus AS_HEADROOM, so a job whose grid blows up raises
MemoryError and fails instead of exhausting the machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import LAYERS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
AS_HEADROOM = 1536 << 20
MIN_JOBS = 20          # so the tail percentile is at least the median
MIN_TRACE_JOBS = 5     # untraced and traced pairs in a traced run
MAX_PHASE_S = 120.0


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import heterobaker as hb
    src = (ROOT / "src" / "heterobaker").resolve()
    if Path(hb.__file__).resolve().parent != src:
        raise ImportError(f"heterobaker imported from {hb.__file__}, not {src}")
    for layer in LAYERS:
        importlib.import_module(f"heterobaker.{layer}")
    return hb


def _vm_size() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise OSError("VmSize not found in /proc/self/status")


def _cap_address_space() -> int:
    limit = _vm_size() + AS_HEADROOM
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return limit


def _timed_job(workload, i: int, observe, phase: dict) -> None:
    """Run job i and append its wall time, its CPU time (all threads of the
    process) and its failed checks to `phase`."""
    t, c = time.perf_counter(), time.process_time()
    try:
        fails = workload.job(i, observe)
    except MemoryError:
        fails = ["MemoryError (address-space limit reached)"]
    except Exception:  # a raising job counts as failed; keep measuring
        fails = [traceback.format_exc(limit=3)]
    phase["times"].append(time.perf_counter() - t)
    phase["cpu_times"].append(time.process_time() - c)
    phase["failures"].append(fails)


def _phase() -> dict:
    return {"times": [], "cpu_times": [], "failures": [], "wall_s": 0.0}


def run_jobs(workload, seconds: float, min_jobs: int, observe) -> dict:
    """Jobs 0, 1, ... until `seconds` have passed, `min_jobs` ran and the
    job count is a multiple of the workload's period."""
    phase = _phase()
    start = time.perf_counter()
    while (len(phase["times"]) < min_jobs or len(phase["times"]) % workload.period
           or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < MAX_PHASE_S:
        _timed_job(workload, len(phase["times"]), observe, phase)
    phase["wall_s"] = time.perf_counter() - start
    return phase


def _per_layer(hb, workload, name: str, seconds: float, seed: int) -> dict:
    """Each job untraced and traced, one after the other; per-job layer
    metrics.

    One untimed job warms the process up first.  The two runs of a job
    follow each other, in alternating order, so both medians see the same
    state of process and host and `trace_overhead_ratio` compares like
    with like."""
    tracer = Tracer()

    def count_records(tr, series):
        tr.notes["correlation.terms"].append(len(series))
        tr.notes["correlation.max_num_bits"].append(max(
            (r.exact.numerator.bit_length() for r in series if r.exact is not None),
            default=0))

    def count_cells(tr, F):
        tr.notes["transfer.p_full_3d.out_cells"].append(
            (len(F.bps_u) - 1) * (len(F.bps_c) - 1) * (len(F.bps_s) - 1))

    def observe(obs):
        return dataclasses.replace(obs, fn=tracer.wrap("observables.eval", obs.fn))

    hooks = {"correlation.exact_reduced_correlation": count_records,
             "transfer.p_full_3d": count_cells}
    plain, traced = _phase(), _phase()
    steps = 0

    def plain_job(i):
        _timed_job(workload, i, lambda obs: obs, plain)

    def traced_job(i):
        nonlocal steps
        tracer.install(hb, hooks=hooks)
        steps_before = getattr(workload, "sample_steps", 0)
        try:
            _timed_job(workload, i, observe, traced)
        finally:
            tracer.uninstall()
        steps += getattr(workload, "sample_steps", 0) - steps_before

    _timed_job(workload, 0, lambda obs: obs, _phase())
    start = time.perf_counter()
    while (len(plain["times"]) < MIN_TRACE_JOBS
           or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < MAX_PHASE_S:
        i = len(plain["times"])
        for job in ((plain_job, traced_job) if i % 2 == 0
                    else (traced_job, plain_job)):
            job(i)
    for phase in (plain, traced):
        phase["wall_s"] = sum(phase["times"])
    out_dir = ROOT / ".perfbench_out"
    tracer.save(out_dir / f"spans-{name}-seed{seed}.npz")

    spans = summarize(tracer)
    jobs = len(traced["times"])

    def fn(key, field="self_s"):
        return spans.get(key, {}).get(field, 0) / jobs

    metrics = {}
    for layer in LAYERS:
        mine = [s for key, s in spans.items() if key.startswith(layer + ".")]
        metrics[f"{layer}.self_s"] = sum(s["self_s"] for s in mine) / jobs
        metrics[f"{layer}.calls"] = sum(s["calls"] for s in mine) / jobs
    for key in ("correlation.exact_reduced_correlation", "transfer.p0_apply",
                "transfer.p0_haar_step", "transfer.p0_apply_pa",
                "transfer.oracle_equivalence_report",
                "correlation.mc_correlation_series",
                "correlation.measure_invariance_chisq", "transfer.p_full_3d",
                "transfer.p_full_2d", "transfer.component_split_apply"):
        metrics[f"{key}.self_s"] = fn(key)
    metrics["ruin.step.calls"] = fn("ruin.step", "calls")
    metrics["correlation.terms"] = sum(tracer.notes["correlation.terms"]) / jobs
    metrics["correlation.max_num_bits"] = max(
        tracer.notes["correlation.max_num_bits"], default=0)
    mc_s = sum(spans.get(k, {}).get("total_s", 0.0) for k in
               ("correlation.mc_correlation_series",
                "correlation.measure_invariance_chisq"))
    metrics["mc.sample_steps_per_s"] = steps / mc_s if mc_s else 0.0
    metrics["observables.eval_s"] = fn("observables.eval", "total_s")
    metrics["observables.evals"] = fn("observables.eval", "calls")
    metrics["transfer.p_full_3d.out_cells"] = \
        sum(tracer.notes["transfer.p_full_3d.out_cells"]) / jobs
    metrics["job_wall_p50_s"] = statistics.median(plain["times"])
    metrics["trace_overhead_ratio"] = (statistics.median(traced["cpu_times"])
                                       / statistics.median(plain["cpu_times"]))
    return {"metrics": metrics, "phases": [plain, traced], "spans": spans}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
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
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    hb = _import_package()
    from workloads import WORKLOADS
    limit = _cap_address_space()
    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](hb, args.seed, str(workdir))
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            import numpy
            import scipy
            if args.trace:
                traced = _per_layer(hb, workload, args.workload, args.seconds,
                                    args.seed)
                phases = traced.pop("phases")
                result.update(traced)
            else:
                phases = [run_jobs(workload, args.seconds, MIN_JOBS,
                                   lambda obs: obs)]
            result["phases"] = phases
            result["peak_rss_mib"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["meta"] = {
                "workload": args.workload, "seed": args.seed,
                "run_seconds": args.seconds, "trace": args.trace,
                "jobs": sum(len(p["times"]) for p in phases),
                "nproc": os.cpu_count(), "workers": workload.workers,
                "rlimit_as_bytes": limit,
                "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "cpu": _cpu_model(), "git_commit": _git_commit(),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
