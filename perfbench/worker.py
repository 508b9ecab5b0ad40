"""One fresh interpreter that runs one workload.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure|trace
                                [--seconds S] [--smoke]

It imports ``ssgm`` (from ``PYTHONPATH``), builds the workload inputs and
prints ``READY``; ``run.py`` times interpreter start to that line as
``setup_s``.  In ``setup`` mode it then exits.  Otherwise it runs one
untraced warm-up job, records the peak RSS, and runs jobs back to back (a
closed loop with one client) until ``--seconds`` have passed and enough jobs
were run.  In ``trace`` mode the jobs alternate untraced and traced.  The
last line of standard output is one JSON object with the job records.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads  # imports ssgm and ssgm.cli: part of the set-up being timed

ROOT = Path(__file__).resolve().parent.parent
MIN_MEASURED_JOBS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_record() -> dict:
    """BLAS vendor from numpy's build config, thread count from each loaded OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": {}}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        # numpy and scipy wheels each bundle a prefixed OpenBLAS (64- and 32-bit ints)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"][os.path.basename(path)] = fn()
                break
    return record


def env_record() -> dict:
    return {
        "nproc": nproc(),
        "blas": blas_record(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_job(workload) -> dict:
    gc.collect()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        checks = workload.job()
    except Exception:  # a job that raises is reported as a failed check, not a crash
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        checks = [workloads.Check("job", False, error.strip().splitlines()[-1])]
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return {"wall": t1 - t0, "cpu": cpu, "checks": [[c.name, bool(c.ok), c.detail] for c in checks]}


def layer_summary(tracer: spans.Tracer, jobs: list) -> dict:
    """Median over traced jobs of each per-layer metric, plus the tracing overhead."""
    traced = [j for j in jobs if j["kind"] == "traced"]
    per_job = [spans.layer_metrics(tracer.spans, j["job"], nproc()) for j in traced]
    out = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    out["trace_overhead_s"] = (statistics.median(j["wall"] for j in traced)
                               - statistics.median(j["wall"] for j in jobs if j["kind"] == "measured"))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke, nproc())
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        tracing = args.mode == "trace"
        tracer = spans.Tracer()
        jobs = []
        rss_mb = None
        if not args.smoke:
            jobs.append(dict(run_job(workload), kind="warmup"))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        start = time.perf_counter()
        # trace runs need one untraced and one traced job; smoke runs need one job
        min_jobs = 2 if tracing else 1 if args.smoke else MIN_MEASURED_JOBS
        measured = 0
        while measured < min_jobs or time.perf_counter() - start < args.seconds:
            traced = tracing and measured % 2 == 1
            if traced:
                tracer.job = measured
                tracer.install()
            try:
                record = run_job(workload)
            finally:
                tracer.uninstall()
            jobs.append(dict(record, kind="traced" if traced else "measured", job=measured))
            measured += 1
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {"env": env_record(), "peak_rss_mb": rss_mb, "jobs": jobs}
        if tracing:
            result["layers"] = layer_summary(tracer, jobs)
            name = f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl"
            tracer.write(scratch / name)
            result["spans_file"] = str(Path(".perfbench") / name)
            result["spans"] = len(tracer.spans)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
