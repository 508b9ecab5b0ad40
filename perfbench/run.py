"""ssgm benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload mc_ensemble|long_paths|kernel_diagnostics
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (``src/ssgm`` must exist); nothing
is installed, the package is imported from ``src``.  The workload runs in
fresh interpreters started by this script, one at a time:

* ``--trace 0``: ``SETUP_SAMPLES - 1`` interpreters that only import ``ssgm``
  and build the inputs, then one that also runs a warm-up job and timed jobs
  for ``--seconds``.  Prints ``wall_s``, ``cpu_s``, ``peak_rss_mb``,
  ``setup_s`` and ``pass_frac``.
* ``--trace 1``: one interpreter alternating untraced and traced jobs; prints
  the per-layer metrics named in ``BENCHMARK.json``.

``--smoke`` shrinks every workload, skips the warm-up and needs only one job;
it exists to check the result schema quickly (see ``test_smoke.py``).

Human-readable lines and a ``{"report": ...}`` line with the environment,
sample counts and checks come first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_ensemble", "long_paths", "kernel_diagnostics")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def start_worker(args, mode: str, deadline: float):
    """Start a worker; return it with the seconds from spawn to its READY line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    # unbuffered binary pipe: readline() takes no bytes past READY, so
    # communicate() later sees everything after it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    while select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0.0))[0]:
        line = proc.stdout.readline()
        if line.strip() == b"READY":
            return proc, time.perf_counter() - t0
        if not line:
            break
    proc.kill()
    proc.wait()
    raise RuntimeError(f"worker ({mode}) did not get ready, exit {proc.returncode}")


def finish_worker(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [ln for ln in out.decode().splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else {}


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes and job count, for schema checks")
    args = ap.parse_args()

    if not (ROOT / "src" / "ssgm" / "__init__.py").is_file():
        return fail(f"no ssgm sources under {ROOT / 'src'}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    deadline = time.perf_counter() + DEADLINE_S
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setup = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
                proc, t = start_worker(args, "setup", deadline)
                setup.append(t)
                finish_worker(proc, deadline)
        proc, t = start_worker(args, "trace" if args.trace else "measure", deadline)
        setup.append(t)
        result = finish_worker(proc, deadline)
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    jobs = result["jobs"]
    checks = [c for j in jobs for c in j["checks"]]
    attempted = len(checks)
    failed = sum(1 for c in checks if not c[1])
    measured = [j for j in jobs if j["kind"] == "measured"]
    if args.trace:
        values = result["layers"]
        samples = {"traced_jobs": sum(j["kind"] == "traced" for j in jobs),
                   "untraced_jobs": len(measured), "spans": result["spans"]}
    else:
        walls = [j["wall"] for j in measured]
        cpus = [j["cpu"] for j in measured]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "pass_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
        samples = {"wall_s": len(walls), "cpu_s": len(cpus), "peak_rss_mb": 1,
                   "setup_s": len(setup), "pass_frac": attempted}
        for name, vals in (("wall_s", walls), ("cpu_s", cpus), ("setup_s", setup)):
            q1, q2, q3 = quartiles(vals)
            print(f"{name:12s} median {q2:.4f} s  quartiles {q1:.4f}..{q3:.4f}  "
                  f"min {min(vals):.4f} max {max(vals):.4f}  n={len(vals)}")
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        return fail(f"metric set {sorted(values)} does not match BENCHMARK.json {sorted(names)}")

    earlier_failures = [c for j in jobs[:-1] for c in j["checks"] if not c[1]]
    for name, ok, detail in earlier_failures + jobs[-1]["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for m in wanted:
        print(f"{m['name']:34s} {values[m['name']]:.6g} {m['unit']}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "smoke": args.smoke, "git_commit": git_commit(),
        "env": result["env"], "samples": samples, "fail_frac": failed / attempted if attempted else 1.0,
        "jobs": [{k: j[k] for k in ("kind", "wall", "cpu")} for j in jobs],
    }
    if args.trace:
        report["spans_file"] = result["spans_file"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
