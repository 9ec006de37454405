"""polarblock benchmark launcher.  From the repository root:

    python3 perfbench/run.py --workload build_ladder --seed 1 --seconds 10 --trace 0

Each pass runs in a fresh single-threaded worker process (worker.py): one
caller, problems back to back, as a user runs the CLI.  Workers are started
until the measured passes add up to --seconds; every run makes at least one
pass.  Set-up is timed from process start to the end of preparation, in
several fresh processes when it is short, and reported as the median.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same untraced passes plus one traced pass and reports the per-layer
metrics; the traced pass writes its spans to .perfbench/.

The next-to-last stdout line is the full report (every metric, per-problem
detail, failures, environment); the last line is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build_ladder", "search_exact", "classify_census")

SETUP_SAMPLES = 5        # fresh-process set-ups per run, at most ...
SETUP_SAMPLE_S = 3.0     # ... while their total stays under this
MAX_PASSES = 20
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               POLARBLOCK_BUDGET_SECS="1e9")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args, *extra) -> dict:
    """Run one worker; return its outcome plus its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by both processes
    out["setup_s"] = out["ready_at"] - t0
    return out


def measured_passes(args) -> list[dict]:
    runs = []
    while len(runs) < MAX_PASSES:
        runs.append(spawn(args))
        if sum(r["wall_s"] for r in runs) >= args.seconds:
            break
    return runs


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": git_revision(),
            "seed": args.seed, "workload": args.workload, "workloads": list(WORKLOADS),
            "traced": bool(args.trace), "smoke": args.smoke}


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.startswith("search.nodes."):
        return "count"
    if name.startswith("search.nodes_per_s."):
        return "1/s"
    if name.endswith("_mb") or ".meets_mb." in name:
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


def merge_metrics(runs) -> dict:
    """Median over passes of every workload metric."""
    return {k: median([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polarblock benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny spaces, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polarblock" / "__init__.py").is_file():
        print(f"no polarblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = measured_passes(args)
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_SAMPLE_S:
        setups.append(spawn(args, "--setup-only")["setup_s"])
    checked = list(runs)
    wall_s = median([r["wall_s"] for r in runs])
    report = {
        "setup_s": median(setups),
        "setup_samples": len(setups),
        "wall_s": wall_s,
        "passes": len(runs),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        **merge_metrics(runs),
    }
    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
        traced = spawn(args, "--trace", "1", "--spans", str(spans))
        checked.append(traced)
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / wall_s - 1
        report["layers"] = layers
        report["spans"] = str(spans.relative_to(ROOT))
        metrics = layers
    else:
        metrics = {k: report[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}

    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    report.update(attempted=attempted, failed=failed,
                  fail_frac=failed / attempted if attempted else 1.0,
                  failures=[f for r in checked for f in r["failures"]][:20],
                  detail=runs[0]["detail"], environment=environment(args))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
