"""weaklab benchmark: one workload per call, in fresh single-threaded processes.

    python3 perfbench/run.py --workload sparse-suite --seed 1 --seconds 25 --trace 0

Workloads: sparse-suite, weak-type, matrix-suite (see perfbench/README.md).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

The seeded trial list of a run is split into ``PARTS`` consecutive blocks of
whole rounds, each run by its own fresh process, one after the other.  Each
process sets up once, so a run gets ``PARTS`` set-up samples (``setup_s`` is
their median) while every process also does timed work.  Every process runs
with OpenBLAS/OpenMP pinned to one thread and a fixed hash seed.  A failing
process makes this command exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("sparse-suite", "weak-type", "matrix-suite")
PARTS = 5
TAIL_BEYOND = 10  # trial_tail_s: the slowest trial with ten trials beyond it
TIMEOUT_S = 170.0

ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # weaklab is compiled from source at every start, as in a fresh checkout
    "PYTHONDONTWRITEBYTECODE": "1",
}


def run_part(args, part: int, deadline: float) -> dict:
    env = dict(os.environ, **ENV)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--part", str(part), "--parts", str(PARTS)]
    env["PERFBENCH_T0"] = repr(time.perf_counter())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process {part} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload process {part} printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + TIMEOUT_S
    # on SIGTERM, subprocess.run kills and reaps the running workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        parts = [run_part(args, k, deadline) for k in range(PARTS)]
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish within {TIMEOUT_S:g} s", file=sys.stderr)
        return 3
    except RuntimeError as e:
        print(str(e), file=sys.stderr)
        return 2

    trials = [t for p in parts for t in p["trials"]]
    times = sorted(t[2] for t in trials)
    n = len(times)
    tail_rank = n - TAIL_BEYOND - 1
    for p in parts:
        for m in p["issues"]:
            print(f"check failed: {m}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-trials.csv"), "w") as fh:
        fh.write("trial,kind,seconds\n")
        fh.writelines(f"{t},{kind},{s:.9f}\n" for t, kind, s in trials)
    summary = {
        "trials": n,
        "tail_percentile": round(100.0 * (tail_rank + 1) / n, 2),
        "trial_p50_s": statistics.median(times),
        "setup_s_samples": [p["setup_s"] for p in parts],
    }
    print(json.dumps({"summary": summary}), file=sys.stderr)

    if args.trace:
        sys.path.insert(0, HERE)
        import tracing

        metrics = tracing.layer_metrics([p["totals"] for p in parts])
    else:
        timed = sum(p["timed_s"] for p in parts)
        metrics = {
            "setup_s": {"value": statistics.median(summary["setup_s_samples"]), "unit": "s"},
            "trials_per_s": {"value": n / timed, "unit": "1/s"},
            "trial_p50_s": {"value": summary["trial_p50_s"], "unit": "s"},
            "trial_tail_s": {"value": times[tail_rank], "unit": "s"},
            "peak_rss_mb": {"value": max(p["rss_mb"] for p in parts), "unit": "MiB"},
        }
    result = {
        "correct": sum(p["n_issues"] for p in parts) == 0,
        "attempted": n,
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
