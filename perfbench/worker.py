"""One benchmark process: one part of one workload's trial list (started by run.py).

Phases:

1. set-up: imports, this part's seeded trial inputs, the workload's shared
   context and one untimed warm-up trial with inputs of its own.  Set-up
   time runs from the moment run.py started this process (``PERFBENCH_T0``,
   a ``time.perf_counter`` reading; the clock is system-wide) to the first
   timed trial.
2. timed phase: this part's whole rounds of trials.  After each round the
   clock is stopped, tracing is paused, and every output of the round is
   checked.
3. report: one JSON line on stdout with the raw figures run.py combines.

weaklab is imported from ``src/`` of the checkout that holds this file and
from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

MIN_TRIALS = 12  # the tail needs ten trials beyond it


def load_weaklab():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import weaklab

    if os.path.dirname(os.path.dirname(os.path.abspath(weaklab.__file__))) != SRC:
        raise ImportError(f"weaklab was imported from {weaklab.__file__}, not from {SRC}")


def trial_rng(seed: int, workload_index: int, trial: int):
    import numpy as np

    return np.random.default_rng([seed, workload_index, trial])


def n_rounds(workload, seconds: int, parts: int) -> int:
    """Rounds in a run: as many as take --seconds on the reference host.

    Fixed by --seconds alone, so every run at one seed times the same trials.
    """
    return max(parts, math.ceil(MIN_TRIALS / len(workload.round)), round(seconds / workload.round_seconds))


def part_rounds(rounds: int, part: int, parts: int) -> range:
    return range(part * rounds // parts, (part + 1) * rounds // parts)


def check_trial(kind, inp, out) -> list[str]:
    rec = kind.extract(inp, out)
    issues = []
    for name, check, _ in kind.checks:
        issues += [f"{kind.name}/{name}: {m}" for m in check(inp, rec)]
    return issues


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args(argv)
    t_start = float(os.environ.get("PERFBENCH_T0", time.perf_counter()))

    load_weaklab()
    import workloads

    wi = list(workloads.WORKLOADS).index(args.workload)
    workload = workloads.WORKLOADS[args.workload]
    per_round = len(workload.round)
    rounds = part_rounds(n_rounds(workload, args.seconds, args.parts), args.part, args.parts)
    batches = [
        [(r * per_round + j, kind, kind.make(trial_rng(args.seed, wi, r * per_round + j), param))
         for j, (kind, param) in enumerate(workload.round)]
        for r in rounds
    ]
    warm_kind, warm_param = workload.round[0]
    warm_inp = warm_kind.make(trial_rng(args.seed, wi, (1 << 30) + args.part), warm_param)
    ctx = workload.context()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    warm_out = warm_kind.run(warm_inp, ctx)
    setup_s = time.perf_counter() - t_start
    issues = check_trial(warm_kind, warm_inp, warm_out)

    trials, failed, timed = [], 0, 0.0
    for batch in batches:
        outs = []
        if tracer:
            tracer.active = True
        t_round = time.perf_counter()
        for t, kind, inp in batch:
            if tracer:
                tracer.trial = t
            t0 = time.perf_counter()
            try:
                out = kind.run(inp, ctx)
            except Exception:  # a failing trial is counted and reported, the run goes on
                out = traceback.format_exc(limit=3)
            trials.append([t, kind.name, time.perf_counter() - t0])
            outs.append(out)
        timed += time.perf_counter() - t_round
        if tracer:
            tracer.active = False
        for (t, kind, inp), out in zip(batch, outs):
            found = [f"trial {t} raised: {out}"] if isinstance(out, str) else check_trial(kind, inp, out)
            failed += bool(found)
            issues += found

    result = {
        "setup_s": setup_s,
        "timed_s": timed,
        "trials": trials,
        "failed": failed,
        "issues": issues[:20],
        "n_issues": len(issues),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["totals"] = tracer.totals()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-part{args.part}-spans.jsonl.gz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "part": args.part})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
