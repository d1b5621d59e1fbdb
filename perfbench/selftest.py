"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py [--seed 0]

For one trial of every (kind, parameter) pair of every workload, every check
must pass on the real output and must report a failure on a copy of the
output damaged by that check's corruption.  Exits 0 when all do.
"""

from __future__ import annotations

import argparse
import copy
import sys

import worker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    worker.load_weaklab()
    import workloads

    bad = 0
    for wi, (wname, wl) in enumerate(workloads.WORKLOADS.items()):
        ctx = wl.context()
        for t, (kind, param) in enumerate(wl.round):
            inp = kind.make(worker.trial_rng(args.seed, wi, t), param)
            rec = kind.extract(inp, kind.run(inp, ctx))
            for name, check, corrupt in kind.checks:
                clean = check(inp, rec)
                damaged = copy.deepcopy(rec)
                corrupt(inp, damaged)
                caught = check(inp, damaged)
                ok = not clean and bool(caught)
                bad += not ok
                status = "ok" if ok else "FAIL"
                detail = clean[0] if clean else (caught[0] if caught else "corruption not reported")
                print(f"{status:4} {wname:13} {kind.name}({param}) {name:20} {detail[:90]}")
    print(f"selftest: {bad} failing check(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
