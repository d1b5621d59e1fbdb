"""The benchmark harness in ``perfbench/`` still runs against this source tree.

Every check starts a fresh interpreter and only reads ``perfbench/``: the
checks' self-test must pass, and the tracer must find every function it
wraps, so renaming one (say ``SearchSpace.intervals_for``) fails here
rather than in a traced benchmark run.  The workloads' seeded trials must
fit the kept geometry (``grid._kept_geometry``) without an eviction.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def run(args):
    return subprocess.run([sys.executable, *args], cwd=PERFBENCH, capture_output=True, text=True, timeout=300)


def test_checks_selftest_passes():
    proc = run(["selftest.py"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: 0 failing check(s)" in proc.stdout


def test_tracer_installs_on_every_layer():
    proc = run(["-c", "import worker; worker.load_weaklab(); import tracing; tracing.Tracer().install()"])
    assert proc.returncode == 0, proc.stderr[-2000:]


# the warm-up and the first rounds of each workload at seed 0, as worker.py
# draws them, then the kept geometry's lookups
TRAFFIC = """
import json, worker
worker.load_weaklab()
import workloads
from weaklab import grid
out = {}
for wi, (name, w) in enumerate(workloads.WORKLOADS.items()):
    grid._kept_geometry.cache_clear()
    ctx = w.context()
    kind, param = w.round[0]
    kind.run(kind.make(worker.trial_rng(0, wi, 1 << 30), param), ctx)
    for t, (kind, param) in enumerate(w.round * ROUNDS):
        kind.run(kind.make(worker.trial_rng(0, wi, t), param), ctx)
    out[name] = grid._kept_geometry.cache_info()._asdict()
print(json.dumps(out))
"""


def test_workloads_keep_their_geometry_without_eviction():
    # each workload reads a fixed set of (mesh, grid, level window) keys, all
    # kept at once; four rounds reach the keys of eight.  The walk and the
    # maximal sweep on one function share one window, the hull of both.  A
    # change that adds keys revisits the cache size
    proc = run(["-c", TRAFFIC.replace("ROUNDS", "4")])
    assert proc.returncode == 0, proc.stderr[-2000:]
    info = json.loads(proc.stdout)
    for name, cache in info.items():
        assert cache["misses"] == cache["currsize"] <= cache["maxsize"], (name, cache)
    assert {name: cache["currsize"] for name, cache in info.items()} == {
        "sparse-suite": 5, "weak-type": 10, "matrix-suite": 7,
    }
