"""The benchmark harness in ``perfbench/`` still runs against this source tree.

Both checks start a fresh interpreter and only read ``perfbench/``: the
checks' self-test must pass, and the tracer must find every function it
wraps, so renaming one (say ``SearchSpace.intervals_for``) fails here
rather than in a traced benchmark run.
"""

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
