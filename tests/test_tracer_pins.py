"""perfbench's tracer wraps roundquery's functions and methods where their
callers look them up, by name, and restores them afterwards; a pinned
name that moves or goes makes installing it fail.  This runs the tracer
over one `sorting-vc` trial in a fresh interpreter, so its patches never
touch the modules of the test session, even when installing fails."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import roundquery
from tracer import Tracer

tracer = Tracer(roundquery)
harness = roundquery.harness
instance, oracle = harness.resolve_source("fig1-pairs:c=2,k=2")
harness.run(harness.make_algorithm("sorting-vc", instance), instance, oracle)
print(tracer.rec.calls["algorithms.next_round.sorting-vc"])
tracer.restore()
print("restored")
"""


def test_tracer_installs_counts_sorting_vc_and_restores():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls, restored = done.stdout.split()
    assert int(calls) > 0
    assert restored == "restored"
