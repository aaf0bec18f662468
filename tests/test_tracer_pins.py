"""perfbench's tracer wraps roundquery's functions and methods where their
callers look them up, by name, and restores them afterwards; a pinned
name that moves or goes makes installing it fail.  This runs the tracer
over one `sorting-vc`, one `sel-value` and one `sel-full` trial in a
fresh interpreter, so its patches never touch the modules of the test
session, even when installing fails; each algorithm's rounds must be
counted under its own name."""

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
for name, source in (
    ("sel-value", "random:problem=selection-value,n=40,k=3,i=20"),
    ("sel-full", "random:problem=selection-full,n=40,k=3,i=20"),
):
    instance, oracle = harness.resolve_source(source)
    harness.run(harness.make_algorithm(name, instance), instance, oracle)
for name in ("sorting-vc", "sel-value", "sel-full"):
    print(tracer.rec.calls["algorithms.next_round." + name])
tracer.restore()
print("restored")
"""


def test_tracer_installs_counts_sorting_vc_and_restores():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *calls, restored = done.stdout.split()
    assert len(calls) == 3 and all(int(count) > 0 for count in calls)
    assert restored == "restored"
