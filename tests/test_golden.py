"""Golden regression: the committed bench spec reproduces its committed CSV
byte for byte, so rounds, queries, optima and wasted counts of every
algorithm and problem kind stay fixed across refactors; so do the long
runs of the two large workloads: minimum-large, where the knowledge state
and minimum solvedness do the work, and selection-sorting-large, where the
rank cuts, the sorting sweeps and the sorting optimum do."""

import importlib
import sys
from pathlib import Path

import roundquery
from roundquery.harness import parse_bench_spec, sweep, sweep_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_sweep_small_matches_golden_csv():
    spec = (PERFBENCH / "sweep-small.rq").read_text(encoding="utf-8")
    golden = (PERFBENCH / "golden" / "sweep-small.csv").read_bytes()
    rows = sweep(parse_bench_spec(spec), jobs=1)
    assert sweep_csv(rows).encode("utf-8") == golden


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def _large_workload_text(name):
    workload = _perfbench_module("workloads").WORKLOADS[name]
    trials = workload.prepare(roundquery, 0)
    outcomes = [trial.fn() for trial in trials]
    return workload.golden_text(roundquery, trials, outcomes)


def test_minimum_large_matches_golden_csv():
    golden = (PERFBENCH / "golden" / "minimum-large.csv").read_text(encoding="utf-8")
    assert _large_workload_text("minimum-large") == golden


def test_selection_sorting_large_matches_golden_csv():
    golden = (PERFBENCH / "golden" / "selection-sorting-large.csv").read_text(encoding="utf-8")
    assert _large_workload_text("selection-sorting-large") == golden


def _patchable(rq):
    """Snapshot of every module of the package and every class defined in
    one: all the places the tracer may patch."""
    modules = [rq.harness, rq.algorithms, rq.solving, rq.intervals, rq.oracles, rq.reductions]
    classes = [
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__ == m.__name__
    ]
    return {owner: dict(vars(owner)) for owner in modules + classes}


def _changed(snapshot):
    return [
        (owner, attr)
        for owner, attrs in snapshot.items()
        for attr, original in attrs.items()
        if vars(owner).get(attr) is not original
    ]


def test_perfbench_tracer_finds_and_restores_every_entry_point():
    # the tracer wraps entry points by name; a renamed or dropped one fails
    # here rather than in every benchmark run
    tracer = _perfbench_module("tracer")
    snapshot = _patchable(roundquery)
    try:
        capture = tracer.Capture(roundquery)
        traced = tracer.Tracer(roundquery)
        assert roundquery.harness.run is not snapshot[roundquery.harness]["run"]
        assert _changed(snapshot)
        traced.restore()
        capture.restore()
        assert _changed(snapshot) == []
    finally:
        # a Tracer that fails partway leaves no patch behind for later tests
        for owner, attr in _changed(snapshot):
            setattr(owner, attr, snapshot[owner][attr])
