"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 20 --trace 0

Run from the repository root; roundquery is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, all times in normalised seconds (see clock.py); with
--trace 1 they are the per-layer sums over one pass of the workload (times
are the median over the traced passes, counts must repeat exactly).  The line before
it holds context: raw seconds, every reference-loop time, failed_frac.
Full context and the spans of a traced pass go to perfbench/out/.  The exit
code is 0 only when every outcome was correct.

    python3 perfbench/run.py --workload sweep-small --write-golden

rewrites the workload's golden file from one pass at the default seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from clock import BlockTimer
from tracer import Capture, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, Trial, golden_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 5
BLOCK_S = 0.5  # raw seconds of trials between two reference loops
MAX_ERRORS_SHOWN = 5


def import_roundquery():
    """Fresh import of the package from ./src, dropping any earlier copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "roundquery" or m.startswith("roundquery.")]:
        del sys.modules[name]
    rq = importlib.import_module("roundquery")
    where = Path(rq.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"roundquery was imported from {where}, not from {SRC}")
    return rq


class Checker:
    """Counts trial attempts and failures.  A trial fails if it raises or its
    outcome differs from the golden row (default seed) or from its own first
    outcome in this run (other seeds)."""

    def __init__(self, expected: Optional[Dict[str, Outcome]]) -> None:
        self.expected: Dict[str, Outcome] = dict(expected or {})
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def attempt(self, trial: Trial, call) -> Optional[Outcome]:
        self.attempted += 1
        try:
            outcome = call()
        except Exception as exc:  # a failing trial must not stop the others
            self.fail(f"{trial.name}: {type(exc).__name__}: {exc}")
            return None
        want = self.expected.setdefault(trial.name, outcome)
        if outcome != want:
            self.fail(f"{trial.name}: got {outcome}, expected {want}")
        return outcome

    def compare(self, label: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"{label}: outputs differ")


def setup(workload, seed: int, reps: int):
    """Import + prepare, `reps` times; returns the last (rq, trials) and the
    timer holding every repetition."""
    timer = BlockTimer(block_s=0.0)
    for _ in range(reps):
        rq, trials = timer.time("setup", lambda: _prepared(workload, seed))
    return rq, trials, timer


def _prepared(workload, seed: int):
    rq = import_roundquery()
    return rq, workload.prepare(rq, seed)


def start_checker(workload, trials: Sequence[Trial], seed: int) -> Checker:
    checker = Checker(None)
    try:
        checker.expected = golden_for(workload, trials, seed) or {}
    except (OSError, ValueError) as exc:
        checker.attempted += 1
        checker.fail(f"golden file: {exc}")
    return checker


def check_golden_text(workload, rq, trials, outcomes, checker: Checker, seed: int) -> None:
    """At the default seed, the pass's CSV must equal the golden file."""
    if seed != DEFAULT_SEED or None in outcomes:
        return
    want = workload.golden_file.read_text() if workload.golden_file.exists() else None
    checker.compare(workload.golden_file.name, workload.golden_text(rq, trials, outcomes), want)


def warm_up(workload, rq, trials, checker: Checker, seed: int) -> None:
    """One untimed, checked pass, for workloads whose trials are short
    enough that first-execution costs would show."""
    if workload.warm_up:
        outcomes = [checker.attempt(trial, trial.fn) for trial in trials]
        check_golden_text(workload, rq, trials, outcomes, checker, seed)


def timed_run(workload, seed: int, seconds: float) -> dict:
    setup_start = perf_counter()
    rq, trials, setup_timer = setup(workload, seed, SETUP_REPS)
    setup_wall_s = perf_counter() - setup_start
    checker = start_checker(workload, trials, seed)
    warm_up(workload, rq, trials, checker, seed)
    timer = BlockTimer(block_s=BLOCK_S)
    start = perf_counter()
    passes = 0
    while True:
        outcomes = []
        for trial in trials:
            outcomes.append(checker.attempt(trial, lambda: timer.time(trial.name, trial.fn)))
            if passes and perf_counter() - start >= seconds:
                break
        else:
            passes += 1
            if passes == 1 and not workload.warm_up:
                check_golden_text(workload, rq, trials, outcomes, checker, seed)
            if perf_counter() - start < seconds:
                continue
        break
    timer.close_block()
    wall_s = perf_counter() - start

    per_trial = timer.medians()
    raw_per_trial = {key: statistics.median(v) for key, v in timer.raw.items()}
    metrics = {
        "setup_s": (statistics.median(setup_timer.norm["setup"]), "s"),
        "work_s": (sum(per_trial.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    context = {
        "failed_frac": checker.failed / checker.attempted,
        "trial_p50_s": statistics.median(per_trial.values()),
        "passes": passes,
        "trials": len(trials),
        "samples": sum(len(v) for v in timer.norm.values()),
        "wall_s": wall_s,
        "setup_wall_s": setup_wall_s,
        "raw_setup_s": setup_timer.raw["setup"],
        "raw_work_s": sum(raw_per_trial.values()),
        "raw_trial_p50_s": statistics.median(raw_per_trial.values()),
        "setup_ref_s": setup_timer.refs,
        "ref_s": timer.refs,
    }
    detail = {"raw_s": dict(timer.raw), "norm_s": dict(timer.norm)}
    return _result(checker, metrics, context, detail)


def _pass(workload, rq, seed: int, checker: Checker, timer: BlockTimer, traced: bool):
    """prepare + every trial once, with run outputs captured; the tracer (if
    any) covers both parts, which are timed apart."""
    side = "traced" if traced else "untraced"
    capture = Capture(rq)
    tracer = Tracer(rq) if traced else None
    try:
        trials = timer.time("prepare:" + side, lambda: workload.prepare(rq, seed))
        timer.time("trials:" + side, lambda: _each_trial(trials, checker, tracer))
    finally:
        if tracer is not None:
            tracer.restore()
        capture.restore()
    return capture.outputs, tracer


def _each_trial(trials: Sequence[Trial], checker: Checker, tracer: Optional[Tracer]) -> None:
    for index, trial in enumerate(trials):
        if tracer is not None:
            tracer.rec.trial = index
        checker.attempt(trial, trial.fn)


def traced_run(workload, seed: int, seconds: float) -> dict:
    rq, trials, _ = setup(workload, seed, 1)
    checker = start_checker(workload, trials, seed)
    warm_up(workload, rq, trials, checker, seed)
    timer = BlockTimer(block_s=0.0)
    start = perf_counter()
    layers: List[Dict[str, float]] = []
    first_tracer = None
    while not layers or perf_counter() - start < seconds:
        plain, _ = _pass(workload, rq, seed, checker, timer, traced=False)
        traced, tracer = _pass(workload, rq, seed, checker, timer, traced=True)
        checker.compare("traced vs untraced run outputs", traced, plain)
        layers.append(tracer.layer_metrics())
        first_tracer = first_tracer or tracer

    counts = {name: value for name, value in layers[0].items() if not name.endswith("_s")}
    for later in layers[1:]:
        checker.compare("per-layer counts of two traced passes",
                        {name: later[name] for name in counts}, counts)
    metrics = {}
    for name in layers[0]:
        if name.endswith("_s"):
            metrics[name] = (statistics.median(layer[name] for layer in layers), "s")
        else:
            metrics[name] = (counts[name], "frac" if name.endswith("_frac") else "count")
    plain_s = statistics.median(timer.norm["trials:untraced"])
    traced_s = statistics.median(timer.norm["trials:traced"])
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    first_tracer.rec.write_jsonl(spans_file)
    context = {
        "failed_frac": checker.failed / checker.attempted,
        "traced_passes": len(layers),
        "spans": len(first_tracer.rec.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "raw_s": dict(timer.raw),
        "ref_s": timer.refs,
    }
    return _result(checker, metrics, context, {"layers": layers})


def _result(checker: Checker, metrics, context, detail) -> dict:
    context["errors"] = checker.errors[:MAX_ERRORS_SHOWN]
    return {
        "summary": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
        "context": context,
        "detail": detail,
    }


def write_golden(workload) -> None:
    rq, trials, _ = setup(workload, DEFAULT_SEED, 1)
    outcomes = [trial.fn() for trial in trials]
    workload.golden_file.parent.mkdir(exist_ok=True)
    workload.golden_file.write_text(workload.golden_text(rq, trials, outcomes))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.write_golden:
            write_golden(workload)
            return 0
        run = traced_run if args.trace else timed_run
        result = run(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"error: cannot import roundquery from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump(result, out)
    print(json.dumps({"context": result["context"]}))
    print(json.dumps(result["summary"]))
    return 0 if result["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
