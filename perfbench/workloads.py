"""The three workloads, built only through roundquery's public API.

A workload's `prepare` is its set-up: it parses the spec or generates the
instances.  It returns the trials, each a callable that runs one trial and
returns the outcome row checked against the golden file.

Every instance seed is derived from the workload seed: 1000 * seed plus the
seed written in the spec (sweep-small) or the instance's index (the large
workloads, where every trial gets an instance of its own and each trial
family runs on `replicas` of them, because one instance's cost varies by up
to 2x from seed to seed).  At the default seed 0 the outcomes must equal the committed
golden files; at any other seed the harness's own audits (certificate
re-verification, oracle consistency, the wasted-query identity) and the
run-to-run identity of every outcome are the correctness check.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SEED_STRIDE = 1000
DEFAULT_SEED = 0

Outcome = Tuple[str, ...]
LARGE_HEADER = ["trial", "rounds", "queries", "opt1", "opt_k", "wasted"]


@dataclass(frozen=True)
class Trial:
    name: str
    fn: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# sweep-small: what `roundquery bench --spec` does, one sweep row at a time


def _sweep_row(harness, entry) -> Outcome:
    (row,) = harness.sweep([entry], jobs=1)
    return tuple(row[field] for field in harness.CSV_HEADER)


class SweepSmall:
    name = "sweep-small"
    # Rows take milliseconds, so the first pass after the import, which
    # specialises the interpreter's bytecode and fills lazy caches, is
    # 20-80% slower per row; it runs untimed.
    warm_up = True
    spec = HERE / "sweep-small.rq"
    golden_file = GOLDEN / "sweep-small.csv"

    def prepare(self, rq, seed: int) -> List[Trial]:
        shift = SEED_STRIDE * seed
        trials = []
        for entry in rq.parse_bench_spec(self.spec.read_text()):
            for spec_seed in entry.seeds:
                row = rq.SweepEntry(entry.alg, entry.source, (shift + spec_seed,), entry.opt_cap)
                name = f"{len(trials)}:{entry.alg}@{entry.source}#{shift + spec_seed}"
                trials.append(Trial(name, lambda row=row: _sweep_row(rq.harness, row)))
        return trials

    def golden_text(self, rq, trials: Sequence[Trial], outcomes: Sequence[Outcome]) -> str:
        header = rq.harness.CSV_HEADER
        return rq.sweep_csv([dict(zip(header, outcome)) for outcome in outcomes])

    def read_golden(self, trials: Sequence[Trial]) -> Dict[str, Outcome]:
        rows = list(csv.reader(io.StringIO(self.golden_file.read_text())))[1:]
        if len(rows) != len(trials):
            raise ValueError(f"{self.golden_file.name} has {len(rows)} rows for {len(trials)} trials")
        return {trial.name: tuple(row) for trial, row in zip(trials, rows)}


# ---------------------------------------------------------------------------
# the large workloads: a few long single trials on generated instances


@dataclass(frozen=True)
class LargeTrial:
    name: str
    kind: str  # "run" | "rounds-to-batches" | "batches-to-rounds"
    alg: str
    source: str
    replicas: int = 1
    opt_cap: int = 22


def _run(rq, spec: LargeTrial, instance, realization) -> Outcome:
    harness = rq.harness
    oracle = rq.FixedOracle(instance, realization)
    if spec.kind == "run":
        alg = harness.make_algorithm(spec.alg, instance)
    elif spec.kind == "batches-to-rounds":
        alg = rq.BatchesToRounds(rq.TwoBatchSorting())
    else:
        batch_alg = rq.RoundsToBatches(
            lambda sized: harness.make_algorithm(spec.alg, sized), Fraction(2), 5, instance.n
        )
        _, report = harness.run_batches(batch_alg, instance, oracle, opt_cap=spec.opt_cap)
        return (str(report.batches), str(report.queries), str(report.opt1), "-", "-")
    _, report = harness.run(alg, instance, oracle, opt_cap=spec.opt_cap)
    return tuple(str(x) for x in (report.alg_rounds, report.alg_queries, report.opt1, report.opt_k, report.wasted))


class LargeWorkload:
    warm_up = False  # trials take seconds; the first-execution cost is lost in them

    def __init__(self, name: str, specs: Sequence[LargeTrial]) -> None:
        self.name = name
        self.specs = tuple(specs)
        self.golden_file = GOLDEN / f"{name}.csv"

    def prepare(self, rq, seed: int) -> List[Trial]:
        trials = []
        for spec in self.specs:
            for replica in range(spec.replicas):
                instance_seed = SEED_STRIDE * seed + len(trials)
                instance, oracle = rq.harness.resolve_source(spec.source, instance_seed)
                trials.append(Trial(
                    f"{spec.name}.{replica}",
                    lambda spec=spec, inst=instance, real=oracle.realization: _run(rq, spec, inst, real),
                ))
        return trials

    def golden_text(self, rq, trials: Sequence[Trial], outcomes: Sequence[Outcome]) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(LARGE_HEADER)
        for trial, outcome in zip(trials, outcomes):
            writer.writerow((trial.name,) + outcome)
        return out.getvalue()

    def read_golden(self, trials: Sequence[Trial]) -> Dict[str, Outcome]:
        rows = list(csv.reader(io.StringIO(self.golden_file.read_text())))[1:]
        golden = {row[0]: tuple(row[1:]) for row in rows}
        if sorted(golden) != sorted(trial.name for trial in trials):
            raise ValueError(f"{self.golden_file.name} does not list exactly this workload's trials")
        return golden


MIN_OVERLAP = "random:problem=minimum,n=800,m=80,k=8,overlap=overlap"
# m=2: on m=4 disjoint sets the sorting optimum's branch and bound has a
# heavy tail (a few instances in 30 cost 10-90x the median), on m=2 it has none.
SORT_DISJOINT = "random:problem=sorting,n=400,m=2,k=8,overlap=disjoint"

MINIMUM_LARGE = LargeWorkload("minimum-large", [
    LargeTrial("budget-overlap-n800", "run", "budget", MIN_OVERLAP, replicas=4),
    LargeTrial("bal-overlap-n800", "run", "bal", MIN_OVERLAP, replicas=4),
    LargeTrial("budget-disjoint-n3000", "run", "budget",
               "random:problem=minimum,n=3000,m=300,k=16,overlap=disjoint"),
    LargeTrial("min-single-n3000", "run", "min-single", "random:problem=minimum,n=3000,m=1,overlap=single",
               replicas=2),
    LargeTrial("budget-as-batches-n800", "rounds-to-batches", "budget", MIN_OVERLAP, replicas=4),
])

SELECTION_SORTING_LARGE = LargeWorkload("selection-sorting-large", [
    LargeTrial("sel-full-i500-n1000", "run", "sel-full",
               "random:problem=selection-full,n=1000,k=8,i=500", replicas=3),
    LargeTrial("sel-full-i10-n1000", "run", "sel-full",
               "random:problem=selection-full,n=1000,k=8,i=10", replicas=3),
    LargeTrial("sorting-vc-single-n400", "run", "sorting-vc",
               "random:problem=sorting,n=400,m=1,k=8,overlap=single", replicas=2, opt_cap=400),
    LargeTrial("sorting-matching-disjoint-n400", "run", "sorting-matching", SORT_DISJOINT,
               replicas=3, opt_cap=400),
    LargeTrial("two-batch-as-rounds-n400", "batches-to-rounds", "batch-sort-2", SORT_DISJOINT,
               replicas=3, opt_cap=400),
])

WORKLOADS = {w.name: w for w in (SweepSmall(), MINIMUM_LARGE, SELECTION_SORTING_LARGE)}


def golden_for(workload, trials: Sequence[Trial], seed: int) -> Optional[Dict[str, Outcome]]:
    """Expected outcomes by trial name; None off the default seed."""
    return workload.read_golden(trials) if seed == DEFAULT_SEED else None
