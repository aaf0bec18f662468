"""Span recorder that wraps roundquery's public entry points from outside.

Nothing in the package is edited: `Tracer(rq)` replaces functions and
methods where their callers look them up (module globals of the calling
module, or class attributes for per-trial objects) and `Tracer.restore`
puts every original back.  Spans are kept in memory and written out as
JSON lines when the run ends.

Three kinds of wrapper:
- a recorded span (name, start, end, parent span, trial id);
- an aggregated span, timed and nested like a recorded one but not kept
  one by one, for leaves called hundreds of thousands of times (`reveal`);
- a bare call counter, for predicates too hot to time (`known_value`,
  `state`, `dependent`, the solvedness tests).  Its cost lands in the
  self time of the span that encloses it.

A span's self time is its duration minus the durations of the spans
directly inside it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[int]]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.trial: Optional[int] = None
        self._stack: List[list] = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def span(self, name, fn: Callable, record: bool = True, observe: Optional[Callable] = None) -> Callable:
        """Wrap `fn` in a timed span.  `name` is a string or a function of
        the call's first argument (the bound object, for methods)."""
        stack = self._stack
        self_s, calls, spans = self.self_s, self.calls, self.spans

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self_s[label] += took - frame[1]
                calls[label] += 1
                if stack:
                    stack[-1][1] += took
                if record:
                    spans.append((frame[0], label, start, end, parent, self.trial))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, trial in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "trial": trial,
                }) + "\n")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._done: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._done.append((owner, attr, original))

    def restore(self) -> None:
        while self._done:
            owner, attr, original = self._done.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


class Capture:
    """Keeps what every `run` / `run_batches` call returned, in call order,
    so a traced pass can be compared with an untraced one."""

    def __init__(self, rq) -> None:
        self.outputs: List[tuple] = []
        self._patches = Patches()
        for attr in ("run", "run_batches"):
            self._patches.replace(rq.harness, attr, self._keep)

    def _keep(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.outputs.append(result)
            return result

        return wrapper

    def restore(self) -> None:
        self._patches.restore()


def _sorting_name(alg) -> str:
    return "sorting-vc" if alg.mode == "exact" else "sorting-matching"


class Tracer:
    """Installs the wrappers on one imported `roundquery` package."""

    def __init__(self, rq) -> None:
        self.rec = Recorder()
        self.extra: Dict[str, float] = defaultdict(float)
        self._patches = Patches()
        rec, patch = self.rec, self._patches
        harness, algorithms, solving = rq.harness, rq.algorithms, rq.solving

        def spanned(owner, attr, name, record=True, observe=None):
            patch.replace(owner, attr, lambda fn: rec.span(name, fn, record, observe))

        def counted(owner, attr, name):
            patch.replace(owner, attr, lambda fn: rec.counter(name, fn))

        # harness: the run loop and the lookups it makes by name
        spanned(harness, "run", "harness.run", observe=self._run_result)
        spanned(harness, "run_batches", "harness.run_batches")
        spanned(harness, "resolve_source", "harness.resolve_source")
        spanned(harness, "make_algorithm", "harness.make_algorithm")
        spanned(harness, "gen_random", "instances.gen_random")
        spanned(harness, "instance_solved", "solving.instance_solved")
        spanned(harness, "set_solved", "solving.set_solved", observe=self._set_solved_result)
        spanned(harness, "canonical_opt", "solving.canonical_opt")
        spanned(harness, "extract_certificate", "solving.extract_certificate")
        spanned(harness, "verify_certificate", "solving.verify_certificate")

        # per-trial objects: patched on their classes
        alg_names = {
            algorithms.BudgetRounds: "budget",
            algorithms.BalancedRounds: "bal",
            algorithms.MinimumSingleRounds: "min-single",
            algorithms.SelectionValueRounds: "sel-value",
            algorithms.SelectionFullRounds: "sel-full",
        }
        for cls, alg in alg_names.items():
            spanned(cls, "next_round", "algorithms.next_round." + alg, observe=self._round_result)
        spanned(
            algorithms.SortingRounds, "next_round",
            lambda self: "algorithms.next_round." + _sorting_name(self), observe=self._round_result,
        )
        spanned(rq.oracles.ValueOracle, "answer_round", "oracles.answer_round")
        spanned(rq.oracles.ValueOracle, "check_finalize", "oracles.check_finalize")
        for cls in (rq.reductions.QueryAllBatch, rq.reductions.TwoBatchSorting, rq.reductions.RoundsToBatches):
            spanned(cls, "next_batch", "reductions.next_batch", observe=self._batch_result)
        spanned(rq.reductions.BatchesToRounds, "next_round", "reductions.batches_to_rounds.next_round")

        # knowledge state and predicates
        spanned(rq.intervals.KnowledgeState, "reveal", "intervals.reveal", record=False)
        counted(rq.intervals.KnowledgeState, "known_value", "intervals.known_value")
        counted(rq.intervals.KnowledgeState, "state", "intervals.state")
        for module in (solving, algorithms):
            counted(module, "dependent", "intervals.dependent")
            counted(module, "minimum_solved", "solving.minimum_solved")
            counted(module, "sorting_solved", "solving.sorting_solved")
        counted(solving, "selection_value_pinned", "solving.selection_value_pinned")
        counted(solving, "query_set_feasible", "solving.query_set_feasible")

    def _run_result(self, result) -> None:
        _, report = result
        self.extra["harness.useful"] += report.useful
        self.extra["harness.queries"] += report.alg_queries

    def _set_solved_result(self, solved: bool) -> None:
        self.extra["solving.set_solved.true"] += bool(solved)

    def _round_result(self, picked) -> None:
        self.extra["algorithms.queries"] += len(picked)

    def _batch_result(self, batch) -> None:
        self.extra["reductions.batches_used"] += bool(batch)

    def restore(self) -> None:
        self._patches.restore()

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer sums for one traced pass; names as in BENCHMARK.json."""
        s, c, x = self.rec.self_s, self.rec.calls, self.extra
        algs = ("budget", "bal", "min-single", "sel-value", "sel-full", "sorting-vc", "sorting-matching")
        per_alg = {a: "algorithms.next_round." + a for a in algs}
        out = {
            "harness.run.self_s": s["harness.run"],
            "harness.run.calls": c["harness.run"],
            "harness.run_batches.self_s": s["harness.run_batches"],
            "harness.resolve_source_s": s["harness.resolve_source"],
            "harness.useful_frac": _frac(x["harness.useful"], x["harness.queries"]),
            "algorithms.next_round_s": sum(s[n] for n in per_alg.values()),
            "algorithms.next_round.calls": sum(c[n] for n in per_alg.values()),
            "algorithms.queries": int(x["algorithms.queries"]),
        }
        out.update({f"algorithms.next_round.{a}_s": s[n] for a, n in per_alg.items()})
        out.update({
            "oracles.answer_round_s": s["oracles.answer_round"],
            "oracles.answer_round.calls": c["oracles.answer_round"],
            "oracles.check_finalize_s": s["oracles.check_finalize"],
            "intervals.reveal_s": s["intervals.reveal"],
            "intervals.reveal.calls": c["intervals.reveal"],
            "intervals.known_value.calls": c["intervals.known_value"],
            "intervals.state.calls": c["intervals.state"],
            "intervals.dependent.calls": c["intervals.dependent"],
            "solving.instance_solved_s": s["solving.instance_solved"],
            "solving.instance_solved.calls": c["solving.instance_solved"],
            "solving.set_solved_s": s["solving.set_solved"],
            "solving.set_solved.calls": c["solving.set_solved"],
            "solving.set_solved.useful_frac": _frac(x["solving.set_solved.true"], c["solving.set_solved"]),
            "solving.minimum_solved.calls": c["solving.minimum_solved"],
            "solving.selection_value_pinned.calls": c["solving.selection_value_pinned"],
            "solving.sorting_solved.calls": c["solving.sorting_solved"],
            "solving.canonical_opt_s": s["solving.canonical_opt"],
            "solving.canonical_opt.calls": c["solving.canonical_opt"],
            "solving.query_set_feasible.calls": c["solving.query_set_feasible"],
            "solving.extract_certificate_s": s["solving.extract_certificate"],
            "solving.verify_certificate_s": s["solving.verify_certificate"],
            "reductions.next_batch_s": s["reductions.next_batch"],
            "reductions.next_batch.calls": c["reductions.next_batch"],
            "reductions.batches_used": int(x["reductions.batches_used"]),
            "instances.gen_random_s": s["instances.gen_random"],
        })
        return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0
