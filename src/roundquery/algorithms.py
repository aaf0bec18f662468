"""Online round-building algorithms.

Uniform contract: ``next_round(instance, knowledge, open_sets) -> list of
element ids``, non-empty, of size at most k, all unqueried and non-trivial.
The harness alone decides solvedness: it asks for a round only while some
set is unsolved, passes the indices of those sets as the ascending,
non-empty tuple `open_sets`, queries the returned ids, updates the
knowledge state, and repeats until every set is solved.

Both sorting algorithms are `reductions.TwoBatchSorting` in rounds of k:
a vertex cover of the dependency graph, then every interval that a
revealed co-set value lands strictly inside.  `sorting-vc` takes a
minimum cover, `sorting-matching` a greedy matching's.  After any vertex
cover the intervals left are pairwise independent within each set, so
no value revealed in the second batch lands strictly inside one of them,
and no third batch is ever needed.

Each algorithm object owns its per-run state (batch queues, charge logs),
so one instance of it drives exactly one trial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .instances import Instance, MINIMUM, SELECTION_FULL, SELECTION_VALUE, SORTING
from .intervals import (
    KnowledgeState,
    cut_order,
    dependent,  # unused here; kept for perfbench's tracer, which counts it in this namespace
)
from .reductions import BatchesToRounds, TwoBatchSorting
from .solving import (
    AlgorithmError,
    OpenSets,
    SelectionRoundView,
    build_dependency_graph,
    ceil_div,
    exact_cover,
    minimum_scan,
    minimum_solved,  # unused here; kept for perfbench's tracer, which counts it in this namespace
    rank_cut_keys,
    selection_categories,
    sorting_solved,  # unused here; kept for perfbench's tracer, which counts it in this namespace
)


# ---------------------------------------------------------------------------
# sorting


def interval_cover(instance: Instance, knowledge: KnowledgeState) -> FrozenSet[int]:
    """Minimum vertex cover of a single-set instance's dependency graph.

    The graph over the set's unqueried non-trivial members is an interval
    graph, so a greedy by right endpoint finds a maximum independent set;
    the cover is the rest.  A member joins the independent set when its
    left cut key is at or above the right cut key of the last one taken:
    two non-trivial intervals are independent exactly then.
    """
    vertices = knowledge.unqueried_nontrivial(instance.family[0])
    picked: List[int] = []
    for v in cut_order(vertices, knowledge.right_key):
        if not picked or knowledge.left_key(v) >= knowledge.right_key(picked[-1]):
            picked.append(v)
    return frozenset(vertices) - frozenset(picked)


def minimum_cover(instance: Instance, knowledge: KnowledgeState) -> FrozenSet[int]:
    """Minimum vertex cover of the dependency graph, `sorting-vc`'s first
    batch: `interval_cover` on one set, the branch and bound
    `solving.exact_cover` otherwise, capped at 40 covered vertices."""
    if instance.m == 1:
        return interval_cover(instance, knowledge)
    edges = build_dependency_graph(instance, knowledge)
    touched = {v for e in edges for v in e}
    if len(touched) > 40:
        raise AlgorithmError(f"{len(touched)} covered vertices above branch-and-bound cap 40")
    return exact_cover(edges)


class SortingRounds(BatchesToRounds):
    """`sorting-vc`: `TwoBatchSorting(minimum_cover)` in rounds of k.

    It is `BatchesToRounds` under a class of its own only so that
    perfbench's tracer can tell `sorting-vc`'s rounds apart; the registry's
    `sorting-matching` is a plain `BatchesToRounds(TwoBatchSorting())`.
    """

    mode = "exact"  # perfbench's tracer names this class's spans by it
    next_round = BatchesToRounds.next_round  # perfbench's tracer patches this class's own entry


# ---------------------------------------------------------------------------
# minimum


def _candidate_lists(instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> Dict[int, List[int]]:
    """Per open set, in index order, its queryable elements in left order,
    as `minimum_scan` returns them; an open set always has at least one."""
    return {idx: minimum_scan(instance.family[idx], knowledge) for idx in open_sets}


class BalancedRounds:
    """Repeatedly serve an active set with minimum current-round prefix length.

    The prefix length of a set is the number of leading elements of its
    queryable list already picked into this round; ties go to the lowest
    set index, and the pick is the set's leftmost element not yet chosen.
    """

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        lists = _candidate_lists(instance, knowledge, open_sets)
        chosen: List[int] = []
        in_round: Set[int] = set()
        while len(chosen) < instance.k:
            prefixes = []
            for idx, lst in lists.items():
                p = 0
                while p < len(lst) and lst[p] in in_round:
                    p += 1
                if p < len(lst):
                    prefixes.append((p, idx))
            if not prefixes:
                break
            p, idx = min(prefixes)
            chosen.append(lists[idx][p])
            in_round.add(lists[idx][p])
        return chosen


class MinimumSingleRounds(BalancedRounds):
    """Single set: the k leftmost queryable intervals, which is the balanced
    round on one set; `make_algorithm` refuses an instance of several."""

    next_round = BalancedRounds.next_round  # perfbench's tracer patches this class's own entry


class BudgetRounds:
    """Budget-driven round construction for possibly overlapping sets.

    Seeds the round with the leftmost element of every active set; if that
    does not fill the round, set budgets grow at unit rate and an element
    is bought the moment its owners, the open sets whose leftmost untaken
    element it is, hold one unit of budget in total, resetting theirs to 0.
    A set's budget at time t is t minus its start, the time it last
    restarted, so only the starts are kept: an element with owners O is
    bought at (1 + the sum of their starts) / |O|, the earliest first, then
    the one with more owners, then the lowest id.  All arithmetic is exact.
    `last_seeds` and `last_charges` (each bought element's owners) describe
    the last round; tests read them to check the charging argument.
    """

    def __init__(self) -> None:
        self.last_charges: Dict[int, Tuple[int, ...]] = {}
        self.last_seeds: Tuple[int, ...] = ()

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        k = instance.k
        lists = _candidate_lists(instance, knowledge, open_sets)
        self.last_charges = {}

        def leftmost(idx: int, taken: Set[int]) -> Optional[int]:
            return next((e for e in lists[idx] if e not in taken), None)

        seeds = sorted({lst[0] for lst in lists.values()})[:k]
        self.last_seeds = tuple(seeds)
        chosen: List[int] = list(seeds)
        taken: Set[int] = set(seeds)
        starts: Dict[int, Fraction] = dict.fromkeys(open_sets, Fraction(0))
        while len(chosen) < k:
            pointing: Dict[int, List[int]] = {}
            for idx in open_sets:
                e = leftmost(idx, taken)
                if e is not None:
                    pointing.setdefault(e, []).append(idx)
            if not pointing:
                break
            time, _, winner = min(
                ((1 + sum(starts[idx] for idx in owners)) / len(owners), -len(owners), e)
                for e, owners in pointing.items()
            )
            owners = pointing[winner]
            for idx in owners:
                starts[idx] = time
            chosen.append(winner)
            taken.add(winner)
            self.last_charges[winner] = tuple(owners)
        return chosen


# ---------------------------------------------------------------------------
# selection


class SelectionValueRounds:
    """k leftmost queryable intervals, after discarding everything provably
    outside the target area; ranks above the middle take the rightmost."""

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        lo, hi = rank_cut_keys(instance, knowledge)
        live = [
            eid
            for eid in knowledge.unqueried_nontrivial(instance.ids())
            if knowledge.right_key(eid) >= lo and knowledge.left_key(eid) <= hi
        ]
        if instance.problem.rank > ceil_div(instance.n, 2):
            # rank n-i+1 of the negated instance: its left-cut order, mirrored
            live = cut_order(live, knowledge.right_key, reverse=True)
        else:
            live = cut_order(live, knowledge.left_key)
        return live[: instance.k]


class SelectionFullRounds:
    """Category-priority rounds around the target area.

    Fill order: intervals containing the target area, then those strictly
    inside it, then alternately the left- and right-overlapping ones
    (starting left), longest overlap first.  The round may stay under k
    when the categories run dry; by the containing-interval guarantee it is
    never empty while the instance is unsolved.

    Each round classifies only the members of the last round's view
    (`last_view`): the target area only shrinks, so an element outside
    every bucket stays outside (see `selection_categories`).
    """

    def __init__(self) -> None:
        self.last_view: Optional[SelectionRoundView] = None

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        pool = None if self.last_view is None else self.last_view.members()
        view = self.last_view = selection_categories(instance, knowledge, pool)
        q1 = sorted(view.containing)
        q2 = sorted(knowledge.unqueried_nontrivial(view.inside))
        # longest overlap first: category (3) by descending right endpoint,
        # category (4) by ascending left endpoint, ids breaking ties
        q3 = cut_order(knowledge.unqueried_nontrivial(view.left_overlap), knowledge.right_key, reverse=True)
        q4 = cut_order(knowledge.unqueried_nontrivial(view.right_overlap), knowledge.left_key)
        # alternate left and right while both last, then the longer one's rest
        alternating = [e for pair in zip_longest(q3, q4) for e in pair if e is not None]
        return (q1 + q2 + alternating)[: instance.k]


# ---------------------------------------------------------------------------
# registry


ALGORITHMS: Dict[str, Tuple[Callable[[], object], Tuple]] = {
    "sorting-vc": (lambda: SortingRounds(TwoBatchSorting(minimum_cover)), (SORTING,)),
    "sorting-matching": (lambda: BatchesToRounds(TwoBatchSorting()), (SORTING,)),
    "min-single": (MinimumSingleRounds, (MINIMUM,)),
    "bal": (BalancedRounds, (MINIMUM,)),
    "budget": (BudgetRounds, (MINIMUM,)),
    "sel-value": (SelectionValueRounds, (SELECTION_VALUE,)),
    "sel-full": (SelectionFullRounds, (SELECTION_FULL,)),
}


def algorithm_names() -> List[str]:
    return sorted(ALGORITHMS)


def make_algorithm(name: str, instance: Instance):
    """Fresh per-run algorithm object for the given selector string."""
    if name not in ALGORITHMS:
        raise AlgorithmError(f"unknown algorithm {name!r}; pick one of {algorithm_names()}")
    factory, kinds = ALGORITHMS[name]
    if instance.problem.kind not in kinds:
        raise AlgorithmError(
            f"algorithm {name!r} does not handle {instance.problem.kind.value} instances"
        )
    if name == "min-single" and instance.m != 1:
        raise AlgorithmError("min-single needs a single-set instance")
    return factory()
