"""Online round-building algorithms.

Uniform contract: ``next_round(instance, knowledge, open_sets) -> list of
element ids``, non-empty, of size at most k, all unqueried and non-trivial.
The harness alone decides solvedness: it asks for a round only while some
set is unsolved, passes the indices of those sets as the ascending,
non-empty tuple `open_sets`, queries the returned ids, updates the
knowledge state, and repeats until every set is solved.

Each algorithm object owns its per-run state (phase queues, charge logs),
so one instance of it drives exactly one trial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .instances import Instance, MINIMUM, SELECTION_FULL, SELECTION_VALUE, SORTING
from .intervals import KnowledgeState, dependent, left_cut, right_cut
from .solving import (
    DependencyGraph,
    build_dependency_graph,
    ceil_div,
    exact_cover,
    forced_queries,
    minimum_scan,
    minimum_solved,  # unused here; kept for perfbench's tracer, which counts it in this namespace
    rank_cuts,
    selection_categories,
    sorting_solved,  # unused here; kept for perfbench's tracer, which counts it in this namespace
)


OpenSets = Tuple[int, ...]  # indices of the unsolved sets, ascending, never empty


class AlgorithmError(RuntimeError):
    """Algorithm asked to run outside its contract."""


# ---------------------------------------------------------------------------
# dependency graph and vertex covers


def _interval_exact_cover(graph: DependencyGraph) -> FrozenSet[int]:
    # max independent set greedily by right endpoint; the cover is the rest
    order = sorted(graph.vertices, key=lambda v: (right_cut(graph.states[v]), v))
    picked: List[int] = []
    for v in order:
        if not picked or not dependent(graph.states[picked[-1]], graph.states[v]):
            picked.append(v)
    return frozenset(graph.vertices) - frozenset(picked)


def _matching_cover(graph: DependencyGraph) -> FrozenSet[int]:
    matched: Set[int] = set()
    for a, b in graph.edges:
        if a not in matched and b not in matched:
            matched.update((a, b))
    return frozenset(matched)


def min_vertex_cover(graph: DependencyGraph, mode: str) -> FrozenSet[int]:
    """Vertex cover of the dependency graph.

    ``interval-exact`` is the polynomial single-set solver, ``general-exact``
    the branch and bound `solving.exact_cover` for arbitrary co-set graphs
    (capped at 40 covered vertices; the sorting optimum runs the same search
    with forced closure), and ``matching-2approx`` returns the matched
    vertices of a greedy maximal matching.
    """
    if mode == "interval-exact":
        if not graph.single_set:
            raise AlgorithmError("interval-exact cover needs a single-set graph")
        return _interval_exact_cover(graph)
    if mode == "general-exact":
        touched = {v for e in graph.edges for v in e}
        if len(touched) > 40:
            raise AlgorithmError(f"{len(touched)} covered vertices above branch-and-bound cap 40")
        return exact_cover(graph.edges)
    if mode == "matching-2approx":
        return _matching_cover(graph)
    raise AlgorithmError(f"unknown vertex cover mode {mode!r}")


# ---------------------------------------------------------------------------
# sorting


class SortingRounds:
    """Vertex-cover phase, then the intervals pinned by known points.

    Phase one queries a cover of the dependency graph in rounds of k; after
    it drains, each round queries up to k of the remaining intervals that
    contain a known point of a co-set element.  Phases do not share rounds.
    """

    def __init__(self, mode: str = "exact"):
        if mode not in ("exact", "matching"):
            raise AlgorithmError(f"unknown sorting mode {mode!r}")
        self.mode = mode
        self._cover_queue: Optional[List[int]] = None

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        if self._cover_queue is None:
            graph = build_dependency_graph(instance, knowledge)
            if self.mode == "matching":
                cover = min_vertex_cover(graph, "matching-2approx")
            elif graph.single_set:
                cover = min_vertex_cover(graph, "interval-exact")
            else:
                cover = min_vertex_cover(graph, "general-exact")
            self._cover_queue = sorted(cover)
        pending = [e for e in self._cover_queue if not knowledge.is_revealed(e)]
        if pending:
            return pending[: instance.k]
        return forced_queries(instance, knowledge)[: instance.k]


# ---------------------------------------------------------------------------
# minimum


def _candidate_lists(instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> Dict[int, List[int]]:
    """Per open set, in index order, its queryable elements in left order;
    an open set always has at least one."""
    lists: Dict[int, List[int]] = {}
    for idx in open_sets:
        _, live = minimum_scan(instance.family[idx], knowledge)
        lists[idx] = sorted(live, key=lambda e: (left_cut(knowledge.state(e)), e))
    return lists


class MinimumSingleRounds:
    """Single set: the k leftmost queryable intervals."""

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        if instance.m != 1:
            raise AlgorithmError("min-single needs a single-set instance")
        return _candidate_lists(instance, knowledge, open_sets)[0][: instance.k]


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


class BudgetRounds:
    """Budget-driven round construction for possibly overlapping sets.

    Seeds the round with the leftmost element of every active set; if that
    does not fill the round, set budgets grow at unit rate and an element
    is bought the moment the sets pointing at it hold one unit of budget in
    total, resetting those budgets.  All arithmetic is exact, and the
    charge map of the last round is kept for the wasted-query audit.
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
        budgets: Dict[int, Fraction] = dict.fromkeys(open_sets, Fraction(0))
        while len(chosen) < k:
            pointing: Dict[int, List[int]] = {}
            for idx in open_sets:
                e = leftmost(idx, taken)
                if e is not None:
                    pointing.setdefault(e, []).append(idx)
            if not pointing:
                break
            best = None
            for e, owners in pointing.items():
                gap = 1 - sum(budgets[idx] for idx in owners)
                assert gap >= 0
                key = (gap / len(owners), -len(owners), e)
                if best is None or key < best:
                    best = key
            delta, _, winner = best
            for idx in open_sets:
                budgets[idx] += delta
            owners = pointing[winner]
            for idx in owners:
                budgets[idx] = Fraction(0)
            chosen.append(winner)
            taken.add(winner)
            self.last_charges[winner] = tuple(owners)
        return chosen


# ---------------------------------------------------------------------------
# selection


def _right_first(knowledge: KnowledgeState, e: int) -> Tuple[Fraction, int, int]:
    """Sort key: descending right cut, ids ascending."""
    v, flag = right_cut(knowledge.state(e))
    return (-v, -flag, e)


class SelectionValueRounds:
    """k leftmost queryable intervals, after discarding everything provably
    outside the target area; ranks above the middle take the rightmost."""

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        lo, hi = rank_cuts(instance, knowledge)
        live = [
            eid
            for eid in knowledge.unqueried_nontrivial(instance.ids())
            if right_cut(knowledge.state(eid)) >= lo and left_cut(knowledge.state(eid)) <= hi
        ]
        if instance.problem.rank > ceil_div(instance.n, 2):
            # rank n-i+1 of the negated instance: its left-cut order, mirrored
            live.sort(key=lambda e: _right_first(knowledge, e))
        else:
            live.sort(key=lambda e: (left_cut(knowledge.state(e)), e))
        return live[: instance.k]


class SelectionFullRounds:
    """Category-priority rounds around the target area.

    Fill order: intervals containing the target area, then those strictly
    inside it, then alternately the left- and right-overlapping ones
    (starting left), longest overlap first.  The round may stay under k
    when the categories run dry; by the containing-interval guarantee it is
    never empty while the instance is unsolved.
    """

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        view = selection_categories(instance, knowledge)
        queryable = set(knowledge.unqueried_nontrivial(instance.ids()))
        q1 = sorted(view.containing)
        q2 = sorted(e for e in view.inside if e in queryable)
        # longest overlap first: category (3) by descending right endpoint,
        # category (4) by ascending left endpoint, ids breaking ties
        q3 = sorted(
            (e for e in view.left_overlap if e in queryable), key=lambda e: _right_first(knowledge, e)
        )
        q4 = sorted(
            (e for e in view.right_overlap if e in queryable),
            key=lambda e: (left_cut(knowledge.state(e)), e),
        )
        # alternate left and right while both last, then the longer one's rest
        alternating = [e for pair in zip_longest(q3, q4) for e in pair if e is not None]
        return (q1 + q2 + alternating)[: instance.k]


# ---------------------------------------------------------------------------
# registry


ALGORITHMS: Dict[str, Tuple[Callable[[], object], Tuple]] = {
    "sorting-vc": (partial(SortingRounds, "exact"), (SORTING,)),
    "sorting-matching": (partial(SortingRounds, "matching"), (SORTING,)),
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
