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

from bisect import bisect_right, insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import zip_longest
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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
    build_dependency_graph,
    ceil_div,
    exact_cover,
    minimum_solved,  # unused here; kept for perfbench's tracer, which counts it in this namespace
    rank_cut_keys,
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


class BalancedRounds:
    """Repeatedly serve an active set with minimum current-round prefix length.

    The prefix length of a set is the number of leading elements of its
    live list (`KnowledgeState.minimum_live`, read lazily) already picked
    into this round; ties go to the lowest set index, and the pick is the
    set's leftmost element not yet chosen.  A heap holds (prefix, set
    index, element) for the element each set is at, and a map from element
    to those sets.  Picking e advances exactly the sets at e, each along
    its walk past the picked elements; the entries those sets leave in the
    heap hold a picked element, so they are stale and skipped when popped.
    A round costs its picks, the walks' steps and the heap.
    """

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        walks = {idx: enumerate(knowledge.minimum_live(idx)) for idx in open_sets}
        heap: List[Tuple[int, int, int]] = []
        at: Dict[int, List[int]] = {}  # element -> the sets at it
        chosen: List[int] = []
        in_round: Set[int] = set()

        def advance(idx: int) -> None:
            """Move idx along its walk to its next element not in the round."""
            for p, e in walks[idx]:
                if e not in in_round:
                    at.setdefault(e, []).append(idx)
                    heappush(heap, (p, idx, e))
                    return

        for idx in open_sets:  # each to its first live member: an open set has one
            advance(idx)
        while heap and len(chosen) < instance.k:
            _, _, e = heappop(heap)
            if e in in_round:
                continue
            chosen.append(e)
            in_round.add(e)
            for idx in at.pop(e):
                advance(idx)
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

    Each set is at its leftmost untaken element along its live list
    (`KnowledgeState.minimum_live`, read lazily), and a heap holds (time,
    -|owners|, id) for every element with owners.  A purchase restarts
    only the winner's owners, and each of them moves to its next untaken
    element, so only the elements that gain owners get a new key.  An
    untaken element's owner count only grows, so it versions the entries:
    one whose count is not the element's current one (none, once bought)
    is stale and skipped when popped.  Owner lists are kept ascending.
    `last_seeds` and `last_charges` (each bought element's owners)
    describe the last round; tests read them to check the charging
    argument.
    """

    def __init__(self) -> None:
        self.last_charges: Dict[int, Tuple[int, ...]] = {}
        self.last_seeds: Tuple[int, ...] = ()

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        k = instance.k
        walks = {idx: knowledge.minimum_live(idx) for idx in open_sets}
        self.last_charges = {}
        seeds = sorted({next(walks[idx]) for idx in open_sets})[:k]  # an open set has a live member
        self.last_seeds = tuple(seeds)
        chosen: List[int] = list(seeds)
        if len(chosen) == k:
            return chosen
        taken: Set[int] = set(seeds)
        starts: Dict[int, Fraction] = dict.fromkeys(open_sets, Fraction(0))
        owners: Dict[int, List[int]] = {}

        def advance(idx: int) -> Optional[int]:
            """idx's next untaken element along its walk, or None past its end."""
            for e in walks[idx]:
                if e not in taken:
                    return e
            return None

        def entry(e: int) -> Tuple[Fraction, int, int]:
            group = owners[e]
            return (1 + sum(starts[idx] for idx in group)) / len(group), -len(group), e

        for idx in open_sets:  # ascending, so each owner list is too; every first live member is a seed
            e = advance(idx)
            if e is not None:
                owners.setdefault(e, []).append(idx)
        heap = [entry(e) for e in owners]
        heapify(heap)
        while heap and len(chosen) < k:
            time, count, winner = heappop(heap)
            if -count != len(owners.get(winner, ())):
                continue
            payers = owners.pop(winner)
            chosen.append(winner)
            taken.add(winner)
            self.last_charges[winner] = tuple(payers)
            gained = set()
            for idx in payers:
                starts[idx] = time
                e = advance(idx)
                if e is not None:
                    insort(owners.setdefault(e, []), idx)
                    gained.add(e)
            for e in gained:
                heappush(heap, entry(e))
        return chosen


# ---------------------------------------------------------------------------
# selection


# `SelectionFullRounds`' categories, in the order of its `last_view` buckets
CONTAINING, INSIDE, LEFT_OVERLAP, RIGHT_OVERLAP = range(4)


class SelectionValueRounds:
    """k leftmost queryable intervals, after discarding everything provably
    outside the target area; ranks above the middle take the rightmost.

    The live ids are kept in one order, built on the first round from the
    unqueried non-trivial ids that meet the target area: by (left cut,
    id), or for a rank above the middle by (right cut descending, id), the
    mirror image.  An unqueried id's cut keys change only by a rescale,
    which keeps every order, and a reveal only raises left cuts and lowers
    right cuts, so the target area only shrinks and an id disjoint from it
    stays disjoint.  Each round scans the order from its head, so the
    first one takes the head as it is: it drops for good the pinned ids and
    those disjoint on the near side of the target area, whose cuts in
    this order come first, and stops at k picks or at the first id past
    its far side, beyond which every id is past it too.  The picks stay at
    the head, so a round costs its picks and the ids it drops.
    """

    def __init__(self) -> None:
        self._knowledge: Optional[KnowledgeState] = None
        self._order: List[int] = []  # the live ids from `_head` on, in scan order
        self._head = 0

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        lo, hi = rank_cut_keys(instance, knowledge)
        mirror = instance.problem.rank > ceil_div(instance.n, 2)
        if knowledge is not self._knowledge:
            self._knowledge, self._head = knowledge, 0
            live = knowledge.unpinned_meeting(lo, hi)
            # rank n-i+1 of the negated instance: its left-cut order, mirrored
            self._order = (
                cut_order(live, knowledge.right_key, reverse=True) if mirror else cut_order(live, knowledge.left_key)
            )
        state, left_key, right_key = knowledge.state, knowledge.left_key, knowledge.right_key
        if mirror:  # the near side is above the target area, the far side below
            gone, past = (lambda e: left_key(e) > hi), (lambda e: right_key(e) < lo)
        else:
            gone, past = (lambda e: right_key(e) < lo), (lambda e: left_key(e) > hi)
        order, picks, i = self._order, [], self._head
        while i < len(order) and len(picks) < instance.k:
            e = order[i]
            if not state(e).trivial:  # a pinned id's cuts are its point's, out of this order
                if past(e):
                    break  # and so is every later id
                if not gone(e):
                    picks.append(e)
            i += 1
        self._head = i - len(picks)
        order[self._head : i] = picks
        return picks


class SelectionFullRounds:
    """Category-priority rounds around the target area.

    Fill order: intervals containing the target area, then those strictly
    inside it, then alternately the left- and right-overlapping ones
    (starting left), longest overlap first.  The round may stay under k
    when the categories run dry; by the containing-interval guarantee it is
    never empty while the instance is unsolved.

    The categories are kept across rounds.  An unqueried id's cut keys
    change only by a rescale, which keeps every order, and a reveal only
    raises left cuts and lowers right cuts, so the target area [lo, hi]
    between the rank cuts only shrinks.  For an unqueried id, each of
    "its left cut is at most lo", "its right cut is at least hi" and
    "disjoint from the target area" turns on at most once and never off,
    and these, read off its cut keys against the round's target area,
    which is kept, decide its category: inside, then left- or
    right-overlapping, then containing, then none.

    The first round sorts the unqueried ids that meet the target area by
    (left cut, id) and by (right cut descending, id); the others stay
    disjoint.  Two pointers mark where the left cuts at most lo and the
    right cuts at least hi end in those orders; the first round sets them
    by bisection, and each later one moves them past the ids whose cut the
    area crossed, pinned ids skipped, and files those ids again.  Each
    category is a heap in the order the round reads it: ids ascending for
    "containing" and "inside", and positions, which a rescale keeps as it
    does not keys, in the right-cut order for the left-overlapping ones
    and in the left-cut order for the right-overlapping ones.  The first
    round files every id and heapifies; later an id is pushed when it
    enters a category, which it never enters twice, and an entry whose id
    is pinned or has moved on is stale and dropped when popped.  The round
    pops what it picks and pushes it back, so it costs O(k log n) plus the
    ids that crossed a pointer.
    """

    def __init__(self) -> None:
        self._knowledge: Optional[KnowledgeState] = None

    def _category(self, e: int) -> Optional[int]:
        """The category of the id e against the kept target area, None when
        pinned (its two cut keys equal) or disjoint from the area."""
        knowledge, (lo, hi) = self._knowledge, self._area
        left, right = knowledge.left_key(e), knowledge.right_key(e)
        if left == right or left > hi or right < lo:
            return None
        if left <= lo:
            return CONTAINING if right >= hi else LEFT_OVERLAP
        return RIGHT_OVERLAP if right >= hi else INSIDE

    def _file(self, ids: Iterable[int], push: Callable) -> None:
        """Put each id of `ids` that has a category on that category's heap
        by `push`, `heappush` or, before a heapify, `list.append`."""
        for e in ids:
            category = self._category(e)
            if category is not None:
                entries = self._entries[category]
                push(self._heaps[category], e if entries is None else entries[e])

    def _move(self) -> Set[int]:
        """Move the two pointers past the ids whose cut the target area
        crossed, and return those ids."""
        by_left, by_right, (lo, hi) = self._by_left, self._by_right, self._area
        left_key, right_key, state = self._knowledge.left_key, self._knowledge.right_key, self._knowledge.state
        left_lo, right_hi, reaching = self._left_lo, self._right_hi, set()
        # a pinned id's left cut is at or above its interval's and its right
        # cut at or below, so it may stop a pointer too early and is skipped
        while left_lo < len(by_left) and (left_key(e := by_left[left_lo]) <= lo or state(e).trivial):
            reaching.add(e)
            left_lo += 1
        while right_hi < len(by_right) and (right_key(e := by_right[right_hi]) >= hi or state(e).trivial):
            reaching.add(e)
            right_hi += 1
        self._left_lo, self._right_hi = left_lo, right_hi
        return reaching

    def _start(self, knowledge: KnowledgeState) -> None:
        live = knowledge.unpinned_meeting(*self._area)
        # ids ascending, then stably by cut: the orders of `cut_order`
        by_left = self._by_left = sorted(live, key=knowledge.left_key)
        by_right = self._by_right = sorted(live, key=knowledge.right_key, reverse=True)
        # each category's order of heap entries and the entry of an id: ids are their own
        self._orders = (None, None, by_right, by_left)
        self._entries = (None, None, dict(zip(by_right, range(len(live)))), dict(zip(by_left, range(len(live)))))
        # the pointers' first places, by bisection: no live id is pinned
        lo, hi = self._area
        self._left_lo = bisect_right(by_left, lo, key=knowledge.left_key)
        self._right_hi = bisect_right(by_right, -hi, key=lambda e: -knowledge.right_key(e))
        self._knowledge = knowledge
        self._heaps = ([], [], [], [])
        self._file(live, list.append)
        for heap in self._heaps:
            heapify(heap)

    def _take(self, category: int, count: int) -> List[int]:
        """Pop up to `count` ids of `category` in its order, dropping stale
        entries, and return them."""
        heap, order = self._heaps[category], self._orders[category]
        taken: List[int] = []
        while heap and len(taken) < count:
            e = heappop(heap)
            e = e if order is None else order[e]
            if self._category(e) == category:
                taken.append(e)
        return taken

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        self._area = rank_cut_keys(instance, knowledge)
        if knowledge is self._knowledge:
            self._file(self._move(), heappush)
        else:
            self._start(knowledge)
        k = instance.k
        q1 = self._take(CONTAINING, k)
        q2 = self._take(INSIDE, k - len(q1))
        need = k - len(q1) - len(q2)
        # longest overlap first: category (3) by descending right endpoint,
        # category (4) by ascending left endpoint, ids breaking ties
        q3 = self._take(LEFT_OVERLAP, need)
        q4 = self._take(RIGHT_OVERLAP, need)
        self._file(q1 + q2 + q3 + q4, heappush)  # the picks stay filed until revealed
        # alternate left and right while both last, then the longer one's rest
        alternating = [e for pair in zip_longest(q3, q4) for e in pair if e is not None]
        return (q1 + q2 + alternating)[:k]

    @property
    def last_view(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """Each category's unqueried ids, ascending, CONTAINING to
        RIGHT_OVERLAP, against the last round's target area: valid until
        that round's reveal."""
        if self._knowledge is None:
            return None
        buckets: Tuple[List[int], ...] = ([], [], [], [])
        for e in sorted(self._by_left):
            category = self._category(e)
            if category is not None:
                buckets[category].append(e)
        return tuple(map(tuple, buckets))


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
