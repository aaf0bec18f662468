"""Solvedness checkers, solution certificates, and exact offline optima.

A problem state is solved when the answer is provable from the knowledge
state alone, without peeking at unqueried values.  The optimum query set
is computed in closed form for minimum (per set), full selection (the
containing intervals) and value selection (a count of the elements that
must leave or join each side of the i-th value).  The sorting optimum is
the mandatory set M, the intervals that strictly contain a co-set
element's value, plus a minimum vertex cover of the residual graph R, the
dependency edges with neither end in M, found by the exact branch and
bound that gives `sorting-vc` its multi-set cover.  That search takes
`sorting-vc`'s vertices by degree but R's by ascending id, so the first
minimum it finds in R is the lexicographically smallest, the canonical
one.  R is swept over the non-mandatory intervals alone, on the
realization's exact keys, so the full dependency graph of the instance is
never built.  Only R is capped.  The subset search in `opt1_bruteforce`
runs in no report; it is the oracle that the other optima are tested
against.

The predicates compare the exact integer keys that the knowledge state
keeps across reveals, all on its one scale, never a `Fraction`: a key is
the value times a common denominator, so keys order and tie as the
rationals do.  The minimum and sorting predicates read each set from the
state's kept `SetView`: its members' key records, which sort in left
order and carry their endpoint keys, the unpinned ones in one list and
the pinned points, so ascending by value, in another.  A set's minimum
is then the head of its pinned list, and its live members are the prefix
of its left order below that floor, found by one bisection.  The dependent pairs of one set form an
interval graph, so one pass over its intervals in left order finds every
pair, each interval's partners ending where a bisection says:
`dependency_runs`, the one sweep behind the dependency graph, the
residual R and the greedy matching of `batch-sort-2`.  The points that
force queries, or that leave a set unsorted, are found by bisection.
Selection reads its rank cuts from the kept cut lists of cut keys, and
`selection_categories` classifies a pool that only shrinks over a run:
what left the target area stays out.  Orders by endpoint, such as the
sorting certificate's, come from `cut_order` on the state's cut keys.
What the predicates return to callers, cuts, values and certificates,
is read back as `Fraction`s.

The certificate check reads the states alone and keys them itself: one
`exact_keys` call over every state's two endpoints and the certificate's
claimed values (the minima, or the selection value) serves all three
kinds.  An order a before b is provable when a's upper key is at most
b's lower key, a state is a point when its two keys are equal, and the
rank cuts are taken on cut keys.  It reads no `SetView`, cut list or key
that the knowledge state keeps, so it checks what those decide rather
than repeat it.  It shares one `TruthRecord` per run with the offline
optima, each set's true minimum or the true i-th value, so neither
recomputes them; the record is built from the instance and the finalized
realization alone, and the optima key what they compare themselves too.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .instances import (
    Instance,
    InstanceError,
    MINIMUM,
    ProblemFamily,
    Realization,
    SELECTION_FULL,
    SELECTION_VALUE,
    SORTING,
)
from .intervals import (
    KnowledgeState,
    cut_keys,
    cut_order,
    dependent,  # unused here; kept for perfbench's tracer, which counts it in this namespace
    exact_keys,
)


# the default `cap` of `canonical_opt`: the largest sorting residual covered
OPT_CAP = 22
# the default `cap` of `opt1_bruteforce`: it bounds n, not the sorting residual
BRUTE_FORCE_CAP = 22


OpenSets = Tuple[int, ...]  # indices of the unsolved sets, ascending, never empty


class AlgorithmError(RuntimeError):
    """Algorithm asked to run outside its contract."""


class BruteForceCapError(InstanceError):
    """Optimum refused above its cap: the sorting residual's vertex count
    for `canonical_opt`, n for the `opt1_bruteforce` oracle."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# solvedness


def minimum_scan(set_ids: Iterable[int], knowledge: KnowledgeState) -> List[int]:
    """A set's live members: the unpinned ones that could still lie below
    its least pinned value, in left order: by (left cut, id).

    With no pinned value every unpinned member is live.  Otherwise a member
    is dropped once its lower endpoint is at or above the floor, the least
    pinned value (values in open intervals sit strictly above the endpoint,
    so a weak comparison suffices).  The kept view holds the floor's key at
    the head of its pinned list and the unpinned members' records in left
    order, whose lower endpoint keys ascend, so the live ones are the
    prefix that one bisection with (floor,) finds.
    """
    view = knowledge.set_view(set_ids)
    live = view.unpinned
    if view.pinned:
        live = live[: bisect_left(live, (view.pinned[0][0],))]
    return [record[2] for record in live]


def minimum_solved(set_ids: Iterable[int], knowledge: KnowledgeState) -> bool:
    """True iff the set's minimum value is provable from current knowledge:
    some value is pinned and the leftmost unpinned member, if any, starts
    at or above the least of them."""
    view = knowledge.set_view(set_ids)
    if not view.pinned:
        return False
    return not view.unpinned or view.unpinned[0][0] >= view.pinned[0][0]


def sorting_solved(set_ids: Iterable[int], knowledge: KnowledgeState) -> bool:
    """True iff no dependent pair remains within the set.

    Two spans (unpinned members) are dependent iff, taken in the kept
    left order, the later one starts below the reach of the earlier ones.
    Once no such pair exists the spans are disjoint, and a point can only
    lie strictly inside the last span that starts below it.
    """
    view = knowledge.set_view(set_ids)
    spans = view.unpinned
    for a, b in zip(spans, spans[1:]):
        if b[0] < a[3]:
            return False
    for v, _, _, _, _ in view.pinned:
        j = bisect_left(spans, (v,)) - 1
        if j >= 0 and v < spans[j][3]:
            return False
    return True


def rank_cut_keys(instance: Instance, knowledge: KnowledgeState) -> Tuple[int, int]:
    """The cut keys of the i-th smallest left and right cuts over the
    current states (revealed elements are points), i being the problem's
    rank."""
    rank = instance.problem.rank
    lefts, rights = knowledge.cut_lists()
    return lefts[rank - 1], rights[rank - 1]


def selection_value_pinned(instance: Instance, knowledge: KnowledgeState) -> Optional[Fraction]:
    """The i-th smallest value if it is already forced, else None.

    Pushing every unqueried interval to its lowest (resp. highest)
    admissible end gives the two extremes of the i-th order statistic; the
    statistic is pinned exactly when both extremes are the same attained
    value.  Open endpoints are tracked as one-sided limits, which are never
    attained: a left flag is 0 or +1 and a right flag 0 or -1, so equal
    cut keys are the same value with flag 0 on both sides.
    """
    lo, hi = rank_cut_keys(instance, knowledge)
    return knowledge.cut_of(lo)[0] if lo == hi else None


def selection_solved(instance: Instance, knowledge: KnowledgeState) -> bool:
    """The i-th value is pinned and, for full selection, no unqueried
    interval contains it: its cut key lies between no such interval's."""
    if selection_value_pinned(instance, knowledge) is None:
        return False
    if instance.problem.kind is SELECTION_FULL:
        at, _ = rank_cut_keys(instance, knowledge)
        return not any(
            knowledge.left_key(e) <= at <= knowledge.right_key(e) for e in knowledge.unqueried_nontrivial()
        )
    return True


def set_solved(instance: Instance, set_idx: int, knowledge: KnowledgeState) -> bool:
    members = instance.family[set_idx]
    if instance.problem.kind is SORTING:
        return sorting_solved(members, knowledge)
    if instance.problem.kind is MINIMUM:
        return minimum_solved(members, knowledge)
    return selection_solved(instance, knowledge)


def instance_solved(instance: Instance, knowledge: KnowledgeState) -> bool:
    if instance.problem.is_selection:
        return selection_solved(instance, knowledge)
    return all(set_solved(instance, i, knowledge) for i in range(instance.m))


# ---------------------------------------------------------------------------
# target area and categories for selection


@dataclass(frozen=True)
class SelectionRoundView:
    """The category split of the elements that intersect the target area,
    which spans the rank cuts (`rank_cut_keys`): the i-th value lies in it.

    `containing` holds the non-trivial unqueried intervals that cover the
    whole target area; the other three buckets classify every remaining
    element state that intersects the target area (points included, for
    the category-count invariants).
    """

    containing: Tuple[int, ...]
    inside: Tuple[int, ...]
    left_overlap: Tuple[int, ...]
    right_overlap: Tuple[int, ...]

    @property
    def a(self) -> int:
        return len(self.containing)

    @property
    def b(self) -> int:
        return len(self.inside)

    def members(self) -> List[int]:
        """The ids of all four buckets, ascending."""
        return sorted(self.containing + self.inside + self.left_overlap + self.right_overlap)


def selection_categories(
    instance: Instance, knowledge: KnowledgeState, pool: Optional[Iterable[int]] = None
) -> SelectionRoundView:
    """Classify the states of `pool` (default: every id) against the
    current target area; each bucket keeps the pool's order.

    A pool that holds the members of an earlier view of the same run
    classifies exactly as all ids do.  A reveal only raises an element's
    left cut and lowers its right cut, so the i-th smallest left cut only
    rises and the i-th smallest right cut only falls: the target area only
    shrinks, and an element disjoint from it stays disjoint.  A point that
    covers a trivial target area {v} is in no bucket; the target is then
    {v} for good, as the i-th left cut can rise no further than the i-th
    right cut, and the point keeps covering it in no bucket.

    The cuts are compared as cut keys.  Every left cut key here is at most
    its right cut key, the target area's too, so a state is disjoint from
    the target area exactly when one ends before the other starts; and a
    state is a point exactly when its two cut keys are equal.
    """
    ta_lo, ta_hi = rank_cut_keys(instance, knowledge)
    containing: List[int] = []
    inside: List[int] = []
    left_overlap: List[int] = []
    right_overlap: List[int] = []
    for eid in instance.ids() if pool is None else pool:
        lo, hi = knowledge.left_key(eid), knowledge.right_key(eid)
        if lo > ta_hi or hi < ta_lo:
            continue  # disjoint from the target area
        covers_left = lo <= ta_lo
        covers_right = hi >= ta_hi
        if covers_left and covers_right:
            if lo != hi:
                containing.append(eid)
            # a pinned point can only "cover" a trivial target area; it is
            # already resolved and belongs to no bucket
        elif covers_left:
            left_overlap.append(eid)
        elif covers_right:
            right_overlap.append(eid)
        else:
            inside.append(eid)
    return SelectionRoundView(
        containing=tuple(containing),
        inside=tuple(inside),
        left_overlap=tuple(left_overlap),
        right_overlap=tuple(right_overlap),
    )


# ---------------------------------------------------------------------------
# sorting structure: dependency sweep and graph, matching, forced queries, exact vertex cover


def dependency_runs(ids: List[int], lowers: List[int], uppers: List[int]) -> Iterator[Tuple[int, List[int]]]:
    """Each interval of one set with its run of later partners: the one
    sweep behind every dependency graph of sorting.

    `ids` are non-trivial intervals in ascending order of their lower
    endpoint keys `lowers`, with upper endpoint keys `uppers`, all on one
    exact scale.  Two non-trivial intervals a before b (b.lower >= a.lower)
    are dependent iff b.lower < a.upper, whatever their endpoint kinds; so
    a's partners after it are the run that starts below a.upper, and one
    bisection on the ascending lower keys finds where the run ends.  Each
    dependent pair of the set is yielded once, from its earlier interval.
    """
    for i, a in enumerate(ids):
        yield a, ids[i + 1 : bisect_left(lowers, uppers[i], i + 1)]


def _unpinned_runs(instance: Instance, knowledge: KnowledgeState) -> Iterator[Tuple[int, List[int]]]:
    """`dependency_runs` of every set over its kept unpinned members, which
    the set's view holds in left order with their endpoint keys."""
    for members in instance.family:
        live = knowledge.set_view(members).unpinned
        yield from dependency_runs([r[2] for r in live], [r[0] for r in live], [r[3] for r in live])


def _edge_list(runs: Iterable[Tuple[int, List[int]]]) -> Tuple[Tuple[int, int], ...]:
    """The distinct pairs of partner runs as (a, b), a < b, ascending."""
    return tuple(sorted({(a, b) if a < b else (b, a) for a, run in runs for b in run}))


def build_dependency_graph(instance: Instance, knowledge: KnowledgeState) -> Tuple[Tuple[int, int], ...]:
    """The dependent pairs (a, b), a < b, of unqueried non-trivial elements
    that share a set, ascending.  Single-set graphs are interval graphs."""
    return _edge_list(_unpinned_runs(instance, knowledge))


def greedy_matching_cover(instance: Instance, knowledge: KnowledgeState) -> FrozenSet[int]:
    """The matched vertices of the greedy maximal matching of the
    dependency graph: a 2-approximate vertex cover.

    The greedy pass over the ascending edges (a, b) matches each a, in
    ascending id order and while still unmatched, to its smallest
    unmatched partner b > a.  This does the same on the partner lists of
    the sweep, so no edge tuple is built or sorted.
    """
    later: Dict[int, List[int]] = defaultdict(list)  # a -> its partners b > a, once per set they share
    for a, run in _unpinned_runs(instance, knowledge):
        for b in run:
            if a < b:
                later[a].append(b)
            else:
                later[b].append(a)
    matched: Set[int] = set()
    for a in sorted(later):
        if a not in matched:
            b = min((b for b in later[a] if b not in matched), default=None)
            if b is not None:
                matched.update((a, b))
    return frozenset(matched)


def forced_queries(instance: Instance, knowledge: KnowledgeState) -> List[int]:
    """Unqueried intervals that strictly contain a known point of a co-set
    element: no answer can order them against that point, so every
    solution queries them.  Per set, the first point above an interval's
    lower endpoint is found by bisection in the kept pinned list and tested
    against its upper."""
    forced: Set[int] = set()
    for members in instance.family:
        view = knowledge.set_view(members)
        points = view.pinned
        if not points:
            continue
        for lower, _, eid, upper, _ in view.unpinned:
            j = bisect_left(points, (lower + 1,))  # the first point above the lower key
            if j < len(points) and points[j][0] < upper:
                forced.add(eid)
    return sorted(forced)


def exact_cover(edges: Sequence[Tuple[int, int]], lexicographic: bool = False) -> FrozenSet[int]:
    """A minimum vertex cover of `edges`: the first that a branch and bound
    finds.

    Each node branches on one open vertex, first taking it on its own and
    then as all its open neighbours, and prunes with the cover size plus a
    greedy matching of the open edges; only a smaller cover replaces the
    best, so the first minimum found wins.  By default the branch vertex is
    the highest-degree open one (lowest id on ties), the order that
    `sorting-vc`'s cover follows.  With `lexicographic` it is the lowest open
    id, and the first minimum is the lexicographically smallest: a vertex
    added below a node is open there, so its id is above the node's branch
    vertex.  Two covers found below a node thus agree on every id below its
    branch vertex, and the one found first, from the vertex's own branch,
    holds it.
    """
    best = frozenset(v for e in edges for v in e)  # all vertices: a cover that any smaller one replaces

    def matching_bound(cover: Set[int]) -> int:
        used: Set[int] = set()
        extra = 0
        for a, b in edges:
            if a in cover or b in cover or a in used or b in used:
                continue
            used.update((a, b))
            extra += 1
        return extra

    def search(cover: Set[int]) -> None:
        nonlocal best
        if len(cover) + matching_bound(cover) >= len(best):
            return
        open_edges = [e for e in edges if e[0] not in cover and e[1] not in cover]
        if not open_edges:
            best = frozenset(cover)
            return
        degree: Dict[int, int] = {}
        for a, b in open_edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        u = min(degree) if lexicographic else min(degree, key=lambda v: (-degree[v], v))
        neighbours = {w for e in open_edges if u in e for w in e if w != u}
        search(cover | {u})
        search(cover | neighbours)

    search(set())
    return best


# ---------------------------------------------------------------------------
# the truth record and certificates


@dataclass(frozen=True)
class TruthRecord:
    """A realization plus what its instance's kind asks of it, computed
    once: each set's true minimum (minimum) or the true i-th value (both
    selection kinds)."""

    realization: Realization
    minima: Tuple[Fraction, ...] = ()
    rank_value: Optional[Fraction] = None


def truth_record(instance: Instance, realization: Union[Realization, TruthRecord]) -> TruthRecord:
    """The record of `realization` for `instance`; a record is returned as is.

    Minima and the rank value are taken on the values' exact keys."""
    if isinstance(realization, TruthRecord):
        return realization
    if instance.problem.kind is SORTING:
        return TruthRecord(realization)
    value = realization.values.__getitem__
    ids = instance.ids()
    rank = dict(zip(ids, exact_keys(map(value, ids)))).__getitem__
    if instance.problem.kind is MINIMUM:
        return TruthRecord(realization, minima=tuple(value(min(members, key=rank)) for members in instance.family))
    return TruthRecord(realization, rank_value=value(sorted(ids, key=rank)[instance.problem.rank - 1]))


@dataclass(frozen=True)
class SolutionCertificate:
    """Provable answer, checkable from the knowledge state alone."""

    problem: ProblemFamily
    orders: Optional[Tuple[Tuple[int, ...], ...]] = None  # sorting: one per set
    minima: Optional[Tuple[Tuple[int, Fraction], ...]] = None  # minimum: per set
    value: Optional[Fraction] = None  # selection
    equal_ids: Optional[FrozenSet[int]] = None  # selection-full


def extract_certificate(instance: Instance, knowledge: KnowledgeState) -> SolutionCertificate:
    kind = instance.problem.kind
    if kind is SORTING:
        # by (right cut, left cut, id): ascending values, ties in a fixed order
        orders = tuple(
            tuple(cut_order(members, knowledge.right_key, knowledge.left_key)) for members in instance.family
        )
        return SolutionCertificate(kind, orders=orders)
    if kind is MINIMUM:
        minima = []
        for i, members in enumerate(instance.family, 1):
            pinned = knowledge.set_view(members).pinned
            if not pinned:
                raise InstanceError(f"set {i}: no pinned value; nothing to certify")
            holder = pinned[0][2]  # the least value, held by its lowest id
            minima.append((holder, knowledge.known_value(holder)))
        return SolutionCertificate(kind, minima=tuple(minima))
    v = selection_value_pinned(instance, knowledge)
    if v is None:
        raise InstanceError("selection value not pinned; nothing to certify")
    if kind is SELECTION_VALUE:
        return SolutionCertificate(kind, value=v)
    # the points at v: both cut keys at the rank cuts' shared key
    at, _ = rank_cut_keys(instance, knowledge)
    equal = frozenset(e for e in instance.ids() if knowledge.left_key(e) == at == knowledge.right_key(e))
    return SolutionCertificate(kind, value=v, equal_ids=equal)


def verify_certificate(
    instance: Instance,
    knowledge: KnowledgeState,
    cert: SolutionCertificate,
    realization: Union[Realization, TruthRecord, None] = None,
) -> None:
    """Raise unless the certificate is provable from knowledge (and, when a
    realization or its `TruthRecord` is supplied, true under it)."""
    kind = instance.problem.kind
    if cert.problem is not kind:
        raise InstanceError("certificate problem kind mismatch")
    truth = None if realization is None else truth_record(instance, realization)
    # one key list over every state's endpoints (a point's are its value)
    # and the claimed values: the minima, or the selection value
    ids = list(knowledge.ids())
    states = [knowledge.state(e) for e in ids]
    if kind is MINIMUM:
        assert cert.minima is not None
        if len(cert.minima) != instance.m:
            raise InstanceError(f"minimum certificate set count {len(cert.minima)} is not the instance's {instance.m}")
        claims = [v for _, v in cert.minima]
    else:
        claims = [] if cert.value is None else [cert.value]
    keys = exact_keys([st.lower for st in states] + [st.upper for st in states] + claims)
    lower, upper, claimed = dict(zip(ids, keys)), dict(zip(ids, keys[len(ids) :])), keys[2 * len(ids) :]
    if kind is SORTING:
        assert cert.orders is not None
        if len(cert.orders) != instance.m:
            raise InstanceError(f"sorting certificate set count {len(cert.orders)} is not the instance's {instance.m}")
        for members, order in zip(instance.family, cert.orders):
            if sorted(order) != sorted(members):
                raise InstanceError("sorting certificate is not a permutation of the set")
            for a, b in zip(order, order[1:]):
                if upper[a] > lower[b]:
                    raise InstanceError(f"order of {a} before {b} is not provable")
                if truth is not None and truth.realization.value(a) > truth.realization.value(b):
                    raise InstanceError(f"order of {a} before {b} contradicts the realization")
        return
    if kind is MINIMUM:
        for i, (members, (holder, v), claim) in enumerate(zip(instance.family, cert.minima, claimed)):
            # a state is a point exactly when its two endpoint keys are equal
            if holder not in members or not lower[holder] == upper[holder] == claim:
                raise InstanceError("claimed minimum is not a known value of the set")
            for e in members:
                if lower[e] < claim:
                    if lower[e] == upper[e]:
                        raise InstanceError("a known value undercuts the claimed minimum")
                    raise InstanceError("an unqueried element could undercut the claimed minimum")
            if truth is not None and truth.minima[i] != v:
                raise InstanceError("claimed minimum contradicts the realization")
        return
    # the i-th left and right cuts, on cut keys taken here from the states
    cuts = [cut_keys(st, lower[e], upper[e]) for e, st in zip(ids, states)]
    rank = instance.problem.rank
    at = sorted(left for left, _ in cuts)[rank - 1]
    # equal rank cut keys are one value with flag 0 on both sides: at // 3
    if at != sorted(right for _, right in cuts)[rank - 1] or claimed != [at // 3]:
        raise InstanceError("selection value is not pinned to the claimed value")
    if truth is not None and truth.rank_value != cert.value:
        raise InstanceError("selection value contradicts the realization")
    if kind is SELECTION_FULL:
        assert cert.equal_ids is not None
        if any(left <= at <= right for left, right in cuts if left != right):
            raise InstanceError("an unqueried interval still contains the selection value")
        expected = frozenset(e for e, (left, right) in zip(ids, cuts) if left == at == right)
        if cert.equal_ids != expected:
            raise InstanceError("claimed equal-value elements do not match knowledge")
        if truth is not None:
            equal = frozenset(e for e in instance.ids() if truth.realization.value(e) == cert.value)
            if cert.equal_ids != equal:
                raise InstanceError("equal-value elements contradict the realization")


# ---------------------------------------------------------------------------
# exact optima


@dataclass(frozen=True)
class OptReport:
    opt1: int
    opt_set: FrozenSet[int]
    opt_k: int
    method: str  # closed-form | branch-and-bound | brute-force (oracle)

    @staticmethod
    def of(opt_set: Iterable[int], k: int, method: str) -> "OptReport":
        chosen = frozenset(opt_set)
        return OptReport(len(chosen), chosen, ceil_div(len(chosen), k), method)


def opt1_minimum(instance: Instance, realization: Union[Realization, TruthRecord]) -> OptReport:
    """Per set: every non-trivial interval whose lower endpoint is strictly
    below the set's true minimum (this includes the minimum's own interval).
    The lower endpoints and the minima are compared on one exact key list."""
    elements, chosen = instance.elements, set()
    keys = exact_keys([iv.lower for iv in elements] + list(truth_record(instance, realization).minima))
    for members, floor in zip(instance.family, keys[len(elements) :]):
        for e in members:
            if keys[e - 1] < floor and not elements[e - 1].trivial:
                chosen.add(e)
    return OptReport.of(chosen, instance.k, "closed-form")


def opt1_selection_full(instance: Instance, realization: Union[Realization, TruthRecord]) -> OptReport:
    v_star = truth_record(instance, realization).rank_value
    chosen = [e for e, iv in enumerate(instance.elements, 1) if not iv.trivial and iv.contains(v_star)]
    return OptReport.of(chosen, instance.k, "closed-form")


def _selection_value_cost(need_a: int, need_b: int, pools: Counter) -> Optional[int]:
    """Fewest queries that take `need_a` elements out of A and put `need_b`
    into B, or None if the pools fall short.  `pools` counts the elements
    by what a query of them does, as (leaves A, joins B).  An element that
    does both serves both needs, so use as many of those as both needs, or
    a shortfall of the one-sided pools, ask for."""
    both = pools[True, True]
    x = max(min(both, need_a, need_b), need_a - pools[True, False], need_b - pools[False, True])
    if x > both:
        return None
    return x + max(0, need_a - x) + max(0, need_b - x)


def opt1_selection_value(instance: Instance, realization: Union[Realization, TruthRecord]) -> OptReport:
    """Counting form of the value-selection optimum.

    With v* the true i-th value, let A count the elements whose lower
    endpoint is below v* and B those whose upper endpoint is at most v*
    (an open upper endpoint at v* included).  The i-th left and right cuts
    both sit at v* exactly when A <= i-1 and B >= i.  Querying e takes it
    out of A iff it is in A and v_e >= v*, and puts it into B iff it is
    not in B and v_e <= v*; trivial elements never change.  So the optimum
    meets the two shortfalls from three pools, and the lexicographically
    smallest minimum is built by walking the useful ids in ascending order
    and keeping each one that still completes to the optimum size.
    """
    rank = instance.problem.rank
    truth = truth_record(instance, realization)
    v_star, value = truth.rank_value, truth.realization.values.__getitem__
    below = settled = 0
    effect: Dict[int, Tuple[bool, bool]] = {}
    for e, iv in enumerate(instance.elements, 1):
        in_a, in_b = iv.lower < v_star, iv.upper <= v_star
        below += in_a
        settled += in_b
        if iv.trivial:
            continue
        v = value(e)
        leaves_a, joins_b = in_a and v >= v_star, not in_b and v <= v_star
        if leaves_a or joins_b:
            effect[e] = (leaves_a, joins_b)
    need_a, need_b = max(0, below - (rank - 1)), max(0, rank - settled)
    pools = Counter(effect.values())
    todo = _selection_value_cost(need_a, need_b, pools)
    assert todo is not None  # querying everything non-trivial is always feasible
    chosen = []
    for e in sorted(effect):
        leaves_a, joins_b = effect[e]
        pools[leaves_a, joins_b] -= 1
        rest_a, rest_b = max(0, need_a - leaves_a), max(0, need_b - joins_b)
        rest = _selection_value_cost(rest_a, rest_b, pools)
        if rest is not None and rest + 1 == todo:
            chosen.append(e)
            need_a, need_b, todo = rest_a, rest_b, rest
    assert todo == 0
    return OptReport.of(chosen, instance.k, "closed-form")


def reveal_all(instance: Instance, realization: Realization, ids: Iterable[int]) -> KnowledgeState:
    k = instance.knowledge()
    k.reveal({eid: realization.value(eid) for eid in ids if not instance.interval(eid).trivial})
    return k


def query_set_feasible(instance: Instance, realization: Realization, ids: Iterable[int]) -> bool:
    """True iff revealing the given elements provably solves the instance."""
    return instance_solved(instance, reveal_all(instance, realization, ids))


def sorting_residual(
    instance: Instance, realization: Realization
) -> Tuple[FrozenSet[int], Tuple[Tuple[int, int], ...]]:
    """The mandatory set M of a sorting instance and its residual graph R.

    An interval b that strictly contains the value of a co-set element a is
    mandatory: unless b is queried, ordering the pair queries a (or a is a
    point), and v_a lands inside I_b.  Per set, one bisection per member
    over the set's sorted values counts the values strictly inside its
    interval, its own value aside.  R holds the dependency edges of the
    untouched instance with neither end in M, ascending.  The same pass
    keeps each set's non-trivial members that are not mandatory in it; an
    element can be mandatory through one set and not through another, so
    those outside all of M are swept, per set in lower-endpoint order, by
    `dependency_runs`.  Endpoints and values are compared on one exact key
    list of the realization's; no `KnowledgeState` is built.
    """
    lowers, uppers, values = realization.exact_keys(instance)
    mandatory = set()
    free = []  # per set, its non-trivial members not mandatory in that set
    for members in instance.family:
        ranked = sorted(values[e - 1] for e in members)
        kept = []
        for b in members:
            # a trivial interval has an empty interior
            lo, hi = lowers[b - 1], uppers[b - 1]
            inside = bisect_left(ranked, hi) - bisect_right(ranked, lo)
            if inside > (lo < values[b - 1] < hi):
                mandatory.add(b)
            elif lo < hi:
                kept.append(b)
        free.append(kept)
    runs = []
    for kept in free:
        ids = sorted((b for b in kept if b not in mandatory), key=lambda b: lowers[b - 1])
        runs.extend(dependency_runs(ids, [lowers[b - 1] for b in ids], [uppers[b - 1] for b in ids]))
    return frozenset(mandatory), _edge_list(runs)


def opt1_sorting(instance: Instance, realization: Realization, cap: int = OPT_CAP) -> OptReport:
    """M plus the lexicographically smallest minimum vertex cover of R.

    A query outside M makes no other query necessary, since any interval
    its value lands strictly inside is in M.  So the feasible sets are M
    plus the vertex covers of R, and every minimum contains M.  The
    smallest is M plus the first minimum cover that `exact_cover` finds in
    its lexicographic order, searching R's vertices by ascending id.  `cap`
    bounds R's vertex count.
    """
    mandatory, edges = sorting_residual(instance, realization)
    vertices = {v for e in edges for v in e}
    if len(vertices) > cap:
        raise BruteForceCapError(f"sorting residual of {len(vertices)} vertices above cap {cap}")
    return OptReport.of(mandatory | exact_cover(edges, lexicographic=True), instance.k, "branch-and-bound")


def opt1_bruteforce(instance: Instance, realization: Realization, cap: int = BRUTE_FORCE_CAP) -> OptReport:
    """Minimum feasible query set, lexicographically smallest among minima,
    by subset enumeration in cardinality order.  No report uses it: it is
    the oracle that the closed forms and `opt1_sorting` are tested
    against, and `cap` bounds n.
    """
    if instance.n > cap:
        raise BruteForceCapError(f"n = {instance.n} above brute-force cap {cap}")
    candidates = [e for e in instance.ids() if not instance.interval(e).trivial]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if query_set_feasible(instance, realization, combo):
                return OptReport.of(combo, instance.k, "brute-force")
    raise InstanceError("no feasible query set; instance is inconsistent")


def canonical_opt(instance: Instance, realization: Union[Realization, TruthRecord], cap: int = OPT_CAP) -> OptReport:
    """The fixed optimum used for wasted-query accounting.

    Always the lexicographically smallest minimum, so wasted counts are
    deterministic: closed form for minimum and both selection kinds,
    `opt1_sorting` for sorting.  `cap` bounds the sorting residual's vertex
    count only.  `realization` may be its prebuilt `TruthRecord`.
    """
    kind = instance.problem.kind
    if kind is MINIMUM:
        return opt1_minimum(instance, realization)
    if kind is SELECTION_FULL:
        return opt1_selection_full(instance, realization)
    if kind is SELECTION_VALUE:
        return opt1_selection_value(instance, realization)
    return opt1_sorting(instance, truth_record(instance, realization).realization, cap=cap)
