"""Solvedness checkers, solution certificates, and exact offline optima.

A problem state is solved when the answer is provable from the knowledge
state alone, without peeking at unqueried values.  The optimum query set
is computed in closed form where one exists (minimum per set, the
containing intervals for full selection), by subset search for value
selection, and for sorting by the same exact vertex-cover branch and bound
that gives `sorting-vc` its multi-set cover, closed under the queries that
revealed values force; the closed forms double as oracles for the brute
force and vice versa.

The sorting structure comes from per-set sweeps in exact rationals: the
dependent pairs of one set form an interval graph, so one pass over its
intervals in left-endpoint order finds every pair, and the points that
force queries, or that leave a set unsorted, are found by bisection in
sorted value lists.  Selection reads its rank cuts from the knowledge
state's kept cut lists.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
    CLOSED,
    Cut,
    KnowledgeState,
    OPEN,
    UncertainInterval,
    dependent,  # unused here; kept for perfbench's tracer, which counts it in this namespace
    left_cut,
    order_provable,
    right_cut,
)


class BruteForceCapError(InstanceError):
    """Subset search refused: instance above the configured cap."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# solvedness


def minimum_scan(set_ids: Iterable[int], knowledge: KnowledgeState) -> Tuple[Optional[Fraction], List[int]]:
    """One pass over a set: its least pinned value (None if none is pinned)
    and the unpinned members that could still lie below it.

    With no pinned value every unpinned member is live.  Otherwise a member
    is dropped once its lower endpoint is at or above the floor (values in
    open intervals sit strictly above the endpoint, so a weak comparison
    suffices).
    """
    floor = None
    unpinned = []
    for eid in set_ids:
        v = knowledge.known_value(eid)
        if v is None:
            unpinned.append(eid)
        elif floor is None or v < floor:
            floor = v
    if floor is None:
        return None, unpinned
    return floor, [eid for eid in unpinned if knowledge.state(eid).lower < floor]


def minimum_solved(set_ids: Iterable[int], knowledge: KnowledgeState) -> bool:
    """True iff the set's minimum value is provable from current knowledge."""
    floor, live = minimum_scan(set_ids, knowledge)
    return floor is not None and not live


def minimum_value(set_ids: Iterable[int], knowledge: KnowledgeState) -> Fraction:
    values = [knowledge.known_value(e) for e in set_ids]
    return min(v for v in values if v is not None)


def sorting_solved(set_ids: Iterable[int], knowledge: KnowledgeState) -> bool:
    """True iff no dependent pair remains within the set.

    Two spans (non-trivial states) are dependent iff, taken by lower
    endpoint, the later one starts below the reach of the earlier ones.
    Once no such pair exists the spans are disjoint, and a point can only
    lie strictly inside the last span that starts below it.
    """
    points = []
    spans = []
    for e in set_ids:
        st = knowledge.state(e)
        if st.trivial:
            points.append(st.lower)
        else:
            spans.append((st.lower, st.upper))
    spans.sort()
    reach = None
    for lo, hi in spans:
        if reach is not None and lo < reach:
            return False
        reach = hi
    lowers = [lo for lo, _ in spans]
    for p in points:
        j = bisect_left(lowers, p) - 1
        if j >= 0 and p < spans[j][1]:
            return False
    return True


def rank_cuts(instance: Instance, knowledge: KnowledgeState) -> Tuple[Cut, Cut]:
    """The i-th smallest left and right cuts over the current states
    (revealed elements are points), i being the problem's rank."""
    rank = instance.problem.rank
    lefts, rights = knowledge.cut_lists()
    return lefts[rank - 1], rights[rank - 1]


def selection_value_pinned(instance: Instance, knowledge: KnowledgeState) -> Optional[Fraction]:
    """The i-th smallest value if it is already forced, else None.

    Pushing every unqueried interval to its lowest (resp. highest)
    admissible end gives the two extremes of the i-th order statistic; the
    statistic is pinned exactly when both extremes are the same attained
    value.  Open endpoints are tracked as one-sided limits, which are never
    attained.
    """
    lo, hi = rank_cuts(instance, knowledge)
    if lo == hi and lo[1] == 0:
        return lo[0]
    return None


def selection_containers(instance: Instance, knowledge: KnowledgeState, v: Fraction) -> List[int]:
    """Non-trivial unqueried intervals whose interval contains v."""
    out = []
    for eid in instance.ids():
        st = knowledge.state(eid)
        if not st.trivial and st.contains(v):
            out.append(eid)
    return out


def selection_solved(instance: Instance, knowledge: KnowledgeState) -> bool:
    v = selection_value_pinned(instance, knowledge)
    if v is None:
        return False
    if instance.problem.kind is SELECTION_FULL:
        return not selection_containers(instance, knowledge, v)
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


def target_area(instance: Instance, knowledge: KnowledgeState) -> UncertainInterval:
    """Interval between the i-th smallest left and right endpoints.

    Computed over the current states (revealed elements are points); the
    i-th smallest value must lie inside.
    """
    lo, hi = rank_cuts(instance, knowledge)
    if lo[0] == hi[0]:
        return UncertainInterval.point(lo[0])
    return UncertainInterval(
        lo[0],
        CLOSED if lo[1] == 0 else OPEN,
        hi[0],
        CLOSED if hi[1] == 0 else OPEN,
    )


@dataclass(frozen=True)
class SelectionRoundView:
    """Target area plus the category split of intersecting elements.

    `containing` holds the non-trivial unqueried intervals that cover the
    whole target area; the other three buckets classify every remaining
    element state that intersects the target area (points included, for
    the category-count invariants).
    """

    target: UncertainInterval
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


def selection_categories(instance: Instance, knowledge: KnowledgeState) -> SelectionRoundView:
    ta = target_area(instance, knowledge)
    ta_lo, ta_hi = left_cut(ta), right_cut(ta)
    containing: List[int] = []
    inside: List[int] = []
    left_overlap: List[int] = []
    right_overlap: List[int] = []
    for eid in instance.ids():
        st = knowledge.state(eid)
        lo, hi = left_cut(st), right_cut(st)
        if max(lo, ta_lo) > min(hi, ta_hi):
            continue  # disjoint from the target area
        covers_left = lo <= ta_lo
        covers_right = hi >= ta_hi
        if covers_left and covers_right:
            if not st.trivial:
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
        target=ta,
        containing=tuple(containing),
        inside=tuple(inside),
        left_overlap=tuple(left_overlap),
        right_overlap=tuple(right_overlap),
    )


# ---------------------------------------------------------------------------
# sorting structure: dependency graph, forced queries, exact vertex cover


@dataclass(frozen=True)
class DependencyGraph:
    """Dependent pairs that co-occur in some set, over non-trivial unqueried
    elements.  Single-set graphs are interval graphs."""

    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    states: Dict[int, UncertainInterval]
    single_set: bool


def build_dependency_graph(instance: Instance, knowledge: KnowledgeState) -> DependencyGraph:
    """Per set, a sweep over the live intervals in (lower, id) order.

    Two non-trivial intervals a before b (b.lower >= a.lower) are dependent
    iff b.lower < a.upper, whatever their endpoint kinds; so a's partners
    are the run of intervals after it that start below a.upper.
    """
    vertices = sorted(knowledge.unqueried_nontrivial(instance.ids()))
    states = {v: knowledge.state(v) for v in vertices}
    edges: Set[Tuple[int, int]] = set()
    for members in instance.family:
        live = sorted((states[e].lower, e) for e in members if e in states)
        for i, (_, a) in enumerate(live):
            reach = states[a].upper
            for j in range(i + 1, len(live)):
                lo, b = live[j]
                if not lo < reach:
                    break
                edges.add((a, b) if a < b else (b, a))
    return DependencyGraph(
        vertices=tuple(vertices),
        edges=tuple(sorted(edges)),
        states=states,
        single_set=instance.m == 1,
    )


def forced_queries(instance: Instance, knowledge: KnowledgeState) -> List[int]:
    """Unqueried intervals that strictly contain a known point of a co-set
    element: no answer can order them against that point, so every
    solution queries them.  Per set, the first point above an interval's
    lower endpoint is found by bisection and tested against its upper."""
    forced: Set[int] = set()
    for members in instance.family:
        known = [(e, knowledge.known_value(e)) for e in members]
        points = sorted(v for _, v in known if v is not None)
        if not points:
            continue
        for e, v in known:
            if v is not None:
                continue
            iv = knowledge.state(e)
            j = bisect_right(points, iv.lower)
            if j < len(points) and points[j] < iv.upper:
                forced.add(e)
    return sorted(forced)


def _closure(base: Iterable[int], forces: Dict[int, FrozenSet[int]]) -> Set[int]:
    out = set(base)
    frontier = list(base)
    while frontier:
        for e in forces[frontier.pop()]:
            if e not in out:
                out.add(e)
                frontier.append(e)
    return out


def exact_cover(
    edges: Sequence[Tuple[int, int]],
    forces: Optional[Dict[int, FrozenSet[int]]] = None,
    start: Iterable[int] = (),
    excluded: Iterable[int] = (),
    upper: Optional[int] = None,
) -> Optional[FrozenSet[int]]:
    """Minimum vertex cover of `edges` that contains `start`, or None.

    Branch and bound: take the highest-degree open vertex (lowest id on
    ties), first on its own and then as all its open neighbours, and prune
    with the cover size plus a greedy matching of the open edges.  The
    first minimum found wins.  With `forces`, every partial cover is closed
    under the implications (picking i picks `forces[i]`); partial covers
    that touch `excluded`, or whose bound exceeds `upper`, are dropped.
    """
    excluded = frozenset(excluded)
    best: Optional[FrozenSet[int]] = None

    def grow(cover: Set[int], extra: Iterable[int]) -> Optional[Set[int]]:
        # `cover` is already closed, so only what `extra` forces is new
        if forces:
            extra = _closure(extra, forces)
        if excluded and not excluded.isdisjoint(extra):
            return None
        return cover.union(extra)

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
        bound = len(cover) + matching_bound(cover)
        if best is not None and bound >= len(best):
            return
        if upper is not None and bound > upper:
            return
        open_edges = [e for e in edges if e[0] not in cover and e[1] not in cover]
        if not open_edges:
            best = frozenset(cover)
            return
        degree: Dict[int, int] = {}
        for a, b in open_edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        u = min(degree, key=lambda v: (-degree[v], v))
        neighbours = {w for e in open_edges if u in e for w in e if w != u}
        for extra in ({u}, neighbours):
            branch = grow(cover, extra)
            if branch is not None:
                search(branch)

    root = grow(set(), start)
    if root is not None:
        search(root)
    return best


# ---------------------------------------------------------------------------
# certificates


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
        orders = []
        for members in instance.family:
            order = sorted(
                members,
                key=lambda e: (right_cut(knowledge.state(e)), left_cut(knowledge.state(e)), e),
            )
            orders.append(tuple(order))
        return SolutionCertificate(kind, orders=tuple(orders))
    if kind is MINIMUM:
        minima = []
        for members in instance.family:
            v = minimum_value(members, knowledge)
            holder = min(e for e in members if knowledge.known_value(e) == v)
            minima.append((holder, v))
        return SolutionCertificate(kind, minima=tuple(minima))
    v = selection_value_pinned(instance, knowledge)
    if v is None:
        raise InstanceError("selection value not pinned; nothing to certify")
    if kind is SELECTION_VALUE:
        return SolutionCertificate(kind, value=v)
    equal = frozenset(e for e in instance.ids() if knowledge.known_value(e) == v)
    return SolutionCertificate(kind, value=v, equal_ids=equal)


def verify_certificate(
    instance: Instance,
    knowledge: KnowledgeState,
    cert: SolutionCertificate,
    realization: Optional[Realization] = None,
) -> None:
    """Raise unless the certificate is provable from knowledge (and, when a
    realization is supplied, true under it)."""
    kind = instance.problem.kind
    if cert.problem is not kind:
        raise InstanceError("certificate problem kind mismatch")
    if kind is SORTING:
        assert cert.orders is not None
        for members, order in zip(instance.family, cert.orders):
            if sorted(order) != sorted(members):
                raise InstanceError("sorting certificate is not a permutation of the set")
            for a, b in zip(order, order[1:]):
                if not order_provable(knowledge.state(a), knowledge.state(b)):
                    raise InstanceError(f"order of {a} before {b} is not provable")
                if realization is not None and realization.value(a) > realization.value(b):
                    raise InstanceError(f"order of {a} before {b} contradicts the realization")
        return
    if kind is MINIMUM:
        assert cert.minima is not None
        for members, (holder, v) in zip(instance.family, cert.minima):
            if holder not in members or knowledge.known_value(holder) != v:
                raise InstanceError("claimed minimum is not a known value of the set")
            for e in members:
                known = knowledge.known_value(e)
                if known is not None:
                    if known < v:
                        raise InstanceError("a known value undercuts the claimed minimum")
                elif knowledge.state(e).lower < v:
                    raise InstanceError("an unqueried element could undercut the claimed minimum")
            if realization is not None and min(realization.value(e) for e in members) != v:
                raise InstanceError("claimed minimum contradicts the realization")
        return
    pinned = selection_value_pinned(instance, knowledge)
    if pinned is None or pinned != cert.value:
        raise InstanceError("selection value is not pinned to the claimed value")
    if realization is not None:
        values = sorted(realization.value(e) for e in instance.ids())
        if values[instance.problem.rank - 1] != cert.value:
            raise InstanceError("selection value contradicts the realization")
    if kind is SELECTION_FULL:
        assert cert.equal_ids is not None
        if selection_containers(instance, knowledge, cert.value):
            raise InstanceError("an unqueried interval still contains the selection value")
        expected = frozenset(e for e in instance.ids() if knowledge.known_value(e) == cert.value)
        if cert.equal_ids != expected:
            raise InstanceError("claimed equal-value elements do not match knowledge")
        if realization is not None:
            truth = frozenset(e for e in instance.ids() if realization.value(e) == cert.value)
            if cert.equal_ids != truth:
                raise InstanceError("equal-value elements contradict the realization")


# ---------------------------------------------------------------------------
# exact optima


@dataclass(frozen=True)
class OptReport:
    opt1: int
    opt_set: FrozenSet[int]
    opt_k: int
    method: str  # closed-form | brute-force

    @staticmethod
    def of(opt_set: Iterable[int], k: int, method: str) -> "OptReport":
        chosen = frozenset(opt_set)
        return OptReport(len(chosen), chosen, ceil_div(len(chosen), k), method)


def opt1_minimum(instance: Instance, realization: Realization) -> OptReport:
    """Per set: every non-trivial interval whose lower endpoint is strictly
    below the set's true minimum (this includes the minimum's own interval)."""
    chosen = set()
    for members in instance.family:
        v_star = min(realization.value(e) for e in members)
        for e in members:
            iv = instance.interval(e)
            if not iv.trivial and iv.lower < v_star:
                chosen.add(e)
    return OptReport.of(chosen, instance.k, "closed-form")


def opt1_selection_full(instance: Instance, realization: Realization) -> OptReport:
    values = sorted(realization.value(e) for e in instance.ids())
    v_star = values[instance.problem.rank - 1]
    chosen = [
        e
        for e in instance.ids()
        if not instance.interval(e).trivial and instance.interval(e).contains(v_star)
    ]
    return OptReport.of(chosen, instance.k, "closed-form")


def reveal_all(instance: Instance, realization: Realization, ids: Iterable[int]) -> KnowledgeState:
    k = instance.knowledge()
    for eid in ids:
        if not instance.interval(eid).trivial:
            k.reveal(eid, realization.value(eid))
    return k


def query_set_feasible(instance: Instance, realization: Realization, ids: Iterable[int]) -> bool:
    """True iff revealing the given elements provably solves the instance."""
    return instance_solved(instance, reveal_all(instance, realization, ids))


def _sorting_structure(instance: Instance, realization: Realization):
    """Static dependency edges plus the forced-query implications.

    The edges are those of the untouched instance's dependency graph;
    `forces[i]` holds the co-set intervals that must be queried once i's
    value is on the table (the value falls strictly inside them), and the
    seeds are the intervals that the trivial points force.  Per set, the
    members whose values lie strictly inside an interval are one slice of
    the set's value order, found by bisection.
    """
    forcing: Dict[int, Set[int]] = {e: set() for e in instance.ids()}
    for members in instance.family:
        order = sorted((realization.value(e), e) for e in members)
        values = [v for v, _ in order]
        for b in members:
            # a trivial interval has an empty interior and an empty slice
            iv = instance.interval(b)
            for _, a in order[bisect_right(values, iv.lower):bisect_left(values, iv.upper)]:
                if a != b:
                    forcing[a].add(b)
    forces = {a: frozenset(bs) for a, bs in forcing.items()}
    seeds = set()
    for a in instance.ids():
        if instance.interval(a).trivial:
            seeds |= forces[a]
    return build_dependency_graph(instance, instance.knowledge()).edges, forces, seeds


def _opt1_sorting_bruteforce(instance: Instance, realization: Realization) -> FrozenSet[int]:
    edges, forces, seeds = _sorting_structure(instance, realization)
    best = exact_cover(edges, forces, start=seeds)
    assert best is not None  # querying everything non-trivial is always feasible
    opt = len(best)
    chosen: set = set()
    excluded: set = set()
    for eid in instance.ids():
        if eid in chosen or eid in excluded or instance.interval(eid).trivial:
            continue
        trial = chosen | {eid} | seeds
        if exact_cover(edges, forces, trial, excluded, upper=opt) is not None:
            chosen = _closure(trial, forces)
        else:
            excluded.add(eid)
    assert len(chosen) == opt
    return frozenset(chosen)


def opt1_bruteforce(instance: Instance, realization: Realization, cap: int = 22) -> OptReport:
    """Minimum feasible query set, lexicographically smallest among minima.

    Subset search in cardinality order; sorting instances go through
    `exact_cover` with forced closure, which scales past the enumeration cap.
    """
    if instance.n > cap:
        raise BruteForceCapError(f"n = {instance.n} above brute-force cap {cap}")
    if instance.problem.kind is SORTING:
        chosen = _opt1_sorting_bruteforce(instance, realization)
        return OptReport.of(chosen, instance.k, "brute-force")
    candidates = [e for e in instance.ids() if not instance.interval(e).trivial]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if query_set_feasible(instance, realization, combo):
                return OptReport.of(combo, instance.k, "brute-force")
    raise InstanceError("no feasible query set; instance is inconsistent")


def canonical_opt(instance: Instance, realization: Realization, cap: int = 22) -> OptReport:
    """The fixed optimum used for wasted-query accounting.

    Closed form where one exists, otherwise the lexicographically smallest
    brute-force minimum, so wasted counts are deterministic.
    """
    kind = instance.problem.kind
    if kind is MINIMUM:
        return opt1_minimum(instance, realization)
    if kind is SELECTION_FULL:
        return opt1_selection_full(instance, realization)
    return opt1_bruteforce(instance, realization, cap=cap)
