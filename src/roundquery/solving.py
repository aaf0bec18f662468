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
never built.  Only R is capped.

The predicates compare the exact integer keys that the knowledge state
keeps across reveals, all on its one scale, never a `Fraction`: a key is
the value times a common denominator, so keys order and tie as the
rationals do.  The minimum predicates walk each set's left order, the
instance's `left_orders`: the state keeps per set a floor, the key row of
its least pinned point, and a head before which every member is pinned,
and its live members, the unpinned ones below the floor, are read off the
order from the head (`KnowledgeState.minimum_live`); `minimum_solved`
reads one row of that walk, the minimum algorithms as much as they pick,
and the certificate takes each floor's id.  The sorting predicates walk
the same orders: a set's unpinned key rows, which carry their endpoint
keys, in left order (`KnowledgeState.unpinned_rows`), and its pinned
value keys, ascending (`KnowledgeState.pinned_keys`).  The dependent
pairs of one set form an interval graph, so one pass over its intervals
in left order finds every pair, each interval's partners ending where a
bisection says: `dependency_runs`, the one sweep behind the dependency
graph, the residual R and the greedy matching of `batch-sort-2`.
`_pierced` finds, by bisection, the spans that strictly contain a pinned
point: they force queries and leave a set unsorted.
Selection reads its rank cuts from the kept cut lists of cut keys, and
full selection's solvedness counts the cuts around the pinned value's
key there, by bisection, rather than scanning the unqueried intervals.
Orders by endpoint, such as the sorting certificate's, come from
`cut_order` on the state's cut keys.
What the predicates return to callers, cuts, values and certificates,
is read back as `Fraction`s.

The certificate check reads the states alone.  For sorting and selection
it keys them itself: one `interval_keys` call over every state's
endpoints and the claimed selection value.  An order a before b is
provable when a's upper key is at most b's lower key, a state is a point
when its two keys are equal, and the rank cuts are taken on cut keys.
For minimum it walks a prefix of each set's left order
(`Instance.left_orders`), comparing the states' lower endpoints with the
claim by integer cross-multiplication of the ratios they keep, once every
revealed state is known to start at or above its interval
(`_verify_minima`).  It reads no floor, cut list or key that the
knowledge state keeps, so it checks what those decide rather than
repeat it; the left orders it shares with the minimum walks are the
instance's, a function of its intervals alone, which `TestLeftOrders`
checks against a sort of each set.  Against the realization it reads,
as the offline optima do, the one `TruthRecord` that the oracle
validated: the realization's keys and what the kind asks of it, so
nothing keys the realization twice, and the elements at the selection
value are found by their value keys.  A set's
true minimum is found by a walk of its left order on the record's keys,
the first time an audit reads it, and the minimum optimum is the prefix
of the same order below it, one bisection away.  A bare `Realization`
handed to an audit is validated first, since those walks hold only for
values inside their intervals.
"""

from __future__ import annotations

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
    TruthRecord,
    truth_record,
)
from .intervals import (
    KeyRecord,
    KnowledgeState,
    cut_keys,
    cut_order,
    dependent,  # unused here; kept for perfbench's tracer, which counts it in this namespace
    interval_keys,
)


# the default `cap` of `canonical_opt`: the largest sorting residual covered
OPT_CAP = 22


OpenSets = Tuple[int, ...]  # indices of the unsolved sets, ascending, never empty


class AlgorithmError(RuntimeError):
    """Algorithm asked to run outside its contract."""


class BruteForceCapError(InstanceError):
    """Optimum refused above its cap: the sorting residual's vertex count
    for `canonical_opt`."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# solvedness


def minimum_solved(set_idx: int, knowledge: KnowledgeState) -> bool:
    """True iff the minimum value of the family's set `set_idx` is provable
    from current knowledge: some value is pinned and no unpinned member
    starts below the least of them, so its live walk is empty."""
    return knowledge.minimum_floor(set_idx) is not None and next(knowledge.minimum_live(set_idx), None) is None


def sorting_solved(set_idx: int, knowledge: KnowledgeState) -> bool:
    """True iff no dependent pair remains within the family's set `set_idx`.

    Two spans (unpinned members) are dependent iff, taken in left order,
    the later one starts below the reach of the earlier ones, so some
    span starts below the upper key of the one before it; the walk stops
    at the first.  With no such pair left, the set is sorted iff no point
    pierces a span, that is lies strictly inside it.
    """
    spans = []
    for row in knowledge.unpinned_rows(set_idx):
        if spans and row[0] < spans[-1][3]:
            return False
        spans.append(row)
    return next(_pierced(spans, knowledge.pinned_keys(set_idx)), None) is None


def _pierced(spans: Iterable[KeyRecord], points: List[int]) -> Iterator[int]:
    """The ids of the pierced spans, the unpinned members' key rows that
    strictly contain one of the ascending value keys `points`, in the
    spans' order: each span tests the first point above its lower key,
    found by bisection.  With no point, the spans are not read."""
    if not points:
        return
    for lower, _, eid, upper, _ in spans:
        j = bisect_right(points, lower)
        if j < len(points) and points[j] < upper:
            yield eid


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
    interval contains it: its cut key lies between no such interval's.

    That is counted on the kept cut lists by four bisections.  With `at`
    the value's cut key, let a and b count the left cut keys below and at
    most `at`, c and d the right cut keys likewise.  The states with
    left <= at <= right number b - c, since a right cut below `at` has
    its left cut below it too; p of them are the points at the value, the
    only trivial ones, which leaves b - c - p non-trivial states that
    contain `at`.  The states with left < at < right number a - (d - p),
    all of them among those.  So (b - c - p) + (a - d + p), that is
    (a + b) - (c + d), is 0 exactly when b - c - p is.
    """
    if selection_value_pinned(instance, knowledge) is None:
        return False
    if instance.problem.kind is SELECTION_FULL:
        at, _ = rank_cut_keys(instance, knowledge)
        lefts, rights = knowledge.cut_lists()
        return lefts.bisect_left(at) + lefts.bisect_right(at) == rights.bisect_left(at) + rights.bisect_right(at)
    return True


def set_solved(instance: Instance, set_idx: int, knowledge: KnowledgeState) -> bool:
    if instance.problem.kind is SORTING:
        return sorting_solved(set_idx, knowledge)
    if instance.problem.kind is MINIMUM:
        return minimum_solved(set_idx, knowledge)
    return selection_solved(instance, knowledge)


def instance_solved(instance: Instance, knowledge: KnowledgeState) -> bool:
    if instance.problem.is_selection:
        return selection_solved(instance, knowledge)
    return all(set_solved(instance, i, knowledge) for i in range(instance.m))


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
    """`dependency_runs` of every set over its unpinned members, walked in
    left order with their endpoint keys."""
    for i in range(instance.m):
        live = list(knowledge.unpinned_rows(i))
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
    solution queries them: the pierced members of every set."""
    rows, points = knowledge.unpinned_rows, knowledge.pinned_keys
    return sorted({eid for i in range(instance.m) for eid in _pierced(rows(i), points(i))})


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
        # by (right cut, left cut, id): ascending values, ties in a fixed order
        orders = tuple(
            tuple(cut_order(members, knowledge.right_key, knowledge.left_key)) for members in instance.family
        )
        return SolutionCertificate(kind, orders=orders)
    if kind is MINIMUM:
        minima = []
        for i in range(instance.m):
            floor = knowledge.minimum_floor(i)
            if floor is None:
                raise InstanceError(f"set {i + 1}: no pinned value; nothing to certify")
            holder = floor[2]  # the least value, held by its lowest id
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
    realization or its `TruthRecord` is supplied, true under it).  A bare
    `Realization` is validated first."""
    kind = instance.problem.kind
    if cert.problem is not kind:
        raise InstanceError("certificate problem kind mismatch")
    truth = None if realization is None else truth_record(instance, realization)
    if kind is MINIMUM:
        assert cert.minima is not None
        _verify_minima(instance, knowledge, cert.minima, truth)
        return
    # one key list over every state's endpoints (a point's are its value)
    # and the claimed selection value
    ids, states = list(knowledge.ids()), list(knowledge.states())
    _, lowers, uppers, claimed = interval_keys(states, [] if cert.value is None else [cert.value])
    lower, upper = dict(zip(ids, lowers)), dict(zip(ids, uppers))
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
                if truth is not None and truth.values[a - 1] > truth.values[b - 1]:
                    raise InstanceError(f"order of {a} before {b} contradicts the realization")
        return
    # the i-th left and right cuts, on cut keys taken here from the states
    cuts = [cut_keys(st, lower[e], upper[e]) for e, st in zip(ids, states)]
    rank = instance.problem.rank
    at = sorted(left for left, _ in cuts)[rank - 1]
    # equal rank cut keys are one value with flag 0 on both sides: at // 3
    if at != sorted(right for _, right in cuts)[rank - 1] or claimed != [at // 3]:
        raise InstanceError("selection value is not pinned to the claimed value")
    if truth is not None and truth.realization.value(truth.holders[0]) != cert.value:
        raise InstanceError("selection value contradicts the realization")
    if kind is SELECTION_FULL:
        assert cert.equal_ids is not None
        if any(left <= at <= right for left, right in cuts if left != right):
            raise InstanceError("an unqueried interval still contains the selection value")
        expected = frozenset(e for e, (left, right) in zip(ids, cuts) if left == at == right)
        if cert.equal_ids != expected:
            raise InstanceError("claimed equal-value elements do not match knowledge")
        if truth is not None:
            # the rank holder's value is cert.value (checked above), so the
            # elements at that value are those whose value key equals its key
            at_key = truth.values[truth.holders[0] - 1]
            equal = frozenset(e for e, key in enumerate(truth.values, 1) if key == at_key)
            if cert.equal_ids != equal:
                raise InstanceError("equal-value elements contradict the realization")


def _verify_minima(
    instance: Instance,
    knowledge: KnowledgeState,
    minima: Tuple[Tuple[int, Fraction], ...],
    truth: Optional[TruthRecord],
) -> None:
    """The minimum certificate check: per set, the holder is a member whose
    state is the point of its claim, no member's state starts below the
    claim, and, given a record, the claim is the set's true minimum.

    A state that starts below the claim is found on a prefix of the set's
    `Instance.left_orders`, which ascends by the original intervals' lower
    endpoints.  That is exact once every state is known to start at or
    above its original interval's lower endpoint, as a revealed value
    does, checked first: an unrevealed state is the instance's own interval
    object, so only the others are compared.  Then a member whose state
    starts below the claim has an original interval that does too, so the
    order is walked only while its original intervals start below the
    claim; among the states there that start below it too, the error names
    the kind of the first in the set's iteration order, as a scan of every
    member would.  Each comparison is one integer cross-multiplication of
    the ratios that the intervals keep and the claim's, whose denominators
    are positive.
    """
    if len(minima) != instance.m:
        raise InstanceError(f"minimum certificate set count {len(minima)} is not the instance's {instance.m}")
    elements = instance.elements
    states = list(knowledge.states())
    revealed = [eid for eid, iv, st in zip(instance.ids(), elements, states) if st is not iv]
    for eid in revealed:
        iv, st = elements[eid - 1], states[eid - 1]
        if st.lower_num * iv.lower_den < iv.lower_num * st.lower_den:
            raise InstanceError(f"the state of element {eid} starts below its interval")
    orders = instance.left_orders(None if truth is None else truth.lowers)
    for i, (members, (holder, v), order) in enumerate(zip(instance.family, minima, orders)):
        num, den = v.as_integer_ratio()
        st = states[holder - 1] if holder in members else None
        if st is None or not (st.trivial and st.lower_num == num and st.lower_den == den):
            raise InstanceError("claimed minimum is not a known value of the set")
        below = []
        for eid in order:
            iv = elements[eid - 1]
            if iv.lower_num * den >= num * iv.lower_den:
                break  # it starts at or above the claim, and so does the rest of the order
            st = states[eid - 1]
            if st.lower_num * den < num * st.lower_den:
                below.append(eid)
        if below:
            first = next(eid for eid in members if eid in below)
            if states[first - 1].trivial:
                raise InstanceError("a known value undercuts the claimed minimum")
            raise InstanceError("an unqueried element could undercut the claimed minimum")
        if truth is not None and truth.realization.value(truth.holders[i]) != v:
            raise InstanceError("claimed minimum contradicts the realization")


# ---------------------------------------------------------------------------
# exact optima


@dataclass(frozen=True)
class OptReport:
    opt1: int
    opt_set: FrozenSet[int]
    opt_k: int
    method: str  # closed-form | branch-and-bound

    @staticmethod
    def of(opt_set: Iterable[int], k: int, method: str) -> "OptReport":
        chosen = frozenset(opt_set)
        return OptReport(len(chosen), chosen, ceil_div(len(chosen), k), method)


def opt1_minimum(instance: Instance, realization: Union[Realization, TruthRecord]) -> OptReport:
    """Per set: every interval whose lower endpoint key is below the value
    key of the set's true minimum (its own interval included, and no
    trivial one: a trivial interval's lower endpoint is its value).  Those
    are a prefix of the set's left order (`Instance.left_orders`), which
    one bisection on the record's lower keys finds; no point is in it, as
    none lies below the minimum."""
    truth, chosen = truth_record(instance, realization), set()
    lowers, values = truth.lowers, truth.values
    for order, holder in zip(instance.left_orders(lowers), truth.holders):
        chosen.update(order[: bisect_left(order, values[holder - 1], key=lambda e: lowers[e - 1])])
    return OptReport.of(chosen, instance.k, "closed-form")


def opt1_selection_full(instance: Instance, realization: Union[Realization, TruthRecord]) -> OptReport:
    """Every non-trivial interval that contains v*, on the record's keys."""
    truth = truth_record(instance, realization)
    at, bounds = truth.values[truth.holders[0] - 1], zip(instance.elements, truth.lowers, truth.uppers)
    chosen = [e for e, (iv, lo, hi) in enumerate(bounds, 1) if not iv.trivial and iv.contains_keyed(lo, hi, at)]
    return OptReport.of(chosen, instance.k, "closed-form")


def _selection_value_cost(need_a: int, need_b: int, pools: Counter) -> int:
    """Fewest queries that take `need_a` elements out of A and put `need_b`
    into B, from pools that can.  `pools` counts the elements by what a
    query of them does, as (leaves A, joins B).  An element that does both
    serves both needs, so use as many of those as both needs, or a
    shortfall of the one-sided pools, ask for."""
    both = pools[True, True]
    x = max(min(both, need_a, need_b), need_a - pools[True, False], need_b - pools[False, True])
    return x + max(0, need_a - x) + max(0, need_b - x)


def opt1_selection_value(instance: Instance, realization: Union[Realization, TruthRecord]) -> OptReport:
    """Counting form of the value-selection optimum, on the record's keys.

    With v* the true i-th value, let A count the elements whose lower
    endpoint is below v* and B those whose upper endpoint is at most v*
    (an open upper endpoint at v* included).  The i-th left and right cuts
    both sit at v* exactly when A <= i-1 and B >= i.  Querying e takes it
    out of A iff it is in A and v_e >= v*, and puts it into B iff it is
    not in B and v_e <= v*; trivial elements never change.  So the optimum
    meets the two shortfalls from three pools, and the lexicographically
    smallest minimum is built by walking the useful ids in ascending order
    and keeping each one that still completes to the optimum size.  The
    pools always can: querying every non-trivial element pins the i-th
    value, a solution less a step's element meets the needs after it, and
    some optimal solution avoids each element that is not kept.
    """
    rank = instance.problem.rank
    truth = truth_record(instance, realization)
    at = truth.values[truth.holders[0] - 1]
    below = settled = 0
    effect: Dict[int, Tuple[bool, bool]] = {}
    for e, iv, lo, hi, v in zip(instance.ids(), instance.elements, truth.lowers, truth.uppers, truth.values):
        in_a, in_b = lo < at, hi <= at
        below += in_a
        settled += in_b
        if iv.trivial:
            continue
        leaves_a, joins_b = in_a and v >= at, not in_b and v <= at
        if leaves_a or joins_b:
            effect[e] = (leaves_a, joins_b)
    need_a, need_b = max(0, below - (rank - 1)), max(0, rank - settled)
    pools = Counter(effect.values())
    todo = _selection_value_cost(need_a, need_b, pools)
    chosen = []
    for e in sorted(effect):
        leaves_a, joins_b = effect[e]
        pools[leaves_a, joins_b] -= 1
        rest_a, rest_b = max(0, need_a - leaves_a), max(0, need_b - joins_b)
        rest = _selection_value_cost(rest_a, rest_b, pools)
        if rest + 1 == todo:
            chosen.append(e)
            need_a, need_b, todo = rest_a, rest_b, rest
    assert todo == 0
    return OptReport.of(chosen, instance.k, "closed-form")


def reveal_all(instance: Instance, realization: Realization, ids: Iterable[int]) -> KnowledgeState:
    k = KnowledgeState(instance)
    k.reveal({eid: realization.value(eid) for eid in ids if not instance.interval(eid).trivial})
    return k


def query_set_feasible(instance: Instance, realization: Realization, ids: Iterable[int]) -> bool:
    """True iff revealing the given elements provably solves the instance."""
    return instance_solved(instance, reveal_all(instance, realization, ids))


def sorting_residual(
    instance: Instance, realization: Union[Realization, TruthRecord]
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
    `dependency_runs`.  Endpoints and values are compared on the record's
    keys; no `KnowledgeState` is built.
    """
    truth = truth_record(instance, realization)
    lowers, uppers, values = truth.lowers, truth.uppers, truth.values
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


def opt1_sorting(instance: Instance, realization: Union[Realization, TruthRecord], cap: int = OPT_CAP) -> OptReport:
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
    return opt1_sorting(instance, realization, cap=cap)
