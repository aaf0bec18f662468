"""Shared test machinery: an algorithm wrapper that lets a test watch
every round of a `harness.run`, the open sets the harness would pass, the
exact round bound of the budget algorithm's guarantee, the edge-list
greedy matching that the sweep's matching is checked against, the
pairwise interval greedy that the cut-key one is checked against, a
set's live members by their definition, the balanced round as a rescan
of every open set per pick, the budget round with every open set's
budget rewritten after each purchase, the selection categories as a
classification of every state (the reference that `sel-full`'s kept
categories are checked against), both selection rounds as a rescan of
every id, the cuts as (value, flag) tuples, interval membership on an
interval's own endpoints, the reference for every cut key, the
subset-search optimum that the closed forms and the sorting optimum are
checked against, the minimum audits as full scans of every membership
(each set's true minimum, the minimum optimum and the minimum
certificate check), a truth record built without validation, an instance
file read back with a bare realization, the round sizes of a
`RoundsToBatches` by sequence, and a knowledge state over bare intervals
and sets."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from roundquery.instances import (
    SORTING,
    Instance,
    InstanceError,
    ProblemKind,
    TruthRecord,
    parse_instance_record,
    truth_record,
)
from roundquery.intervals import CLOSED, KnowledgeState, cut_order, dependent, interval_keys
from roundquery.solving import (
    BruteForceCapError,
    OptReport,
    ceil_div,
    query_set_feasible,
    rank_cut_keys,
    set_solved,
)

# the default `cap` of `opt1_bruteforce`: it bounds n, not the sorting residual
BRUTE_FORCE_CAP = 22


# A cut as `KnowledgeState.cut_of` reads a cut key back: (v, 0) is the
# point v itself, (v, +1) sits just above v and (v, -1) just below, so
# tuple comparison orders endpoints with their openness.
def left_cut(state):
    return (state.lower, 0 if state.lower_kind is CLOSED else 1)


def right_cut(state):
    return (state.upper, 0 if state.upper_kind is CLOSED else -1)


def contains(interval, v):
    """Whether the value `v` lies in `interval`, endpoint openness
    respected: `contains_keyed` on the interval's own endpoints."""
    return interval.contains_keyed(interval.lower, interval.upper, v)


class Probed:
    """Wraps a round or batch algorithm so that `probe(knowledge, open_sets,
    picked)` sees each round or batch it emits, before it is answered.

    Hand it to `harness.run` or `harness.run_batches` in place of the
    algorithm: the run loop and its audits stay the harness's own.  The
    harness asks only while some set is unsolved, and `open_sets` is the
    ascending tuple of those set indices that it passed in.
    """

    def __init__(self, alg, probe):
        self.alg = alg
        self.probe = probe

    def next_round(self, instance, knowledge, open_sets):
        picked = self.alg.next_round(instance, knowledge, open_sets)
        self.probe(knowledge, open_sets, picked)
        return picked

    def next_batch(self, instance, knowledge, open_sets):
        picked = self.alg.next_batch(instance, knowledge, open_sets)
        self.probe(knowledge, open_sets, picked)
        return picked


def matching_cover(edges):
    """The matched vertices of the greedy maximal matching that one pass
    over `edges`, in their order, picks."""
    matched = set()
    for a, b in edges:
        if a not in matched and b not in matched:
            matched.update((a, b))
    return frozenset(matched)


def pairwise_interval_cover(instance, knowledge):
    """`algorithms.interval_cover` by its definition: walk the first set's
    unqueried non-trivial members by (right cut, id), keep each one that is
    not `dependent` on the last one kept, and cover with the rest."""
    vertices = knowledge.unqueried_nontrivial(instance.family[0])
    kept = []
    for v in sorted(vertices, key=lambda e: (right_cut(knowledge.state(e)), e)):
        if not kept or not dependent(knowledge.state(kept[-1]), knowledge.state(v)):
            kept.append(v)
    return frozenset(vertices) - frozenset(kept)


def open_sets(instance, knowledge):
    """The `open_sets` argument the harness passes for this knowledge."""
    return tuple(i for i in range(instance.m) if not set_solved(instance, i, knowledge))


@lru_cache(maxsize=None)
def budget_round_bound(opt_k: int, m: int) -> Fraction:
    """Certified lower estimate of the budget algorithm's round guarantee,
    minimized over the epsilon grid 0.1 .. 0.9.

    bound(eps) = (2 + eps) * opt_k + (5/eps) * ceil(log_{r/(r-1)} m) with
    r = (2(1+eps) + sqrt(2 eps^2 + 4 eps + 4)) / eps.  The square root is
    bracketed in exact rationals and the smaller ceil is used, so any run
    satisfying the returned value satisfies the true bound as well.
    """
    best = None
    scale = 10**30
    for num in range(1, 10):
        eps = Fraction(num, 10)
        s = 2 * eps * eps + 4 * eps + 4
        root = isqrt(s.numerator * scale * scale // s.denominator)
        r_lo = (2 * (1 + eps) + Fraction(root, scale)) / eps
        # the log term shrinks as the base grows; the largest admissible
        # base comes from the smallest r
        base_hi = r_lo / (r_lo - 1)
        t = 0
        power = Fraction(1)
        while power < m:
            power *= base_hi
            t += 1
        bound = (2 + eps) * opt_k + Fraction(5) / eps * t
        if best is None or bound < best:
            best = bound
    return best


def live_members(members, knowledge):
    """`KnowledgeState.minimum_live`'s walk by its definition: the
    unpinned members whose lower endpoint lies below the least pinned
    value, or every unpinned member without one, in left order, by
    (left cut, id)."""
    pinned = [knowledge.state(e).lower for e in members if knowledge.state(e).trivial]
    floor = min(pinned) if pinned else None
    return sorted(
        (e for e in members if not knowledge.state(e).trivial and (floor is None or knowledge.state(e).lower < floor)),
        key=lambda e: (left_cut(knowledge.state(e)), e),
    )


def bal_round_reference(instance, knowledge, open_sets):
    """The balanced round by its definition: before each pick, rescan every
    open set's live list for its prefix, the number of its leading members
    already picked, and serve the set of least prefix, lowest index among
    ties, with its first member not yet picked.  Returns the picked ids and
    the number of picks made at a prefix above 0, so a test can tell that
    sets sharing members were served past each other's picks."""
    lists = {idx: live_members(instance.family[idx], knowledge) for idx in open_sets}
    chosen, in_round, deep = [], set(), 0
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
        deep += p > 0
        chosen.append(lists[idx][p])
        in_round.add(lists[idx][p])
    return chosen, deep


def budget_round_reference(instance, knowledge, open_sets):
    """The budget round by its first definition: every open set's budget
    grows at unit rate, each purchase adds its time step to all of them and
    resets its owners' to 0.  Returns the picked ids, the charge map, the
    seeds and the number of purchases whose time tied with another
    element's, so a test can tell that the tie order was exercised."""
    k = instance.k
    lists = {idx: live_members(instance.family[idx], knowledge) for idx in open_sets}
    seeds = sorted({lst[0] for lst in lists.values()})[:k]
    chosen, taken, charges, time_ties = list(seeds), set(seeds), {}, 0
    budgets = dict.fromkeys(open_sets, Fraction(0))
    while len(chosen) < k:
        pointing = {}
        for idx in open_sets:
            e = next((e for e in lists[idx] if e not in taken), None)
            if e is not None:
                pointing.setdefault(e, []).append(idx)
        if not pointing:
            break
        keys = []
        for e, owners in pointing.items():
            gap = 1 - sum(budgets[idx] for idx in owners)
            assert gap >= 0
            keys.append((gap / len(owners), -len(owners), e))
        delta, _, winner = min(keys)
        time_ties += sum(key[0] == delta for key in keys) > 1
        for idx in open_sets:
            budgets[idx] += delta
        for idx in pointing[winner]:
            budgets[idx] = Fraction(0)
        chosen.append(winner)
        taken.add(winner)
        charges[winner] = tuple(pointing[winner])
    return chosen, charges, tuple(seeds), time_ties


@dataclass(frozen=True)
class SelectionRoundView:
    """The category split of the elements that intersect the target area,
    which spans the rank cuts (`rank_cut_keys`): the i-th value lies in it.

    `containing` holds the non-trivial unqueried intervals that cover the
    whole target area; the other three buckets classify every remaining
    element state that intersects the target area (points included, for
    the category-count invariants).
    """

    containing: tuple
    inside: tuple
    left_overlap: tuple
    right_overlap: tuple


def selection_categories(instance, knowledge):
    """Classify every state against the current target area, each bucket
    in id order: the reference classifier, whose unqueried ids
    `SelectionFullRounds` keeps up to date round by round instead.

    A reveal only raises an element's left cut and lowers its right cut,
    so the i-th smallest left cut only rises and the i-th smallest right
    cut only falls: the target area only shrinks, and an element disjoint
    from it stays disjoint.  A point that covers a trivial target area {v}
    is in no bucket; the target is then {v} for good, as the i-th left
    cut can rise no further than the i-th right cut, and the point keeps
    covering it in no bucket.

    The cuts are compared as cut keys.  Every left cut key here is at most
    its right cut key, the target area's too, so a state is disjoint from
    the target area exactly when one ends before the other starts; and a
    state is a point exactly when its two cut keys are equal.
    """
    ta_lo, ta_hi = rank_cut_keys(instance, knowledge)
    containing, inside, left_overlap, right_overlap = [], [], [], []
    for eid in instance.ids():
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
    return SelectionRoundView(tuple(containing), tuple(inside), tuple(left_overlap), tuple(right_overlap))


def sel_value_round_reference(instance, knowledge, open_sets):
    """The `sel-value` round by its definition: rescan every unqueried
    non-trivial id against the target area, then take the k leftmost of
    the live ones by (left cut, id), or for a rank above the middle the k
    rightmost by (right cut descending, id)."""
    lo, hi = rank_cut_keys(instance, knowledge)
    live = [
        eid
        for eid in knowledge.unqueried_nontrivial(instance.ids())
        if knowledge.right_key(eid) >= lo and knowledge.left_key(eid) <= hi
    ]
    if instance.problem.rank > ceil_div(instance.n, 2):
        live = cut_order(live, knowledge.right_key, reverse=True)
    else:
        live = cut_order(live, knowledge.left_key)
    return live[: instance.k]


def sel_full_round_reference(instance, knowledge, open_sets):
    """The `sel-full` round by its definition: classify every id with
    `selection_categories`, then fill the round with the containing
    intervals, then the unqueried ones inside the target area, both by id,
    then the left- and right-overlapping ones alternately, starting left,
    longest overlap first: by (right cut descending, id) and (left cut, id)."""
    view = selection_categories(instance, knowledge)
    q1 = sorted(view.containing)
    q2 = sorted(knowledge.unqueried_nontrivial(view.inside))
    q3 = cut_order(knowledge.unqueried_nontrivial(view.left_overlap), knowledge.right_key, reverse=True)
    q4 = cut_order(knowledge.unqueried_nontrivial(view.right_overlap), knowledge.left_key)
    alternating = [e for pair in itertools.zip_longest(q3, q4) for e in pair if e is not None]
    return (q1 + q2 + alternating)[: instance.k]


def opt1_bruteforce(instance, realization, cap=BRUTE_FORCE_CAP):
    """Minimum feasible query set, lexicographically smallest among minima,
    by subset enumeration in cardinality order.  `cap` bounds n."""
    if instance.n > cap:
        raise BruteForceCapError(f"n = {instance.n} above brute-force cap {cap}")
    candidates = [e for e in instance.ids() if not instance.interval(e).trivial]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if query_set_feasible(instance, realization, combo):
                return OptReport.of(combo, instance.k, "brute-force")
    raise InstanceError("no feasible query set; instance is inconsistent")


def minimum_holders_reference(instance, realization):
    """Each set's true minimum by a scan of all its members: a member of
    least value key, on the keys of the realization's record."""
    key = dict(zip(instance.ids(), truth_record(instance, realization).values)).__getitem__
    return tuple(min(members, key=key) for members in instance.family)


def opt1_minimum_reference(instance, realization):
    """The minimum optimum by a scan of every membership: per set, each
    member whose lower endpoint key is below its true minimum's value key."""
    truth = truth_record(instance, realization)
    lowers, values = truth.lowers, truth.values
    chosen = set()
    for members, holder in zip(instance.family, minimum_holders_reference(instance, realization)):
        chosen.update(e for e in members if lowers[e - 1] < values[holder - 1])
    return OptReport.of(chosen, instance.k, "closed-form")


def verify_minimum_certificate_reference(instance, knowledge, cert, realization=None):
    """The minimum certificate check by a scan of every membership, on one
    `interval_keys` call over every state and the claimed minima: raise
    unless each set's holder is a member whose state is the point of its
    claim, no member's state starts below the claim, and, given a
    realization, each claim is its set's true minimum."""
    if len(cert.minima) != instance.m:
        raise InstanceError(f"minimum certificate set count {len(cert.minima)} is not the instance's {instance.m}")
    ids = list(knowledge.ids())
    _, lowers, uppers, claimed = interval_keys([knowledge.state(e) for e in ids], [v for _, v in cert.minima])
    lower, upper = dict(zip(ids, lowers)), dict(zip(ids, uppers))
    holders = None if realization is None else minimum_holders_reference(instance, realization)
    for i, (members, (holder, v), claim) in enumerate(zip(instance.family, cert.minima, claimed)):
        if holder not in members or not lower[holder] == upper[holder] == claim:
            raise InstanceError("claimed minimum is not a known value of the set")
        for e in members:
            if lower[e] < claim:
                if lower[e] == upper[e]:
                    raise InstanceError("a known value undercuts the claimed minimum")
                raise InstanceError("an unqueried element could undercut the claimed minimum")
        if holders is not None and realization.value(holders[i]) != v:
            raise InstanceError("claimed minimum contradicts the realization")


def unvalidated_record(instance, realization):
    """The `TruthRecord` of `realization` built directly, without the
    validation that `truth_record` runs, so it may hold values outside
    their intervals: how a test hands an audit an inadmissible record."""
    _, lowers, uppers, values = interval_keys(instance.elements, [realization.value(e) for e in instance.ids()])
    return TruthRecord(instance, realization, lowers, uppers, values)


def parse_instance(text):
    """An instance file's instance and its bare realization, or None:
    `parse_instance_record` with the record read back as its realization."""
    instance, truth = parse_instance_record(text)
    return instance, None if truth is None else truth.realization


def k_schedule(batch_alg):
    """Every sequence's k of a `RoundsToBatches`, from k_1 = 1."""
    return [batch_alg._k(i) for i in range(1, batch_alg.x + 1)]


def state_of(intervals, family=()):
    """The knowledge state of an unvalidated instance with ids 1..n over
    `intervals` and the sets `family`, so any interval shape, and no
    interval at all, is allowed."""
    return KnowledgeState(Instance(tuple(intervals), tuple(map(frozenset, family)), ProblemKind(SORTING), 1))
