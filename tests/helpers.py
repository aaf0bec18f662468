"""Shared test machinery: an algorithm wrapper that lets a test watch
every round of a `harness.run`, the open sets the harness would pass, the
exact round bound of the budget algorithm's guarantee, the edge-list
greedy matching that the sweep's matching is checked against, the
pairwise interval greedy that the cut-key one is checked against, the
budget round with every open set's budget rewritten after each purchase,
and the cuts as (value, flag) tuples, the reference for every cut key."""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from roundquery.intervals import CLOSED, dependent
from roundquery.solving import minimum_scan, set_solved


# A cut as `KnowledgeState.cut_of` reads a cut key back: (v, 0) is the
# point v itself, (v, +1) sits just above v and (v, -1) just below, so
# tuple comparison orders endpoints with their openness.
def left_cut(state):
    return (state.lower, 0 if state.lower_kind is CLOSED else 1)


def right_cut(state):
    return (state.upper, 0 if state.upper_kind is CLOSED else -1)


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


def budget_round_reference(instance, knowledge, open_sets):
    """The budget round by its first definition: every open set's budget
    grows at unit rate, each purchase adds its time step to all of them and
    resets its owners' to 0.  Returns the picked ids, the charge map, the
    seeds and the number of purchases whose time tied with another
    element's, so a test can tell that the tie order was exercised."""
    k = instance.k
    lists = {idx: minimum_scan(instance.family[idx], knowledge) for idx in open_sets}
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
