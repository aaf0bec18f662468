"""Runs depend only on the order of the endpoints and values, never on
their scale: exactness checked from outside the implementation.

Each instance is run once as generated, once with every endpoint and value
times 7/11, once with every number mapped to its rank among the
instance's distinct numbers plus 1/p, p a prime of its element's own, and
once with every endpoint mapped to its rank and every other number to its
rank minus 1/q, q a prime of that number's own.  All three maps keep every
comparison, ties included, so each run must ask the same rounds, give the
same report and find the same optimum.  The second map needs every number
owned by one element, so the instances here are drawn with no number
shared between elements.  The third gives the values that are no endpoint
denominators the knowledge state has not seen, so its runs rescale.
"""

import random
from fractions import Fraction

import pytest

from roundquery.algorithms import make_algorithm
from roundquery.harness import run
from roundquery.instances import (
    MINIMUM,
    SELECTION_FULL,
    SORTING,
    ProblemKind,
    Realization,
    make_instance,
)
from roundquery.intervals import CLOSED, OPEN, KnowledgeState, UncertainInterval
from roundquery.oracles import FixedOracle
from roundquery.solving import canonical_opt

N = 40
CASES = [(MINIMUM, "budget"), (SORTING, "sorting-vc"), (SELECTION_FULL, "sel-full")]


def _untied(kind, seed):
    """An instance of `kind` and a realization, no number shared between
    two elements: each element draws its own integers from one shuffled
    pool.  Minimum takes open intervals; the others mix endpoint kinds and
    sometimes realize a closed endpoint.  About one element in six is a
    point."""
    rng = random.Random(seed)
    pool = iter(rng.sample(range(10 * N), 3 * N))
    elements, values = [], {}
    for e in range(1, N + 1):
        if rng.random() < 1 / 6:
            v = Fraction(next(pool))
            elements.append(UncertainInterval.point(v))
            values[e] = v
            continue
        lo, v, hi = map(Fraction, sorted(next(pool) for _ in range(3)))
        if kind is MINIMUM:
            kinds = (OPEN, OPEN)
        else:
            kinds = (rng.choice((OPEN, CLOSED)), rng.choice((OPEN, CLOSED)))
            if kinds[0] is CLOSED and rng.random() < 0.3:
                v = lo
        elements.append(UncertainInterval(lo, kinds[0], hi, kinds[1]))
        values[e] = v
    if kind is MINIMUM:
        ids = list(range(1, N + 1))
        family = [sorted(rng.sample(ids, rng.randint(2, N // 3))) for _ in range(6)]
        problem = ProblemKind(MINIMUM)
    elif kind is SORTING:
        family = [list(range(1, N // 2 + 1)), list(range(N // 2 + 1, N + 1))]
        problem = ProblemKind(SORTING)
    else:
        family = [list(range(1, N + 1))]
        problem = ProblemKind(SELECTION_FULL, rank=1 + rng.randrange(N))
    return make_instance(elements, family, problem, 3), Realization(values)


def _mapped(instance, realization, f):
    """The instance and realization with every endpoint and value x of
    element e replaced by f(e, x); endpoint kinds, sets and k unchanged."""
    elements = [
        UncertainInterval(f(e, iv.lower), iv.lower_kind, f(e, iv.upper), iv.upper_kind)
        for e, iv in enumerate(instance.elements, 1)
    ]
    values = {e: f(e, v) for e, v in realization.values.items()}
    return make_instance(elements, instance.family, instance.problem, instance.k), Realization(values)


def _scaled(instance, realization):
    c = Fraction(7, 11)
    return _mapped(instance, realization, lambda e, x: c * x)


def _primes(count):
    primes, p = [], 2
    while len(primes) < count:
        if all(p % q for q in primes if q * q <= p):
            primes.append(p)
        p += 1
    return primes


def _prime_denominators(instance, realization):
    """x of element e goes to rank(x) + 1/p_e: an increasing map, as
    distinct numbers are at least one rank apart and 1/p_e < 1, whose
    images for element e all have the denominator p_e."""
    numbers = {iv.lower for iv in instance.elements} | {iv.upper for iv in instance.elements}
    rank = {x: r for r, x in enumerate(sorted(numbers | set(realization.values.values())))}
    prime = dict(zip(instance.ids(), _primes(instance.n)))
    return _mapped(instance, realization, lambda e, x: rank[x] + Fraction(1, prime[e]))


def _ranks_and_fresh_primes(instance, realization):
    """An endpoint x goes to rank(x), any other number x to rank(x) - 1/q_x,
    q_x a prime of its own: an increasing map, as 1/q_x < 1, that keys
    every endpoint as an integer, so each value that is no endpoint brings
    a denominator new to the knowledge state."""
    ends = {iv.lower for iv in instance.elements} | {iv.upper for iv in instance.elements}
    numbers = sorted(ends | set(realization.values.values()))
    rank = {x: r for r, x in enumerate(numbers, 1)}
    others = [x for x in numbers if x not in ends]
    prime = dict(zip(others, _primes(len(others))))
    return _mapped(instance, realization, lambda e, x: rank[x] - (Fraction(1, prime[x]) if x in prime else 0))


def _outcome(alg_name, instance, realization):
    trace, report = run(make_algorithm(alg_name, instance), instance, FixedOracle(instance, realization))
    round_ids = [ids for ids, _ in trace.rounds]
    return round_ids, report, canonical_opt(instance, realization).opt_set


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind,alg_name", CASES, ids=[alg for _, alg in CASES])
class TestScaleInvariance:
    def test_scaled_by_seven_elevenths(self, kind, alg_name, seed):
        instance, realization = _untied(kind, seed)
        assert _outcome(alg_name, *_scaled(instance, realization)) == _outcome(alg_name, instance, realization)

    def test_distinct_prime_denominators(self, kind, alg_name, seed):
        instance, realization = _untied(kind, seed)
        mapped = _prime_denominators(instance, realization)
        assert [{iv.lower.denominator, iv.upper.denominator} for iv in mapped[0].elements] == [
            {p} for p in _primes(N)
        ]
        assert _outcome(alg_name, *mapped) == _outcome(alg_name, instance, realization)

    def test_endpoints_to_ranks_values_over_fresh_primes(self, kind, alg_name, seed, monkeypatch):
        instance, realization = _untied(kind, seed)
        expected = _outcome(alg_name, instance, realization)
        rescales, per_reveal = [], []
        rescale, reveal = KnowledgeState._rescale, KnowledgeState.reveal

        def counted_reveal(k, answers):
            before = len(rescales)
            reveal(k, answers)
            per_reveal.append(len(rescales) - before)

        monkeypatch.setattr(KnowledgeState, "_rescale", lambda k, grow: rescales.append(grow) or rescale(k, grow))
        monkeypatch.setattr(KnowledgeState, "reveal", counted_reveal)
        assert _outcome(alg_name, *_ranks_and_fresh_primes(instance, realization)) == expected
        # the run reveals one round per call, and a round rescales at most once
        assert rescales and max(per_reveal) == 1
