"""The minimum audits against their full scans in `helpers`: each set's
true minimum, the minimum optimum and the minimum certificate check, on
random instances of all three overlap modes (trivial members up to 90%),
hand-built ones whose endpoints, values and points tie (trivial members
at a set's floor, duplicated and one-member sets), and the realizations
that fig3 and the minimum adversaries finalize into.  Certificates are
the extracted ones and forged ones, each checked without a realization,
with the one its knowledge was revealed from and with another; a check
must pass, or fail with the same message, exactly when its full scan
does."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    minimum_holders_reference,
    opt1_minimum_reference,
    state_of,
    verify_minimum_certificate_reference,
)
from roundquery.algorithms import make_algorithm
from roundquery.harness import resolve_source, run
from roundquery.instances import (
    InstanceError,
    MINIMUM,
    ProblemKind,
    RandomParams,
    Realization,
    gen_random,
    make_instance,
    truth_record,
)
from roundquery.intervals import KnowledgeState, UncertainInterval
from roundquery.solving import (
    SolutionCertificate,
    canonical_opt,
    extract_certificate,
    opt1_minimum,
    reveal_all,
    verify_certificate,
)

iv = UncertainInterval.parse


def _random_cases():
    """1,080 generated instances: 90 seeds per overlap mode and trivial
    probability, n from 1 to 30."""
    for overlap in ("disjoint", "overlap", "single"):
        for triv in (0.0, 0.15, 0.5, 0.9):
            for seed in range(90):
                n = 1 + seed % 30
                m = 1 if overlap == "single" else 1 + seed % min(n, 6)
                params = RandomParams(n, m, 1 + seed % 3, ProblemKind(MINIMUM), overlap, triv)
                yield gen_random(seed, params)


def _tied_case(seed):
    """Endpoints and values on a grid of quarters, so they tie often; the
    family may list a set twice and holds one-member sets; and about half
    the sets get a point of their own at their true minimum."""
    rng = random.Random(seed)
    elements, values = [], {}
    for eid in range(1, rng.randint(1, 10) + 1):
        if rng.random() < 0.3:
            elements.append(UncertainInterval.point(Fraction(rng.randint(0, 8), 2)))
            values[eid] = elements[-1].lower
        else:
            lo, hi = sorted(rng.sample(range(9), 2))
            elements.append(UncertainInterval.open(Fraction(lo, 2), Fraction(hi, 2)))
            values[eid] = Fraction(lo, 2) + Fraction(hi - lo, 2) * Fraction(rng.randint(1, 3), 4)
    ids = list(values)
    family = []
    for _ in range(rng.randint(1, 5)):
        if family and rng.random() < 0.25:
            family.append(list(rng.choice(family)))
        else:
            family.append(rng.sample(ids, rng.choice([1, rng.randint(1, len(ids))])))
    for members in family:
        if rng.random() < 0.5:
            floor = min(values[e] for e in members)
            elements.append(UncertainInterval.point(floor))
            values[len(elements)] = floor
            members.append(len(elements))
    return make_instance(elements, family, ProblemKind(MINIMUM), rng.randint(1, 3)), Realization(values)


def _finalized_cases():
    """The realizations that runs of `bal` and `budget` against fig3 and
    the two minimum adversaries finalize into."""
    for source in ("wlb:M=2", "wlb:M=3", "additive:m=2", "additive:m=3", "additive:m=5",
                   "fig3:k=2,c=1", "fig3:k=3,c=3", "fig3:k=4,c=2", "fig2"):
        for alg in ("bal", "budget"):
            inst, oracle = resolve_source(source)
            trace, _ = run(make_algorithm(alg, inst), inst, oracle)
            yield inst, trace.final_realization


def _outcome(check, *args):
    """The message that `check(*args)` refuses with, or None if it passes."""
    try:
        check(*args)
    except InstanceError as exc:
        return str(exc)
    return None


def _forged_minima(rng, inst, knowledge, r):
    """A claim per set: the least pinned value, another pinned member's,
    any member's true value, or a claim held outside the set."""
    minima = []
    for members in inst.family:
        members = sorted(members)
        pinned = [e for e in members if knowledge.known_value(e) is not None]
        pick = rng.random()
        if pinned and pick < 0.5:
            holder = min(pinned, key=lambda e: (knowledge.known_value(e), e))
        elif pinned and pick < 0.7:
            holder = rng.choice(pinned)
        elif pick < 0.95:
            holder = rng.choice(members)
        else:
            holder = rng.choice(list(inst.ids()))
        value = knowledge.known_value(holder)
        minima.append((holder, r.value(holder) if value is None else value))
    return SolutionCertificate(MINIMUM, minima=tuple(minima))


def _other_realization(rng, inst):
    """A realization drawn afresh: each open interval's value an eighth
    from 1 to 7 of the way up, so a claim that the knowledge proves can be
    false under it."""
    return Realization({
        e: iv.lower if iv.trivial else iv.lower + (iv.upper - iv.lower) * Fraction(rng.randint(1, 7), 8)
        for e, iv in enumerate(inst.elements, 1)
    })


def _check_case(rng, inst, r, seen):
    record = truth_record(inst, r)
    reference = minimum_holders_reference(inst, r)
    assert all(h in members for h, members in zip(record.holders, inst.family))
    assert [record.values[h - 1] for h in record.holders] == [record.values[h - 1] for h in reference]
    opt = opt1_minimum_reference(inst, r)
    assert canonical_opt(inst, r) == opt1_minimum(inst, record) == opt
    # the optimum's knowledge certifies itself; then random knowledge, forged claims
    knowledge = reveal_all(inst, r, opt.opt_set)
    certs = [(knowledge, extract_certificate(inst, knowledge))]
    for _ in range(3):
        unpinned = knowledge.unqueried_nontrivial(inst.ids())
        revealed = rng.sample(unpinned, rng.randint(0, len(unpinned)))
        forged = reveal_all(inst, r, revealed)
        certs.append((forged, _forged_minima(rng, inst, forged, r)))
    for knowledge, cert in certs:
        for truth in (None, r, _other_realization(rng, inst)):
            expected = _outcome(verify_minimum_certificate_reference, inst, knowledge, cert, truth)
            assert _outcome(verify_certificate, inst, knowledge, cert, truth) == expected
            seen[expected] += 1


def test_random_instances_match_the_full_scans():
    rng, seen = random.Random(35), Counter()
    for inst, r in _random_cases():
        _check_case(rng, inst, r, seen)
    # every outcome of the check was reached, a pass included
    assert len(seen) == 5 and min(seen.values()) >= 50


def test_tied_instances_match_the_full_scans():
    rng, seen, tied = random.Random(35), Counter(), 0
    for seed in range(400):
        inst, r = _tied_case(seed)
        floors = [min(map(r.value, members)) for members in inst.family]
        tied += any(
            inst.interval(e).trivial and r.value(e) == floor for members, floor in zip(inst.family, floors) for e in members
        )
        _check_case(rng, inst, r, seen)
    assert len(seen) == 5 and min(seen.values()) >= 20 and tied >= 200


def test_finalized_realizations_match_the_full_scans():
    rng, seen = random.Random(35), Counter()
    for inst, r in _finalized_cases():
        _check_case(rng, inst, r, seen)
    assert seen[None] >= 18


def test_a_state_below_its_interval_is_refused():
    # element 2 is (5,9) in the instance, but the knowledge, built over
    # (0,9), holds it at 1/2: below its interval, and below the claim of 1,
    # though its interval starts above the claim
    inst = make_instance([iv("(0,4)"), iv("(5,9)")], [[1, 2]], ProblemKind(MINIMUM), 1)
    knowledge = state_of([iv("(0,4)"), iv("(0,9)")], inst.family)
    knowledge.reveal({1: Fraction(1), 2: Fraction(1, 2)})
    cert = SolutionCertificate(MINIMUM, minima=((1, Fraction(1)),))
    with pytest.raises(InstanceError):
        verify_certificate(inst, knowledge, cert)


def test_an_unqueried_member_at_the_head_of_the_order_is_refused():
    # element 1 starts first and is unqueried; the claim of 3 is above its
    # lower endpoint 0, and every other member starts at or above 2
    inst = make_instance([iv("(0,10)"), iv("(2,9)"), iv("(4,8)"), iv("{3}")], [[1, 2, 3, 4]], ProblemKind(MINIMUM), 1)
    knowledge = KnowledgeState(inst)
    knowledge.reveal({2: Fraction(3), 3: Fraction(5)})
    cert = SolutionCertificate(MINIMUM, minima=((2, Fraction(3)),))
    with pytest.raises(InstanceError, match="^an unqueried element could undercut the claimed minimum$"):
        verify_certificate(inst, knowledge, cert)


@pytest.mark.parametrize("audit", ["canonical_opt", "opt1_minimum", "verify_certificate"])
def test_a_bare_realization_is_validated_first(audit):
    # 5 lies outside element 1's (0,4); the walks take values at their word
    inst = make_instance([iv("(0,4)"), iv("(2,6)")], [[1, 2]], ProblemKind(MINIMUM), 1)
    knowledge = KnowledgeState(inst)
    knowledge.reveal({1: Fraction(1), 2: Fraction(3)})
    bad = Realization({1: Fraction(5), 2: Fraction(3)})
    calls = {
        "canonical_opt": lambda: canonical_opt(inst, bad),
        "opt1_minimum": lambda: opt1_minimum(inst, bad),
        "verify_certificate": lambda: verify_certificate(inst, knowledge, extract_certificate(inst, knowledge), bad),
    }
    with pytest.raises(InstanceError, match=r"^value 5 outside interval \(0,4\) of element 1$"):
        calls[audit]()
