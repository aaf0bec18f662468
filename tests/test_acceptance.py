"""Acceptance suite: every contract criterion at its stated size and
tolerance, one pass/fail line per criterion (run with -s to see them)."""

import functools
from fractions import Fraction

from helpers import Probed, budget_round_bound
from roundquery.algorithms import BudgetRounds, make_algorithm
from roundquery.harness import run, run_batches
from roundquery.instances import (
    MINIMUM,
    ProblemKind,
    RandomParams,
    SELECTION_FULL,
    SELECTION_VALUE,
    SORTING,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
)
from roundquery.oracles import (
    FixedOracle,
    minimum_additive_lb_adversary,
    minimum_wlb_adversary,
    selection_value_lb_adversary,
    selection_full_lb_adversary,
)
from roundquery.oracles import sorting_pair_adversary
from roundquery.reductions import BatchesToRounds, RoundsToBatches, TwoBatchSorting, w, w_inverse
from roundquery.solving import (
    ceil_div,
    minimum_solved,
    opt1_bruteforce,
    opt1_minimum,
    opt1_selection_full,
    selection_categories,
)


def harmonic(m: int) -> Fraction:
    return sum(Fraction(1, i) for i in range(1, m + 1))


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")

        return wrapper

    return decorate


@criterion(1, "sorting is exactly 2-round-competitive")
def test_criterion_1_sorting_ratio():
    # adversarial pair families: exactly 2*opt_k rounds
    for k in (1, 3, 5):
        for c in range(1, 11):
            inst, oracle = sorting_pair_adversary(c, k)
            alg = make_algorithm("sorting-vc", inst)
            _, report = run(alg, inst, oracle, opt_cap=inst.n)
            assert report.opt_k == c
            assert report.alg_rounds == 2 * c
    # and never worse than 2*opt_k against brute-force optima
    for seed in range(500):
        n = 4 + seed % 15
        params = RandomParams(
            n=n,
            m=1 + seed % 3,
            k=1 + seed % 4,
            problem=ProblemKind(SORTING),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        opt = opt1_bruteforce(inst, r)
        alg = make_algorithm("sorting-vc", inst)
        _, report = run(alg, inst, FixedOracle(inst, r), opt_report=opt)
        assert report.alg_rounds <= 2 * report.opt_k


@criterion(2, "balanced algorithm stays within opt_k + ceil(H(m))")
def test_criterion_2_bal_additive_bound():
    inst, r = gen_fig2_bal_instance()
    _, report = run(make_algorithm("bal", inst), inst, FixedOracle(inst, r))
    assert report.alg_rounds == 3
    assert report.wasted == 2
    for seed in range(500):
        m = 2 + seed % 5
        k = m + seed % (17 - m)  # m <= k <= 16
        params = RandomParams(n=3 * m + seed % 7, m=m, k=k, problem=ProblemKind(MINIMUM))
        inst, r = gen_random(seed, params)
        alg = make_algorithm("bal", inst)
        _, report = run(alg, inst, FixedOracle(inst, r))
        hm = harmonic(m)
        assert report.alg_rounds <= report.opt_k + ceil_div(hm.numerator, hm.denominator)


def _budget_run_with_audit(inst, realization):
    """Budget run collecting per-round charge snapshots; returns the report
    pieces needed by criteria 3 and 4."""
    alg = BudgetRounds()
    snapshots = []

    def probe(knowledge, _open_sets, _picked):
        active = {
            i for i, members in enumerate(inst.family) if not minimum_solved(members, knowledge)
        }
        snapshots.append((active, dict(alg.last_charges)))

    trace, _ = run(Probed(alg, probe), inst, FixedOracle(inst, realization))
    opt = opt1_minimum(inst, realization)
    # charging audit: wasted queries are charged only to sets solved that round
    for round_idx, (active_before, charges) in enumerate(snapshots, 1):
        assert active_before == {i for i, at in enumerate(trace.solved_at) if at >= round_idx}
        solved_now = {i for i, at in enumerate(trace.solved_at) if at == round_idx}
        for e, owners in charges.items():
            if e not in opt.opt_set:
                assert set(owners) <= solved_now, (e, owners, solved_now)
    return len(trace.rounds), opt


@criterion(3, "budget algorithm beats the balanced one and meets its guarantee")
def test_criterion_3_budget_vs_bal():
    for k in (3, 5):
        for c in range(1, 5):
            inst, r = gen_fig3_overlap_instance(k=k, c=c)
            trace, bal_report = run(make_algorithm("bal", inst), inst, FixedOracle(inst, r))
            assert bal_report.alg_rounds == c  # one group per round
            if (k, c) == (3, 3):
                assert [ids for ids, _ in trace.rounds] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
            rounds, opt = _budget_run_with_audit(inst, r)
            if c <= k:
                assert rounds == 1
            assert rounds <= budget_round_bound(opt.opt_k, inst.m)
    rounds_checked = 0
    for seed in range(300):
        params = RandomParams(
            n=8 + seed % 9,
            m=2 + seed % 5,
            k=2 + seed % 4,
            problem=ProblemKind(MINIMUM),
            overlap="overlap",
        )
        inst, r = gen_random(seed, params)
        rounds, opt = _budget_run_with_audit(inst, r)
        assert rounds <= budget_round_bound(opt.opt_k, inst.m)
        rounds_checked += rounds
    assert rounds_checked > 0


@criterion(4, "wasted budget queries are charged only to sets solved that round")
def test_criterion_4_charging_invariant():
    # the audit lives inside _budget_run_with_audit; re-run a dedicated
    # sample so the invariant is exercised on its own
    for seed in range(300, 400):
        params = RandomParams(
            n=8 + seed % 9,
            m=2 + seed % 5,
            k=2 + seed % 4,
            problem=ProblemKind(MINIMUM),
            overlap="overlap",
        )
        inst, r = gen_random(seed, params)
        _budget_run_with_audit(inst, r)


@criterion(5, "minimum lower-bound adversaries force the promised counts")
def test_criterion_5_minimum_lower_bounds():
    for M in (2, 3):
        for name in ("bal", "budget"):
            inst, oracle = minimum_wlb_adversary(M)
            alg = make_algorithm(name, inst)
            _, report = run(alg, inst, oracle)
            assert report.opt_k == 1
            assert report.alg_rounds >= M
    for m in (4, 8):
        for name in ("bal", "budget"):
            inst, oracle = minimum_additive_lb_adversary(m)
            assert inst.k == m
            alg = make_algorithm(name, inst)
            _, report = run(alg, inst, oracle)
            assert report.wasted >= m * (harmonic(m) - 1)


@criterion(6, "selection value solved within ceil((opt1 + i - 1)/k) rounds")
def test_criterion_6_selection_value():
    for seed in range(500):
        n = 4 + seed % 13
        i = 1 + seed % ((n + 1) // 2)
        params = RandomParams(
            n=n, m=1, k=1 + seed % 5, problem=ProblemKind(SELECTION_VALUE, rank=i), overlap="single"
        )
        inst, r = gen_random(seed, params)
        opt = opt1_bruteforce(inst, r)
        alg = make_algorithm("sel-value", inst)
        _, report = run(alg, inst, FixedOracle(inst, r), opt_report=opt)
        assert report.alg_rounds <= ceil_div(opt.opt1 + i - 1, inst.k)
    for i in (2, 4, 6):
        inst, oracle = selection_value_lb_adversary(i)
        alg = make_algorithm("sel-value", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_queries >= i
        assert report.opt1 == 1


@criterion(7, "full selection is 2-round-competitive with balanced waste")
def test_criterion_7_selection_full():
    def audited_run(inst, oracle):
        alg = make_algorithm("sel-full", inst)

        def probe(knowledge, _open_sets, _picked):
            view = selection_categories(inst, knowledge)
            assert view.a >= 1
            assert view.b <= view.a - 1

        trace, _ = run(Probed(alg, probe), inst, oracle)
        rounds = [ids for ids, _ in trace.rounds]
        opt = opt1_selection_full(inst, trace.final_realization)
        assert len(rounds) <= 2 * max(opt.opt_k, 0) or opt.opt_k == 0
        for ids in rounds[:-1]:
            useful = len(set(ids) & opt.opt_set)
            wasted = len(ids) - useful
            assert wasted <= useful, (ids, opt.opt_set)
        return rounds, opt

    for seed in range(500):
        n = 4 + seed % 13
        i = 1 + seed % n
        params = RandomParams(
            n=n, m=1, k=1 + seed % 5, problem=ProblemKind(SELECTION_FULL, rank=i), overlap="single"
        )
        inst, r = gen_random(seed, params)  # mixed open/closed endpoints
        audited_run(inst, FixedOracle(inst, r))
    for i in range(2, 7):
        inst, oracle = selection_full_lb_adversary(i)
        rounds, opt = audited_run(inst, oracle)
        assert len(rounds) <= 2 * opt.opt_k


@criterion(8, "closed-form optima equal brute force everywhere")
def test_criterion_8_oracle_equivalence():
    for seed in range(1000):
        n = 4 + seed % 9
        params = RandomParams(
            n=n,
            m=1 + seed % 3,
            k=1 + seed % 4,
            problem=ProblemKind(MINIMUM),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        assert opt1_minimum(inst, r).opt_set == opt1_bruteforce(inst, r).opt_set
    for seed in range(1000):
        n = 4 + seed % 9
        i = 1 + seed % n
        params = RandomParams(
            n=n, m=1, k=2, problem=ProblemKind(SELECTION_FULL, rank=i), overlap="single"
        )
        inst, r = gen_random(seed, params)
        assert opt1_selection_full(inst, r).opt_set == opt1_bruteforce(inst, r).opt_set


@criterion(9, "model reductions obey their budgets and W^-1 its bounds")
def test_criterion_9_reductions():
    import math

    # batch -> rounds: alpha * opt_k + r - 1 with the 2-query 2-batch sorter
    for c, k in ((1, 2), (2, 2), (2, 3), (3, 4)):
        inst, oracle = sorting_pair_adversary(c, k)
        wrapped = BatchesToRounds(TwoBatchSorting())
        _, report = run(wrapped, inst, oracle, opt_cap=inst.n)
        assert wrapped.batches_used <= 2
        assert report.alg_rounds <= 2 * report.opt_k + 1
    for seed in range(40):
        params = RandomParams(
            n=6 + seed % 8,
            m=1 + seed % 3,
            k=2 + seed % 3,
            problem=ProblemKind(SORTING),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        wrapped = BatchesToRounds(TwoBatchSorting())
        _, report = run(wrapped, inst, FixedOracle(inst, r))
        assert wrapped.batches_used <= 2
        assert report.alg_rounds <= 2 * report.opt_k + 1
    # rounds -> batches: never more than r batches
    for seed in range(40):
        r_budget = 5
        params = RandomParams(
            n=16, m=1, k=1, problem=ProblemKind(MINIMUM), overlap="single", trivial_prob=0.0
        )
        inst, real = gen_random(seed, params)
        batch_alg = RoundsToBatches(
            lambda sized: make_algorithm("min-single", sized), Fraction(1), r_budget, inst.n
        )
        assert batch_alg.k_schedule == [1, 2, 4, 8]
        batches, _ = run_batches(batch_alg, inst, FixedOracle(inst, real))
        assert len(batches) <= r_budget
    # W^-1: exact anchor and theta bounds on 10^3 sampled points
    assert abs(w_inverse(2.0) - 2.0) <= 1e-9
    for j in range(1000):
        x = 2.0 * (2.0**19) ** (j / 999.0)
        y = w_inverse(x)
        assert x / math.log2(x) <= y + 1e-6
        assert y <= 2.0 * x / math.log2(x) + 1e-6
        assert abs(w(y) - x) <= 1e-7 * max(1.0, x)


@criterion(10, "asymptotic statements are covered by the exact property suites")
def test_criterion_10_property_substitutes():
    # the O(lg/lglg) competitiveness of the balanced algorithm and the
    # O-constants of the budget bound are not measurable at desk scale;
    # their stand-ins are the exact per-round invariants plus the explicit
    # constants asserted above.  Spot-check both stand-ins once more at
    # fresh sizes so this criterion fails if either suite regresses.
    inst, oracle = minimum_wlb_adversary(2)
    _, report = run(make_algorithm("bal", inst), inst, oracle)
    assert report.alg_rounds >= 2 and report.opt_k == 1
    for seed in (901, 902, 903):
        params = RandomParams(n=12, m=3, k=3, problem=ProblemKind(MINIMUM), overlap="overlap")
        inst, r = gen_random(seed, params)
        rounds, opt = _budget_run_with_audit(inst, r)
        assert rounds <= budget_round_bound(opt.opt_k, inst.m)
