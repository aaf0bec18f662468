"""Round-building algorithms: vertex covers, the balanced and budget
strategies, and both selection variants."""

import itertools
import random
from dataclasses import astuple
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    Probed,
    bal_round_reference,
    budget_round_bound,
    budget_round_reference,
    matching_cover,
    open_sets,
    parse_instance,
    sel_full_round_reference,
    sel_value_round_reference,
    selection_categories,
)
from roundquery.algorithms import (
    AlgorithmError,
    BalancedRounds,
    BudgetRounds,
    build_dependency_graph,
    interval_cover,
    make_algorithm,
)
from roundquery.harness import resolve_source, run, run_batches
from roundquery.instances import (
    MINIMUM,
    ProblemKind,
    RandomParams,
    Realization,
    SELECTION_FULL,
    SELECTION_VALUE,
    SORTING,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
    make_instance,
)
from roundquery.intervals import CLOSED, OPEN, KnowledgeState, UncertainInterval
from roundquery.oracles import (
    FixedOracle,
    MinimumWlbAdversary,
    SelectionFullLbAdversary,
    SelectionValueLbAdversary,
    SortingPairAdversary,
)
from roundquery.reductions import BatchesToRounds, RoundsToBatches, TwoBatchSorting
from roundquery.solving import (
    canonical_opt,
    ceil_div,
    exact_cover,
    greedy_matching_cover,
    minimum_solved,
    opt1_minimum,
    rank_cut_keys,
    reveal_all,
)

iv = UncertainInterval.parse


def harmonic(m):
    return sum(Fraction(1, i) for i in range(1, m + 1))


def contract_probe(instance):
    """Probe for `Probed`: the harness passes exactly the unsolved sets,
    at least one of them, and gets a non-empty round back."""

    def probe(knowledge, given, picked):
        assert given == open_sets(instance, knowledge)
        assert given
        assert picked

    return probe


def assert_runs_no_round(name, instance, realization):
    """A run on an instance solved from the start never asks the algorithm."""
    asked = []
    alg = Probed(make_algorithm(name, instance), lambda *call: asked.append(call))
    trace, _ = run(alg, instance, FixedOracle(instance, realization))
    assert trace.rounds == () and asked == []
    assert trace.solved_at == (0,) * instance.m


class TestVertexCover:
    def test_single_edge_needs_one_vertex(self):
        inst = make_instance([iv("(0,2)"), iv("(1,3)")], [[1, 2]], ProblemKind(SORTING), 1)
        edges = build_dependency_graph(inst, KnowledgeState(inst))
        assert len(interval_cover(inst, KnowledgeState(inst))) == 1
        assert len(exact_cover(edges)) == 1
        assert len(matching_cover(edges)) == 2
        assert greedy_matching_cover(inst, KnowledgeState(inst)) == {1, 2}

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_pair_gadgets_cost_one_each(self, c):
        inst = SortingPairAdversary(c, 1).instance
        assert len(exact_cover(build_dependency_graph(inst, KnowledgeState(inst)))) == c

    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_modes_agree_on_single_set_instances(self, seed, partial):
        params = RandomParams(n=4 + seed % 9, m=1, k=2, problem=ProblemKind(SORTING), overlap="single")
        inst, _ = gen_random(seed, params)
        if partial:
            # the set leaves out every third id, starting at a seed-chosen one
            members = [e for e in inst.ids() if (e + seed) % 3]
            inst = make_instance(inst.elements, [members], inst.problem, inst.k)
        knowledge = KnowledgeState(inst)
        edges = build_dependency_graph(inst, knowledge)
        interval = interval_cover(inst, knowledge)
        general = exact_cover(edges)
        assert len(interval) == len(general)
        assert interval <= inst.family[0]
        # both really are covers
        for a, b in edges:
            assert a in interval or b in interval
            assert a in general or b in general

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("trivial_prob", [0.0, 0.5])
    def test_general_exact_matches_subset_enumeration_on_multi_set_graphs(self, m, trivial_prob):
        # sparse random graphs rarely defeat a greedy cover, hence many seeds
        for seed in range(250):
            params = RandomParams(
                n=12, m=m, k=2, problem=ProblemKind(SORTING), overlap="overlap", trivial_prob=trivial_prob
            )
            inst, _ = gen_random(seed, params)
            edges = build_dependency_graph(inst, KnowledgeState(inst))
            vertices = sorted({v for e in edges for v in e})

            def is_cover(subset):
                return all(a in subset or b in subset for a, b in edges)

            cover = exact_cover(edges)
            assert is_cover(cover)
            smallest = next(
                size
                for size in range(len(vertices) + 1)
                if any(is_cover(set(s)) for s in itertools.combinations(vertices, size))
            )
            assert len(cover) == smallest, seed


class TestSortingRounds:
    def test_pair_adversary_runs_two_rounds_per_pair_block(self):
        oracle = SortingPairAdversary(2, 1)
        inst = oracle.instance
        alg = make_algorithm("sorting-vc", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_rounds == 4  # 2c with c = 2
        assert report.opt_k == 2

    def test_single_set_cover_skips_elements_outside_the_set(self):
        # element 2 is in no set, so no query on it can help
        inst, r = parse_instance(
            "k 1\nproblem sorting\n"
            "interval 1 (0,2)\ninterval 2 (1,3)\ninterval 3 (5/2,5)\ninterval 4 (4,6)\n"
            "set S1 1 3 4\n"
            "value 1 1\nvalue 2 2\nvalue 3 3\nvalue 4 11/2\n"
        )
        trace, report = run(make_algorithm("sorting-vc", inst), inst, FixedOracle(inst, r))
        assert all(2 not in ids for ids, _ in trace.rounds)
        assert report.alg_rounds == 1

    def test_multi_set_exact_cover_is_capped(self):
        params = RandomParams(n=150, m=2, k=2, problem=ProblemKind(SORTING), overlap="disjoint")
        inst, _ = gen_random(0, params)
        alg = make_algorithm("sorting-vc", inst)
        with pytest.raises(AlgorithmError, match=r"^123 covered vertices above branch-and-bound cap 40$"):
            alg.next_round(inst, KnowledgeState(inst), (0, 1))

    def test_solved_instance_yields_empty_round(self):
        inst = make_instance([iv("{1}"), iv("{2}")], [[1, 2]], ProblemKind(SORTING), 2)
        assert_runs_no_round("sorting-vc", inst, Realization({1: Fraction(1), 2: Fraction(2)}))

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_mode_is_two_round_competitive(self, seed):
        params = RandomParams(
            n=5 + seed % 8,
            m=1 + seed % 3,
            k=1 + seed % 4,
            problem=ProblemKind(SORTING),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        alg = make_algorithm("sorting-vc", inst)
        _, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds <= 2 * report.opt_k

    @pytest.mark.parametrize("seed", range(20))
    def test_matching_mode_bound(self, seed):
        params = RandomParams(
            n=6 + seed % 6, m=2, k=2 + seed % 3, problem=ProblemKind(SORTING), overlap="overlap"
        )
        inst, r = gen_random(seed, params)
        alg = make_algorithm("sorting-matching", inst)
        _, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds <= 2 * report.opt_k + 1


class TestMinimumSingle:
    @pytest.mark.parametrize("seed", range(20))
    def test_exactly_optimal_round_count(self, seed):
        params = RandomParams(n=4 + seed % 9, m=1, k=1 + seed % 5, problem=ProblemKind(MINIMUM), overlap="single")
        inst, r = gen_random(seed, params)
        alg = make_algorithm("min-single", inst)
        _, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds == report.opt_k

    def test_one_round_when_k_covers_the_prefix(self):
        inst = make_instance(
            [iv("(0,9)"), iv("(1,9)"), iv("(2,9)")], [[1, 2, 3]], ProblemKind(MINIMUM), 3
        )
        r = Realization({1: Fraction(3, 2), 2: Fraction(8), 3: Fraction(8)})
        alg = make_algorithm("min-single", inst)
        _, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds == 1

    def test_discards_stop_the_stream_early(self):
        # after the first answer every other interval starts above it
        inst = make_instance(
            [iv("(0,9)"), iv("(2,9)"), iv("(3,9)"), iv("(4,9)")],
            [[1, 2, 3, 4]],
            ProblemKind(MINIMUM),
            1,
        )
        r = Realization({1: Fraction(1), 2: Fraction(8), 3: Fraction(8), 4: Fraction(8)})
        alg = make_algorithm("min-single", inst)
        trace, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds == 1
        assert trace.rounds[0][0] == (1,)

    def test_refuses_multiple_sets(self):
        inst, _ = gen_fig2_bal_instance()
        with pytest.raises(AlgorithmError):
            make_algorithm("min-single", inst)


class TestBalanced:
    def test_fig2_reproduces_the_drawn_counts(self):
        inst, r = gen_fig2_bal_instance()
        alg = make_algorithm("bal", inst)
        trace, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds == 3
        assert report.wasted == 2
        assert report.opt_k == 3
        # round pattern from the figure: 2+2+1, 2+2+1, then the deep set
        assert [len(ids) for ids, _ in trace.rounds] == [5, 5, 3]

    def test_fig3_queries_the_caption_schedule(self):
        inst, r = gen_fig3_overlap_instance(k=3, c=3)
        alg = make_algorithm("bal", inst)
        trace, report = run(alg, inst, FixedOracle(inst, r))
        assert [ids for ids, _ in trace.rounds] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        assert report.opt_k == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_additive_harmonic_bound_on_disjoint_sets(self, seed):
        m = 2 + seed % 3
        k = m + seed % 4
        params = RandomParams(n=3 * m + seed % 5, m=m, k=k, problem=ProblemKind(MINIMUM))
        inst, r = gen_random(seed, params)
        alg = make_algorithm("bal", inst)
        _, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds <= report.opt_k + ceil_div(
            harmonic(m).numerator, harmonic(m).denominator
        )

    def test_one_query_per_active_set_while_many_are_active(self):
        params = RandomParams(n=24, m=8, k=3, problem=ProblemKind(MINIMUM))
        inst, r = gen_random(11, params)
        alg = make_algorithm("bal", inst)

        def probe(knowledge, _open_sets, picked):
            active = [
                idx
                for idx in range(inst.m)
                if not minimum_solved(idx, knowledge)
            ]
            if len(active) > inst.k:
                owners = []
                for e in picked:
                    owners.extend(idx for idx, s in enumerate(inst.family) if e in s)
                assert len(owners) == len(set(owners))
            for e in picked:
                owner = next(idx for idx, s in enumerate(inst.family) if e in s)
                assert owner in active

        run(Probed(alg, probe), inst, FixedOracle(inst, r))

    def test_wlb_adversary_forces_two_rounds(self):
        oracle = MinimumWlbAdversary(2)
        inst = oracle.instance
        alg = make_algorithm("bal", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_rounds == 2 and report.opt_k == 1


class TestBudget:
    def test_fig3_single_round_chain(self):
        inst, r = gen_fig3_overlap_instance(k=3, c=3)
        alg = make_algorithm("budget", inst)
        trace, report = run(alg, inst, FixedOracle(inst, r))
        assert trace.rounds[0][0] == (1, 4, 7)
        assert report.alg_rounds == 1

    def test_seeds_take_one_leftmost_per_set_when_sets_fit(self):
        inst, r = gen_fig2_bal_instance()  # 3 disjoint sets, k = 5
        alg = BudgetRounds()
        picked = alg.next_round(inst, KnowledgeState(inst), open_sets(inst, KnowledgeState(inst)))
        leftmosts = {min(members) for members in inst.family}
        assert set(alg.last_seeds) == leftmosts
        assert leftmosts <= set(picked)

    def test_seed_overflow_truncates_to_lowest_ids(self):
        params = RandomParams(n=18, m=6, k=3, problem=ProblemKind(MINIMUM))
        inst, _ = gen_random(5, params)
        alg = BudgetRounds()
        picked = alg.next_round(inst, KnowledgeState(inst), open_sets(inst, KnowledgeState(inst)))
        leftmosts = sorted(
            min(members, key=lambda e: (inst.interval(e).lower, e)) for members in inst.family
        )
        assert picked == sorted(leftmosts)[:3]

    @pytest.mark.parametrize("seed", range(25))
    def test_round_bound_and_charging_on_overlapping_families(self, seed):
        params = RandomParams(
            n=8 + seed % 8, m=2 + seed % 4, k=2 + seed % 3, problem=ProblemKind(MINIMUM), overlap="overlap"
        )
        inst, r = gen_random(seed, params)
        opt = opt1_minimum(inst, r)
        alg = BudgetRounds()
        charge_checks = []

        def probe(knowledge, _open_sets, _picked):
            before = {
                idx
                for idx in range(inst.m)
                if not minimum_solved(idx, knowledge)
            }
            charge_checks.append((before, dict(alg.last_charges)))

        trace, _ = run(Probed(alg, probe), inst, FixedOracle(inst, r))
        # waste audit against the rounds in which the run saw each set solved
        for round_idx, (active_before, charges) in enumerate(charge_checks, 1):
            assert active_before == {idx for idx, at in enumerate(trace.solved_at) if at >= round_idx}
            solved_now = {idx for idx, at in enumerate(trace.solved_at) if at == round_idx}
            for e, owners in charges.items():
                if e not in opt.opt_set:  # wasted query
                    assert set(owners) <= solved_now
        assert len(trace.rounds) <= budget_round_bound(opt.opt_k, inst.m)

    def test_wlb_adversary_forces_two_rounds(self):
        oracle = MinimumWlbAdversary(2)
        inst = oracle.instance
        alg = make_algorithm("budget", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_rounds == 2 and report.opt_k == 1


class TestBalancedMatchesItsDefinition:
    """Every round of `bal` equals the reference round, which rescans every
    open set's live list before each pick, on the same knowledge and open
    sets."""

    SOURCES = [("random:problem=minimum,n=24,m=6,k=4,overlap=overlap", seed) for seed in range(100)]
    SOURCES.append(("fig3:k=4,c=4", 0))

    def test_rounds_equal_the_reference(self):
        deep = 0
        for spec, seed in self.SOURCES:
            inst, oracle = resolve_source(spec, seed)
            alg = BalancedRounds()

            def probe(knowledge, open_sets, picked):
                nonlocal deep
                chosen, past = bal_round_reference(inst, knowledge, open_sets)
                assert picked == chosen, (spec, seed)
                deep += past

            run(Probed(alg, probe), inst, oracle)
        assert deep > 0  # some set was served past members another set's pick took


class TestBudgetMatchesItsDefinition:
    """Every round of `budget` equals the reference round, in which each
    purchase rewrites the budget of every open set, on the same knowledge
    and open sets: the picked ids, the charge map and the seeds."""

    SOURCES = [("random:problem=minimum,n=24,m=6,k=4,overlap=overlap", seed) for seed in range(100)]
    SOURCES.append(("fig3:k=4,c=4", 0))

    def test_rounds_equal_the_reference(self):
        time_ties = 0
        for spec, seed in self.SOURCES:
            inst, oracle = resolve_source(spec, seed)
            alg = BudgetRounds()

            def probe(knowledge, open_sets, picked):
                nonlocal time_ties
                chosen, charges, seeds, ties = budget_round_reference(inst, knowledge, open_sets)
                assert (picked, alg.last_charges, alg.last_seeds) == (chosen, charges, seeds), (spec, seed)
                time_ties += ties

            run(Probed(alg, probe), inst, oracle)
        assert time_ties > 0  # the (time, -owners, id) order decided some purchase

    def test_long_rounds_equal_the_reference(self):
        # k=12 on 6 sets: most of a round is bought, so the purchase heap
        # also pops entries that an element's later owners made stale
        for seed in range(50):
            inst, oracle = resolve_source("random:problem=minimum,n=24,m=6,k=12,overlap=overlap", seed)
            alg = BudgetRounds()

            def probe(knowledge, open_sets, picked):
                chosen, charges, seeds, _ = budget_round_reference(inst, knowledge, open_sets)
                assert (picked, alg.last_charges, alg.last_seeds) == (chosen, charges, seeds), seed

            run(Probed(alg, probe), inst, oracle)


class TestSelectionValue:
    def test_lower_bound_family_single_round(self):
        oracle = SelectionValueLbAdversary(5)
        inst = oracle.instance
        alg = make_algorithm("sel-value", inst)
        trace, report = run(alg, inst, oracle)
        assert report.alg_rounds == 1
        assert trace.rounds[0][0] == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("seed", range(25))
    def test_round_bound_on_random_instances(self, seed):
        n = 5 + seed % 8
        i = 1 + seed % ceil_div(n, 2)
        params = RandomParams(
            n=n, m=1, k=1 + seed % 4, problem=ProblemKind(SELECTION_VALUE, rank=i), overlap="single"
        )
        inst, r = gen_random(seed, params)
        alg = make_algorithm("sel-value", inst)
        opt = canonical_opt(inst, r)
        _, report = run(alg, inst, FixedOracle(inst, r))
        assert report.alg_rounds <= ceil_div(opt.opt1 + i - 1, inst.k)

    def test_rank_one_matches_the_single_set_minimum_strategy(self):
        # the two discard rules differ exactly when one unqueried interval
        # dominates another outright (its lower endpoint at or above the
        # other's upper endpoint); round counts agree either way
        for seed in range(10):
            params = RandomParams(n=9, m=1, k=2, problem=ProblemKind(MINIMUM), overlap="single")
            min_inst, r = gen_random(seed, params)
            sel_inst = make_instance(
                min_inst.elements, [list(min_inst.ids())], ProblemKind(SELECTION_VALUE, rank=1), 2
            )
            trace_min, _ = run(
                make_algorithm("min-single", min_inst), min_inst, FixedOracle(min_inst, r)
            )
            trace_sel, _ = run(
                make_algorithm("sel-value", sel_inst), sel_inst, FixedOracle(sel_inst, r)
            )
            rounds_min = [ids for ids, _ in trace_min.rounds]
            rounds_sel = [ids for ids, _ in trace_sel.rounds]
            assert len(rounds_min) == len(rounds_sel)
            live = [
                min_inst.interval(e) for e in min_inst.ids() if not min_inst.interval(e).trivial
            ]
            dominated = any(
                a is not b and a.lower >= b.upper for a in live for b in live
            )
            if not dominated:
                assert rounds_min == rounds_sel

    def test_top_rank_mirrors_to_the_right_end(self):
        inst = make_instance(
            [iv("(0,2)"), iv("(3,5)"), iv("(6,8)")],
            [[1, 2, 3]],
            ProblemKind(SELECTION_VALUE, rank=3),
            1,
        )
        r = Realization({1: Fraction(1), 2: Fraction(4), 3: Fraction(7)})
        alg = make_algorithm("sel-value", inst)
        assert alg.next_round(inst, KnowledgeState(inst), (0,)) == [3]

    @pytest.mark.parametrize("seed", range(40))
    def test_ranks_above_the_middle_mirror_the_negated_instance(self, seed):
        # rank i on the instance picks what rank n-i+1 picks on its mirror
        # image, round for round, ties included; the selection-full
        # generator supplies mixed open and closed endpoints
        n = 3 + seed % 12
        params = RandomParams(
            n=n, m=1, k=1 + seed % 3, problem=ProblemKind(SELECTION_FULL, rank=1),
            overlap="single", trivial_prob=0.3,
        )
        base, r = gen_random(seed, params)
        mirrored = [
            UncertainInterval(-x.upper, x.upper_kind, -x.lower, x.lower_kind) for x in base.elements
        ]
        r_mirrored = Realization({e: -r.value(e) for e in base.ids()})
        for i in range(ceil_div(n, 2) + 1, n + 1):
            inst = make_instance(base.elements, base.family, ProblemKind(SELECTION_VALUE, i), base.k)
            flip = make_instance(mirrored, base.family, ProblemKind(SELECTION_VALUE, n - i + 1), base.k)
            opt = canonical_opt(inst, r)  # negation keeps the feasible query sets
            assert canonical_opt(flip, r_mirrored).opt_set == opt.opt_set
            trace, _ = run(make_algorithm("sel-value", inst), inst, FixedOracle(inst, r))
            flip_trace, _ = run(make_algorithm("sel-value", flip), flip, FixedOracle(flip, r_mirrored))
            assert [ids for ids, _ in trace.rounds] == [ids for ids, _ in flip_trace.rounds]


class TestSelectionFull:
    def test_full_lb_round_one_starts_with_the_middle(self):
        oracle = SelectionFullLbAdversary(3)
        inst = oracle.instance
        alg = make_algorithm("sel-full", inst)
        trace, report = run(alg, inst, oracle)
        assert trace.rounds[0][0][0] == 3  # the middle interval leads
        assert report.alg_rounds <= 2

    @pytest.mark.parametrize("i", [2, 3, 4, 5])
    def test_full_lb_family_two_round_competitive(self, i):
        oracle = SelectionFullLbAdversary(i)
        inst = oracle.instance
        alg = make_algorithm("sel-full", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_rounds <= 2 * report.opt_k

    @pytest.mark.parametrize("seed", range(25))
    def test_category_counts_hold_each_round(self, seed):
        n = 5 + seed % 8
        i = 1 + seed % n
        params = RandomParams(
            n=n, m=1, k=1 + seed % 4, problem=ProblemKind(SELECTION_FULL, rank=i), overlap="single"
        )
        inst, r = gen_random(seed, params)
        alg = make_algorithm("sel-full", inst)

        def probe(knowledge, _open_sets, _picked):
            view = selection_categories(inst, knowledge)
            assert len(view.containing) >= 1
            assert len(view.inside) <= len(view.containing) - 1

        trace, _ = run(Probed(alg, probe), inst, FixedOracle(inst, r))
        assert len(trace.rounds) <= 2 * canonical_opt(inst, r).opt_k or not trace.rounds

    def test_solved_at_start_returns_empty_round(self):
        inst = make_instance(
            [iv("{1}"), iv("{2}")], [[1, 2]], ProblemKind(SELECTION_FULL, rank=1), 2
        )
        assert_runs_no_round("sel-full", inst, Realization({1: Fraction(1), 2: Fraction(2)}))

    def test_alternation_starts_left_and_prefers_long_overlaps(self):
        inst = make_instance(
            [iv("[0,6]"), iv("[1,4]"), iv("[2,4]"), iv("[5,9]"), iv("[5,8]"), iv("{4}")],
            [[1, 2, 3, 4, 5, 6]],
            ProblemKind(SELECTION_FULL, rank=3),
            5,
        )
        alg = make_algorithm("sel-full", inst)
        picked = alg.next_round(inst, KnowledgeState(inst), open_sets(inst, KnowledgeState(inst)))
        # target area [2,5]: containing = {1}; left overlaps {2,3} (3 reaches
        # deeper? both end at 4 -> id order), right overlaps {4,5} with 5's
        # left endpoint tie broken by id
        assert picked[0] == 1
        assert picked[1:3] == [2, 4] or picked[1] == 2

    def test_algorithm_mismatch_rejected(self):
        inst, _ = gen_fig2_bal_instance()
        with pytest.raises(AlgorithmError):
            make_algorithm("sel-full", inst)


_QUARTERS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


@st.composite
def _selection_full_run(draw):
    """A selection-full instance on a coarse grid, so endpoints, points and
    the i-th value tie often: mixed endpoint kinds, a quarter of the
    elements trivial, any rank, and values often on a closed endpoint."""
    n = draw(st.integers(1, 8))
    elements, values = [], []
    for _ in range(n):
        lo = Fraction(draw(st.integers(0, 6)), 2)
        if draw(st.integers(0, 3)) == 0:
            elements.append(UncertainInterval.point(lo))
            values.append(lo)
            continue
        hi = lo + Fraction(draw(st.integers(1, 4)), 2)
        lo_kind, hi_kind = (draw(st.sampled_from([OPEN, CLOSED])) for _ in range(2))
        choices = [lo + (hi - lo) * f for f in _QUARTERS]
        choices += [end for end, kind in ((lo, lo_kind), (hi, hi_kind)) if kind is CLOSED]
        elements.append(UncertainInterval(lo, lo_kind, hi, hi_kind))
        values.append(draw(st.sampled_from(choices)))
    problem = ProblemKind(SELECTION_FULL, rank=draw(st.integers(1, n)))
    inst = make_instance(elements, [list(range(1, n + 1))], problem, draw(st.integers(1, 3)))
    return inst, Realization(dict(enumerate(values, 1)))


class TestSelectionFullPool:
    """sel-full keeps its categories across rounds, re-classifying only the
    ids whose cuts the target area crossed; each round its categories hold
    the same unqueried ids as the classification of every id (the points
    that classification also buckets are no longer queryable, and sel-full
    keeps none)."""

    @staticmethod
    def _targets(inst, r):
        alg = make_algorithm("sel-full", inst)
        targets = []

        def probe(knowledge, _open_sets, _picked):
            view = selection_categories(inst, knowledge)
            unqueried = tuple(tuple(knowledge.unqueried_nontrivial(bucket)) for bucket in astuple(view))
            assert alg.last_view == unqueried
            targets.append(tuple(map(knowledge.cut_of, rank_cut_keys(inst, knowledge))))

        run(Probed(alg, probe), inst, FixedOracle(inst, r))
        return targets

    @given(case=_selection_full_run())
    def test_pool_view_equals_the_full_scan(self, case):
        self._targets(*case)

    def test_points_on_a_trivial_target_stay_out(self):
        # after two rounds the target is {2}: the points 1 and 2 cover it
        # and leave the pool, and the third round still finds container 5
        inst = make_instance(
            [iv("{2}"), iv("{2}"), iv("[1,3]"), iv("[0,4]"), iv("[0,5]")],
            [[1, 2, 3, 4, 5]],
            ProblemKind(SELECTION_FULL, rank=2),
            1,
        )
        r = Realization({1: Fraction(2), 2: Fraction(2), 3: Fraction(5, 2), 4: Fraction(3), 5: Fraction(3)})
        # the target areas [0,2], [1,2] and {2}, as their rank cuts
        assert self._targets(inst, r) == [((0, 0), (2, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 0))]


class TestSelectionMatchesItsDefinition:
    """Every round of `sel-value` and `sel-full` equals the reference
    round, which rescans every id, on the same knowledge: on random
    instances with ranks below, at and above the middle, no, some and many
    trivial elements, and open ends only or mixed open and closed ends; on
    instances whose every value is over a prime of its own, so that every
    round rescales; and on the lower-bound adversaries' finalized
    realizations."""

    REFERENCE = {"sel-value": sel_value_round_reference, "sel-full": sel_full_round_reference}

    @staticmethod
    def _random(kind, seed):
        """An instance of `kind` and its realization: n in 5..40, any k in
        1..4, the rank below, at or above the middle, `triv` 0, 0.15 or
        0.5.  Odd seeds take the selection-full generator's mixed ends
        for sel-value too; even ones its own, open only."""
        n = 5 + seed % 36
        k = 1 + seed % 4
        middle = ceil_div(n, 2)
        rank = (1 + seed % middle, middle, n - seed % (n - middle))[seed % 3]
        triv = (0.0, 0.15, 0.5)[seed // 3 % 3]
        source = SELECTION_FULL if kind is SELECTION_FULL or seed % 2 else kind
        params = RandomParams(n=n, m=1, k=k, problem=ProblemKind(source, rank), overlap="single", trivial_prob=triv)
        base, r = gen_random(seed, params)
        return make_instance(base.elements, base.family, ProblemKind(kind, rank), k), r

    def _replay(self, name, inst, oracle):
        """Run `name` on the instance, checking each of its rounds against
        the reference; returns the number of rounds checked."""
        reference, rounds = self.REFERENCE[name], []

        def probe(knowledge, open_sets, picked):
            assert picked == reference(inst, knowledge, open_sets), (name, len(rounds))
            rounds.append(picked)

        run(Probed(make_algorithm(name, inst), probe), inst, oracle)
        return len(rounds)

    @pytest.mark.parametrize("name, kind", [("sel-value", SELECTION_VALUE), ("sel-full", SELECTION_FULL)])
    def test_rounds_equal_the_reference(self, name, kind):
        rounds = 0
        for seed in range(150):
            inst, r = self._random(kind, seed)
            rounds += self._replay(name, inst, FixedOracle(inst, r))
        assert rounds > 300, rounds

    PRIMES = [p for p in range(11, 300) if all(p % d for d in range(2, isqrt(p) + 1))][:40]

    @classmethod
    def _prime_valued(cls, kind, seed):
        """An instance of `kind` and its realization whose every value is
        over a prime of its own, so every round's reveal rescales: n from 5
        at seed 0 to 40 at seed 19, k in 1..4, the rank below, at or above
        the middle, integer endpoints, each open or closed, and on odd
        seeds about a fifth of the elements trivial."""
        rng = random.Random(seed)
        n = 5 + 35 * seed // 19
        k = 1 + seed % 4
        middle = ceil_div(n, 2)
        rank = (1 + seed % middle, middle, n - seed % (n - middle))[seed % 3]
        elements, values = [], {}
        for eid, p in enumerate(cls.PRIMES[:n], 1):
            lo, width = rng.randint(0, n), rng.randint(1, n)
            values[eid] = lo + rng.randrange(width) + Fraction(1, p)  # strictly inside (lo, lo + width)
            if seed % 2 and rng.random() < 0.2:
                elements.append(UncertainInterval.point(values[eid]))
            else:
                kinds = rng.choice([OPEN, CLOSED]), rng.choice([OPEN, CLOSED])
                elements.append(UncertainInterval(Fraction(lo), kinds[0], Fraction(lo + width), kinds[1]))
        return make_instance(elements, [range(1, n + 1)], ProblemKind(kind, rank), k), Realization(values)

    @pytest.mark.parametrize("name, kind", [("sel-value", SELECTION_VALUE), ("sel-full", SELECTION_FULL)])
    def test_rounds_equal_the_reference_when_every_round_rescales(self, name, kind, monkeypatch):
        rescales = []
        rescale = KnowledgeState._rescale
        monkeypatch.setattr(KnowledgeState, "_rescale", lambda k, grow: rescales.append(grow) or rescale(k, grow))
        rounds = 0
        for seed in range(20):
            inst, r = self._prime_valued(kind, seed)
            rounds += self._replay(name, inst, FixedOracle(inst, r))
        assert len(rescales) == rounds > 90, (len(rescales), rounds)

    @pytest.mark.parametrize("spec", [f"selval-lb:i={i},k={k}" for i in (1, 2, 3, 5, 8) for k in (1, 2, 4, 8)])
    def test_selection_value_adversary_realizations(self, spec):
        inst, oracle = resolve_source(spec)
        trace, _ = run(make_algorithm("sel-value", inst), inst, oracle)
        assert self._replay("sel-value", inst, FixedOracle(inst, trace.final_realization)) == len(trace.rounds)

    @pytest.mark.parametrize("spec", [f"selfull-lb:i={i}" for i in (2, 3, 4, 5, 8, 13)])
    def test_selection_full_adversary_realizations(self, spec):
        inst, oracle = resolve_source(spec)
        trace, _ = run(make_algorithm("sel-full", inst), inst, oracle)
        assert self._replay("sel-full", inst, FixedOracle(inst, trace.final_realization)) == len(trace.rounds)


class TestUniformContract:
    ALG_OF_KIND = {
        SORTING: "sorting-vc",
        MINIMUM: "budget",
        SELECTION_VALUE: "sel-value",
        SELECTION_FULL: "sel-full",
    }

    @pytest.mark.parametrize("seed", range(16))
    def test_empty_round_iff_solved(self, seed):
        """The harness asks for a round exactly while some set is unsolved,
        and every round it gets back is non-empty."""
        kinds = [SORTING, MINIMUM, SELECTION_VALUE, SELECTION_FULL]
        kind = kinds[seed % 4]
        n = 6 + seed % 6
        rank = 1 + seed % n if kind in (SELECTION_VALUE, SELECTION_FULL) else None
        params = RandomParams(
            n=n,
            m=1 if rank else 1 + seed % 3,
            k=1 + seed % 4,
            problem=ProblemKind(kind, rank),
            overlap="single" if rank else "overlap",
        )
        inst, r = gen_random(seed, params)
        alg = Probed(make_algorithm(self.ALG_OF_KIND[kind], inst), contract_probe(inst))
        trace, _ = run(alg, inst, FixedOracle(inst, r))
        assert open_sets(inst, reveal_all(inst, r, trace.queried_ids())) == ()

    def test_selection_value_empty_round_with_live_containers(self):
        # the pinned value leaves the wide interval unqueried but irrelevant
        inst = make_instance(
            [iv("(0,10)"), iv("{3}"), iv("{3}")],
            [[1, 2, 3]],
            ProblemKind(SELECTION_VALUE, rank=2),
            2,
        )
        assert_runs_no_round("sel-value", inst, Realization({1: Fraction(5), 2: Fraction(3), 3: Fraction(3)}))

    KINDS_OF = {
        "sorting-vc": SORTING,
        "sorting-matching": SORTING,
        "min-single": MINIMUM,
        "bal": MINIMUM,
        "budget": MINIMUM,
        "sel-value": SELECTION_VALUE,
        "sel-full": SELECTION_FULL,
        "batch-sort-2 as rounds": SORTING,
        "budget as batches": MINIMUM,
        "sorting-vc as batches": SORTING,
    }

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name", list(KINDS_OF))
    def test_every_algorithm_is_asked_only_while_a_set_is_open(self, name, seed):
        kind = self.KINDS_OF[name]
        n = 6 + seed % 7
        rank = 1 + seed % n if kind in (SELECTION_VALUE, SELECTION_FULL) else None
        single = rank or name == "min-single"
        params = RandomParams(
            n=n,
            m=1 if single else 1 + seed % 4,
            k=1 + seed % 3,
            problem=ProblemKind(kind, rank),
            overlap="single" if single else "overlap",
            trivial_prob=0.3 if seed % 2 else 0.0,
        )
        inst, r = gen_random(seed, params)
        probe = contract_probe(inst)
        oracle = FixedOracle(inst, r)
        if name == "batch-sort-2 as rounds":
            run(Probed(BatchesToRounds(Probed(TwoBatchSorting(), probe)), probe), inst, oracle)
        elif name.endswith(" as batches"):
            inner = name.split()[0]
            batch_alg = RoundsToBatches(
                lambda sized: Probed(make_algorithm(inner, sized), contract_probe(sized)),
                Fraction(2), 5, inst.n,
            )
            run_batches(Probed(batch_alg, probe), inst, oracle, opt_cap=n)
        else:
            run(Probed(make_algorithm(name, inst), probe), inst, oracle, opt_cap=n)
