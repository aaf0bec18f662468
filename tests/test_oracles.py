"""Adversary oracles: consistency, replay, and the counts the lower-bound
arguments promise."""

from fractions import Fraction

import pytest

from roundquery.algorithms import make_algorithm
from roundquery.harness import resolve_source, run
from roundquery.instances import InstanceError, Realization, gen_fig2_bal_instance
from roundquery.oracles import (
    FixedOracle,
    MinimumAdditiveLbAdversary,
    MinimumWlbAdversary,
    OracleError,
    SelectionFullLbAdversary,
    SelectionValueLbAdversary,
    SortingPairAdversary,
)
from roundquery.solving import (
    canonical_opt,
    ceil_div,
    opt1_minimum,
    opt1_selection_full,
)


def harmonic(m):
    return sum(Fraction(1, i) for i in range(1, m + 1))


class TestFixedOracle:
    def test_repeat_queries_and_finalize(self):
        inst, r = gen_fig2_bal_instance()
        oracle = FixedOracle(inst, r)
        first = oracle.answer_round([1, 2])
        again = oracle.answer_round([2, 3])
        assert first[2] == again[2]
        assert oracle.finalize() == r

    def test_finalize_before_any_query(self):
        inst, r = gen_fig2_bal_instance()
        assert FixedOracle(inst, r).check_finalize().values == r.values

    def test_caller_edits_after_construction_change_nothing(self):
        inst, r = gen_fig2_bal_instance()
        values = dict(r.values)
        oracle = FixedOracle(inst, Realization(values))
        values[1] = inst.interval(1).upper + 1  # outside element 1's interval
        values[2] = None
        assert oracle.answer_round([1, 2]) == {1: r.value(1), 2: r.value(2)}
        assert oracle.check_finalize().values == r.values

    def test_a_run_validates_the_realization_once(self, monkeypatch):
        calls = []
        validate = Realization.validate
        monkeypatch.setattr(Realization, "validate", lambda self, inst: calls.append(1) or validate(self, inst))
        inst, r = gen_fig2_bal_instance()
        run(make_algorithm("bal", inst), inst, FixedOracle(inst, r))
        assert len(calls) == 1

    def test_finalize_still_checks_the_logged_answers(self):
        inst, r = gen_fig2_bal_instance()
        oracle = FixedOracle(inst, r)
        oracle.answer_round([1])
        oracle.realization.values[1] = inst.interval(1).lower  # skips validation on purpose
        with pytest.raises(OracleError, match="^finalize contradicts logged answer for element 1$"):
            oracle.check_finalize()


def test_adversaries_validate_when_they_finalize(monkeypatch):
    calls = []
    validate = Realization.validate
    monkeypatch.setattr(Realization, "validate", lambda self, inst: calls.append(1) or validate(self, inst))
    inst, oracle = resolve_source("wlb:M=3", 0)
    run(make_algorithm("bal", inst), inst, oracle)
    assert len(calls) == 1


@pytest.mark.parametrize("source", ["fig1-pairs:c=1,k=1", "fig2"])
@pytest.mark.parametrize("bad", [0, -1])
def test_unknown_id_is_rejected_before_it_is_answered(source, bad):
    # an id outside 1..n once read another element's interval from the end
    inst, oracle = resolve_source(source, 0)
    with pytest.raises(InstanceError, match=f"unknown element {bad}$"):
        oracle.answer_round([bad])
    with pytest.raises(InstanceError, match=f"unknown element {inst.n + 1}$"):
        inst.interval(inst.n + 1)
    assert oracle.committed == {}


class TestSortingPairs:
    def test_gadget_shape(self):
        inst = SortingPairAdversary(1, 1).instance
        assert inst.n == 2 and inst.k == 1 and inst.m == 1

    def test_first_query_forces_the_partner(self):
        oracle = SortingPairAdversary(1, 1)
        inst = oracle.instance
        a1 = oracle.answer_round([1])
        assert inst.interval(2).strict_interior(a1[1])
        a2 = oracle.answer_round([2])
        assert not inst.interval(1).strict_interior(a2[2])
        r = oracle.check_finalize()
        assert canonical_opt(inst, r).opt1 == 1

    def test_both_in_one_round_costs_the_optimum_two(self):
        oracle = SortingPairAdversary(1, 1)
        inst = oracle.instance
        answers = oracle.answer_round([1, 2])  # the whole pair at once
        assert inst.interval(2).strict_interior(answers[1])
        assert inst.interval(1).strict_interior(answers[2])
        assert canonical_opt(inst, oracle.check_finalize()).opt1 == 2

    def test_unqueried_pairs_finalize_to_single_query_optima(self):
        oracle = SortingPairAdversary(3, 2)  # k*c = 6 pairs
        inst = oracle.instance
        r = oracle.check_finalize()
        report = canonical_opt(inst, r)
        assert report.opt1 == 6  # one query per pair
        assert report.opt_k == 3

    @pytest.mark.parametrize("c,k", [(1, 1), (2, 1), (1, 3), (2, 3)])
    def test_vertex_cover_sorting_needs_twice_the_optimal_rounds(self, c, k):
        oracle = SortingPairAdversary(c, k)
        inst = oracle.instance
        alg = make_algorithm("sorting-vc", inst)
        _, report = run(alg, inst, oracle, opt_cap=inst.n)
        assert report.opt_k == c
        assert report.alg_rounds == 2 * c


class TestMinimumWlb:
    @pytest.mark.parametrize("alg_name", ["bal", "budget"])
    def test_m2_forces_two_rounds_at_opt_one(self, alg_name):
        oracle = MinimumWlbAdversary(2)
        inst = oracle.instance
        assert inst.m == 4 and inst.k == 8
        alg = make_algorithm(alg_name, inst)
        _, report = run(alg, inst, oracle)
        assert report.opt_k == 1
        assert report.alg_rounds == 2

    def test_finalize_total_optimum_fits_one_round(self):
        oracle = MinimumWlbAdversary(2)
        inst = oracle.instance
        alg = make_algorithm("bal", inst)
        run(alg, inst, oracle)
        report = opt1_minimum(inst, oracle.finalize())
        assert report.opt1 <= inst.k

    def test_replay_consistency(self):
        oracle = MinimumWlbAdversary(2)
        inst = oracle.instance
        alg = make_algorithm("budget", inst)
        run(alg, inst, oracle)
        oracle.check_finalize()  # raises on any contradiction


class TestMinimumAdditive:
    @pytest.mark.parametrize("m", [2, 4])
    def test_wasted_lower_bound(self, m):
        oracle = MinimumAdditiveLbAdversary(m)
        inst = oracle.instance
        assert inst.k == m
        alg = make_algorithm("bal", inst)
        _, report = run(alg, inst, oracle)
        assert report.wasted >= m * (harmonic(m) - 1)

    def test_m2_wastes_at_least_one_query(self):
        oracle = MinimumAdditiveLbAdversary(2)
        inst = oracle.instance
        alg = make_algorithm("budget", inst)
        _, report = run(alg, inst, oracle)
        assert report.wasted >= 1

    def test_opt_k_identity_after_finalize(self):
        oracle = MinimumAdditiveLbAdversary(4)
        inst = oracle.instance
        alg = make_algorithm("bal", inst)
        run(alg, inst, oracle)
        report = opt1_minimum(inst, oracle.finalize())
        assert report.opt_k == ceil_div(report.opt1, inst.k)

    def test_active_set_with_every_rung_answered_keeps_its_answers(self):
        # one round solves the heaviest set only, so the other two stay
        # active with every rung answered high; rung 1 holds their minimum
        oracle = MinimumAdditiveLbAdversary(3)
        answers = oracle.answer_round(oracle.instance.ids())
        assert oracle.active == {1, 2}
        assert oracle.check_finalize().values == answers


class _ScriptedRounds:
    """Feeds predetermined rounds; for adversary edge cases."""

    def __init__(self, rounds):
        self._rounds = [list(r) for r in rounds]

    def next_round(self, instance, knowledge, open_sets):
        candidates = knowledge.unqueried_nontrivial(instance.ids())
        if self._rounds:
            return self._rounds.pop(0)
        return sorted(candidates)[: instance.k]


class TestSelectionFullLb:
    def test_skipping_the_middle_costs_opt_plus_i(self):
        i = 3
        oracle = SelectionFullLbAdversary(i)
        inst = oracle.instance
        # round 1 avoids the middle interval (id i)
        alg = _ScriptedRounds([[1, 2, 4]])
        _, report = run(alg, inst, oracle)
        assert report.opt1 == 1
        assert report.alg_queries >= report.opt1 + i

    def test_balanced_first_round_wastes_half_a_side(self):
        i = 5
        oracle = SelectionFullLbAdversary(i)
        inst = oracle.instance
        alg = make_algorithm("sel-full", inst)
        _, report = run(alg, inst, oracle)
        assert report.opt1 == i
        assert report.wasted >= ceil_div(i - 1, 2)

    def test_our_algorithm_needs_two_rounds_at_i2(self):
        oracle = SelectionFullLbAdversary(2)
        inst = oracle.instance
        alg = make_algorithm("sel-full", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_rounds == 2

    def test_left_heavy_round_moves_the_value_right(self):
        i = 3
        oracle = SelectionFullLbAdversary(i)
        inst = oracle.instance
        answers = oracle.answer_round([i, 1, 2])  # middle plus both lefts
        assert answers[i] == Fraction(11, 2)
        r = oracle.check_finalize()
        assert opt1_selection_full(inst, r).opt_set == frozenset({i, i + 1, i + 2})


class TestSelectionValueLb:
    def test_first_wide_queries_answer_one_then_four(self):
        i = 4
        oracle = SelectionValueLbAdversary(i)
        inst = oracle.instance
        answers = oracle.answer_round([1, 2, 3])
        assert set(answers.values()) == {Fraction(1)}
        last = oracle.answer_round([4])
        assert last[4] == 4

    def test_finalize_keeps_rank_value_three(self):
        for queried in ([], [1], [1, 2]):
            i = 3
            oracle = SelectionValueLbAdversary(i)
            inst = oracle.instance
            if queried:
                oracle.answer_round(queried)
            r = oracle.check_finalize()
            values = sorted(r.value(e) for e in inst.ids())
            assert values[i - 1] == 3

    def test_one_round_with_k_equal_i(self):
        i = 4
        oracle = SelectionValueLbAdversary(i)
        inst = oracle.instance
        alg = make_algorithm("sel-value", inst)
        _, report = run(alg, inst, oracle)
        assert report.alg_rounds == 1
        assert report.alg_queries == i
        assert report.opt1 == 1

    def test_any_order_still_needs_all_wide_intervals(self):
        i = 3
        oracle = SelectionValueLbAdversary(i, k=1)
        inst = oracle.instance
        alg = _ScriptedRounds([[3], [1], [2]])
        _, report = run(alg, inst, oracle)
        assert report.alg_queries >= i
