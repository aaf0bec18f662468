"""Batch/round adapters."""

from fractions import Fraction

import pytest

from helpers import k_schedule
from roundquery.algorithms import make_algorithm
from roundquery.harness import run, run_batches
from roundquery.instances import (
    MINIMUM,
    ProblemKind,
    RandomParams,
    SORTING,
    gen_random,
)
from roundquery.oracles import FixedOracle, SortingPairAdversary
from roundquery.reductions import (
    BatchesToRounds,
    QueryAllBatch,
    RoundsToBatches,
    TwoBatchSorting,
)
from roundquery.solving import canonical_opt, ceil_div


class TestBatchesToRounds:
    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 2), (2, 3), (3, 5)])
    def test_single_batch_splits_into_ceil_q_over_k_rounds(self, seed, k):
        params = RandomParams(n=9, m=1, k=k, problem=ProblemKind(MINIMUM), overlap="single", trivial_prob=0.0)
        inst, r = gen_random(seed, params)
        alg = BatchesToRounds(QueryAllBatch())
        trace, report = run(alg, inst, FixedOracle(inst, r))
        # every round but the last is full; the run may stop mid-batch the
        # moment the answers already prove the minimum
        assert report.alg_rounds == ceil_div(report.alg_queries, k)
        assert all(len(ids) == k for ids, _ in trace.rounds[:-1])
        assert alg.batches_used == 1

    @pytest.mark.parametrize("c,k", [(1, 2), (2, 2), (2, 3)])
    def test_two_batch_sorting_on_pair_families(self, c, k):
        oracle = SortingPairAdversary(c, k)
        inst = oracle.instance
        alg = BatchesToRounds(TwoBatchSorting())
        _, report = run(alg, inst, oracle, opt_cap=inst.n)
        assert report.alg_rounds <= 2 * report.opt_k + 1
        assert alg.batches_used <= 2

    @pytest.mark.parametrize("seed", range(12))
    def test_two_batch_sorting_on_random_instances(self, seed):
        params = RandomParams(
            n=7 + seed % 6,
            m=1 + seed % 3,
            k=2 + seed % 3,
            problem=ProblemKind(SORTING),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        wrapped = BatchesToRounds(TwoBatchSorting())
        _, report = run(wrapped, inst, FixedOracle(inst, r))
        assert report.alg_rounds <= 2 * report.opt_k + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_wrapper_preserves_the_batch_queries_exactly(self, seed):
        params = RandomParams(n=8, m=2, k=3, problem=ProblemKind(SORTING), overlap="overlap")
        inst, r = gen_random(seed, params)
        batches, _ = run_batches(TwoBatchSorting(), inst, FixedOracle(inst, r))
        wrapped = BatchesToRounds(TwoBatchSorting())
        trace, _ = run(wrapped, inst, FixedOracle(inst, r))
        flat_batches = sorted(e for b in batches for e in b)
        flat_rounds = sorted(trace.queried_ids())
        assert flat_batches == flat_rounds

    def test_two_batch_sorting_without_dependent_pairs(self):
        # no edge, but trivial points force queries: batch one is the forced set
        params = RandomParams(
            n=16, m=2, k=1, problem=ProblemKind(SORTING), overlap="overlap", trivial_prob=0.3
        )
        inst, r = gen_random(12, params)
        batches, report = run_batches(TwoBatchSorting(), inst, FixedOracle(inst, r))
        assert batches and report.batches <= 2
        wrapped = BatchesToRounds(TwoBatchSorting())
        trace, _ = run(wrapped, inst, FixedOracle(inst, r))
        assert 1 <= wrapped.batches_used <= 2
        assert sorted(trace.queried_ids()) == sorted(e for b in batches for e in b)


class TestRoundsToBatches:
    def make(self, r, alpha, n):
        return RoundsToBatches(
            lambda sized: make_algorithm("min-single", sized), Fraction(alpha), r, n
        )

    def test_k_schedule_for_n16_x4(self):
        batch_alg = self.make(r=5, alpha=1, n=16)
        assert k_schedule(batch_alg) == [1, 2, 4, 8]

    def test_k_schedule_rounds_up(self):
        batch_alg = self.make(r=3, alpha=1, n=10)
        # 10^(1/2) rounds up to 4
        assert k_schedule(batch_alg) == [1, 4]

    @pytest.mark.parametrize("n", [1, 2, 10, 17, 1000, 3000, 5000])
    @pytest.mark.parametrize("x, alpha", [(1, 1), (2, 2), (3, 1), (7, 3), (44, 1), (100, 1), (299, 1)])
    def test_k_schedule_is_its_definition(self, n, x, alpha):
        # k_i is the least k >= 1 with k^x >= n^(i-1); from x = 100 on, the
        # larger n^(i-1) lie beyond the float range
        schedule = k_schedule(self.make(r=alpha * x + 1, alpha=alpha, n=n))
        assert len(schedule) == x
        for i, k in enumerate(schedule):
            assert k >= 1 and k**x >= n**i
            assert k == 1 or (k - 1) ** x < n**i

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_budget_respected(self, seed):
        r = 5
        params = RandomParams(n=16, m=1, k=1, problem=ProblemKind(MINIMUM), overlap="single", trivial_prob=0.0)
        inst, real = gen_random(seed, params)
        batch_alg = self.make(r=r, alpha=1, n=inst.n)
        batches, report = run_batches(batch_alg, inst, FixedOracle(inst, real))
        assert len(batches) <= r
        assert batch_alg.batches_used <= r

    @pytest.mark.parametrize("seed", range(10))
    def test_entering_a_sequence_certifies_a_large_optimum(self, seed):
        params = RandomParams(n=16, m=1, k=1, problem=ProblemKind(MINIMUM), overlap="single", trivial_prob=0.0)
        inst, real = gen_random(seed, params)
        batch_alg = self.make(r=5, alpha=1, n=inst.n)
        batches, _ = run_batches(batch_alg, inst, FixedOracle(inst, real))
        opt = canonical_opt(inst, real)
        sequences_entered = min(len(batches), batch_alg.x)
        if sequences_entered >= 2:
            # unsolved after one round at k_{i-1} means opt_1 > k_{i-1}
            assert opt.opt1 > k_schedule(batch_alg)[sequences_entered - 2]

    def test_solved_in_first_sequence_uses_one_batch(self):
        params = RandomParams(n=6, m=1, k=1, problem=ProblemKind(MINIMUM), overlap="single")
        for seed in range(20):
            inst, real = gen_random(seed, params)
            if canonical_opt(inst, real).opt1 != 1:
                continue
            batch_alg = self.make(r=5, alpha=1, n=inst.n)
            batches, _ = run_batches(batch_alg, inst, FixedOracle(inst, real))
            assert len(batches) == 1
            return
        raise AssertionError("no opt-1 instance in the sample")

