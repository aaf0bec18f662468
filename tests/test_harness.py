"""Run loop audits, report figures, and sweep determinism."""

import random
from fractions import Fraction

import pytest

from roundquery import harness
from roundquery.algorithms import make_algorithm
from roundquery.harness import (
    CSV_HEADER,
    HarnessError,
    SweepEntry,
    SweepError,
    parse_bench_spec,
    parse_seed_range,
    resolve_source,
    run,
    run_batches,
    sweep,
    sweep_csv,
)
from roundquery.instances import (
    InstanceError,
    MINIMUM,
    ProblemKind,
    RandomParams,
    Realization,
    SELECTION_FULL,
    SORTING,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
    make_instance,
)
from roundquery.intervals import UncertainInterval
from roundquery.oracles import FixedOracle, sorting_pair_adversary
from roundquery.reductions import QueryAllBatch
from roundquery.solving import ceil_div, reveal_all, set_solved

iv = UncertainInterval.parse


class _FixedBatches:
    """Batch algorithm that hands out the given batches in turn."""

    def __init__(self, *batches):
        self.batches = [list(b) for b in batches]

    def next_batch(self, instance, knowledge, open_sets):
        return self.batches.pop(0)


class _FixedRounds(_FixedBatches):
    def next_round(self, instance, knowledge, open_sets):
        return self.batches.pop(0)


class TestRun:
    def test_fig2_balanced_report(self):
        inst, r = gen_fig2_bal_instance()
        _, report = run(make_algorithm("bal", inst), inst, FixedOracle(inst, r))
        assert (report.alg_rounds, report.opt_k, report.wasted) == (3, 3, 2)
        assert report.useful == 11
        assert report.ratio == 1

    def test_fig3_budget_report(self):
        inst, r = gen_fig3_overlap_instance()
        _, report = run(make_algorithm("budget", inst), inst, FixedOracle(inst, r))
        assert (report.alg_rounds, report.opt_k, report.ratio) == (1, 1, Fraction(1))

    def test_pair_adversary_ratio_two(self):
        inst, oracle = sorting_pair_adversary(2, 3)
        _, report = run(make_algorithm("sorting-vc", inst), inst, oracle, opt_cap=inst.n)
        assert report.alg_rounds == 4 and report.opt_k == 2
        assert report.ratio == 2

    def test_solved_at_start_takes_no_rounds(self):
        inst = make_instance([iv("{3}")], [[1]], ProblemKind(MINIMUM), 2)
        r = Realization({1: Fraction(3)})
        trace, report = run(make_algorithm("bal", inst), inst, FixedOracle(inst, r))
        assert report.alg_rounds == 0 and report.opt_k == 0
        assert report.ratio == 1
        assert trace.rounds == ()

    def test_replay_is_deterministic(self):
        params = RandomParams(n=12, m=3, k=4, problem=ProblemKind(MINIMUM), overlap="overlap")
        first = None
        for _ in range(2):
            inst, r = gen_random(9, params)
            trace, _ = run(make_algorithm("budget", inst), inst, FixedOracle(inst, r))
            if first is None:
                first = trace.text()
            else:
                assert trace.text() == first

    def test_wasted_identity_and_per_set_timeline(self):
        inst, r = gen_fig2_bal_instance()
        trace, report = run(make_algorithm("bal", inst), inst, FixedOracle(inst, r))
        assert trace.solved_at == (2, 2, 3)
        # the run queried a superset of the optimum in full rounds, so the
        # identity below is asserted inside run(); recompute it here
        wasted_before_final = report.wasted - 0  # final round wasted nothing
        assert report.alg_rounds == ceil_div(report.opt1 + wasted_before_final, inst.k)

    def test_misbehaving_algorithm_is_rejected(self):
        inst, r = gen_fig2_bal_instance()

        class Nothing:
            def next_round(self, instance, knowledge, open_sets):
                return []

        with pytest.raises(HarnessError):
            run(Nothing(), inst, FixedOracle(inst, r))

    def test_oversized_round_is_rejected(self):
        inst, r = gen_fig2_bal_instance()

        class TooMany:
            def next_round(self, instance, knowledge, open_sets):
                return list(instance.ids())[: instance.k + 1]

        with pytest.raises(HarnessError):
            run(TooMany(), inst, FixedOracle(inst, r))

    @pytest.mark.parametrize("source", ["fig2", "wlb:M=2", "fig1-pairs:c=1,k=1", "selfull-lb:i=2"])
    def test_unknown_element_is_rejected(self, source):
        # id 0 used to read the last interval and reach the oracle
        for bad in (0, -1, 10**6):
            inst, oracle = resolve_source(source)
            with pytest.raises(HarnessError, match=f"unknown element {bad}"):
                run(_FixedRounds([bad]), inst, oracle)
            inst, oracle = resolve_source(source)
            with pytest.raises(HarnessError, match=f"unknown element {bad}"):
                run_batches(_FixedBatches([bad]), inst, oracle)

    def test_trace_text_format(self):
        inst, r = gen_fig3_overlap_instance()
        trace, _ = run(make_algorithm("budget", inst), inst, FixedOracle(inst, r))
        assert trace.text() == "round 1: 1 4 7 -> 5/8 9/16 1/2\n"


class TestRunBatchesAudit:
    # seed 2: elements 1, 5 and 7 are trivial; the optimum is one query
    SOURCE = "random:problem=minimum,n=8,m=2,k=2,overlap=disjoint,triv=0.5"

    def test_all_ids_batch_is_rejected_for_its_trivial_elements(self):
        inst, oracle = resolve_source(self.SOURCE, 2)
        with pytest.raises(HarnessError, match="trivial element 1"):
            run_batches(_FixedBatches(inst.ids()), inst, oracle)

    def test_batch_repeating_an_id_is_rejected(self):
        inst, oracle = resolve_source(self.SOURCE, 2)
        with pytest.raises(HarnessError, match="twice"):
            run_batches(_FixedBatches([2, 3, 2]), inst, oracle)

    def test_batch_requerying_an_id_is_rejected(self):
        inst, oracle = resolve_source("random:problem=minimum,n=8,m=2,k=2,overlap=disjoint,triv=0", 2)
        with pytest.raises(HarnessError, match="re-queries element 2"):
            run_batches(_FixedBatches([2], [2]), inst, oracle)

    def test_valid_batch_run_reverifies_its_certificate(self, monkeypatch):
        checked = []

        def verify(instance, knowledge, certificate, realization):
            checked.append(certificate)
            return real_verify(instance, knowledge, certificate, realization)

        real_verify = harness.verify_certificate
        monkeypatch.setattr(harness, "verify_certificate", verify)
        inst, oracle = resolve_source(self.SOURCE, 2)
        batches, report = run_batches(QueryAllBatch(), inst, oracle)
        assert batches == [(2, 3, 4, 6, 8)] and report.opt1 == 1
        assert len(checked) == 1 and checked[0].minima is not None


def _solvedness_case(seed, triv):
    """A random minimum, sorting or selection-full instance and an algorithm
    for it; the kind cycles with the seed."""
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        n = rng.randint(8, 40)
        m = rng.randint(3, 6)
        params = RandomParams(n=n, m=m, k=rng.randint(1, 6), problem=ProblemKind(MINIMUM),
                              overlap="overlap", trivial_prob=triv)
        alg = ("budget", "bal")[seed % 2]
    elif kind == 1:
        n = rng.randint(4, 30)
        params = RandomParams(n=n, m=rng.randint(1, 4), k=rng.randint(1, 5), problem=ProblemKind(SORTING),
                              overlap="overlap", trivial_prob=triv)
        alg = ("sorting-vc", "sorting-matching")[seed % 2]
    else:
        n = rng.randint(3, 30)
        params = RandomParams(n=n, m=1, k=rng.randint(1, 5),
                              problem=ProblemKind(SELECTION_FULL, rng.randint(1, n)),
                              overlap="single", trivial_prob=triv)
        alg = "sel-full"
    instance, realization = gen_random(seed, params)
    return instance, realization, alg


class TestTouchedSetSolvedness:
    @pytest.mark.parametrize("triv", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(30))
    def test_solved_at_matches_a_full_recheck(self, seed, triv):
        # run() re-checks only the sets holding a just-revealed element;
        # replaying every prefix of the rounds and checking every set must
        # give the same first-solved round for each set
        instance, realization, alg = _solvedness_case(seed, triv)
        trace, _ = run(make_algorithm(alg, instance), instance, FixedOracle(instance, realization),
                       opt_cap=instance.n)
        expected = [-1] * instance.m
        for r in range(len(trace.rounds) + 1):
            ids = [e for picked, _ in trace.rounds[:r] for e in picked]
            knowledge = reveal_all(instance, trace.final_realization, ids)
            for i in range(instance.m):
                if expected[i] < 0 and set_solved(instance, i, knowledge):
                    expected[i] = r
        assert trace.solved_at == tuple(expected)


class TestSources:
    def test_named_sources_resolve(self):
        for spec in ("fig2", "fig3:k=3,c=2", "random:problem=sorting,n=6,m=2,k=2,overlap=overlap",
                     "fig1-pairs:c=2,k=1", "wlb:M=2", "additive:m=3", "selval-lb:i=3", "selfull-lb:i=2"):
            instance, oracle = resolve_source(spec, seed=1)
            assert instance.n >= 1

    def test_unknown_source_rejected(self):
        with pytest.raises(InstanceError):
            resolve_source("nope")
        with pytest.raises(InstanceError):
            resolve_source("random:problem=guessing")

    def test_seed_ranges(self):
        assert parse_seed_range("4") == (4,)
        assert parse_seed_range("2..5") == (2, 3, 4, 5)
        assert parse_seed_range("3..3") == (3,)
        with pytest.raises(InstanceError):
            parse_seed_range("5..3")


class TestSweep:
    def test_empty_spec_gives_empty_table(self):
        assert sweep([]) == []
        assert sweep_csv([]) == ",".join(CSV_HEADER) + "\n"

    def test_rows_are_deterministic_and_ordered(self):
        entries = [
            SweepEntry(alg="bal", source="fig2", seeds=(0,)),
            SweepEntry(alg="budget", source="fig3:k=3,c=3", seeds=(0,)),
            SweepEntry(alg="bal", source="random:problem=minimum,n=10,m=2,k=3", seeds=(0, 1)),
        ]
        rows_a = sweep(entries)
        rows_b = sweep(entries)
        assert rows_a == rows_b
        assert [row["alg"] for row in rows_a] == ["bal", "budget", "bal", "bal"]
        fig2_row = rows_a[0]
        assert (fig2_row["rounds"], fig2_row["opt_k"], fig2_row["wasted"]) == ("3", "3", "2")

    def test_parallel_matches_sequential(self):
        entries = [
            SweepEntry(alg="bal", source="random:problem=minimum,n=8,m=2,k=2", seeds=(0, 1, 2, 3)),
        ]
        assert sweep(entries, jobs=2) == sweep(entries, jobs=1)

    def test_failed_rows_do_not_stop_the_others(self):
        entries = [
            SweepEntry(alg="bal", source="fig2", seeds=(0,)),
            SweepEntry(alg="sel-full", source="fig2", seeds=(0, 1)),
            SweepEntry(alg="bal", source="nope", seeds=(4,)),
            SweepEntry(alg="budget", source="fig3:k=3,c=3", seeds=(0,)),
        ]
        with pytest.raises(SweepError) as caught:
            sweep(entries)
        assert caught.value.rows == sweep([entries[0], entries[3]])
        assert caught.value.failures == [
            "alg=sel-full source=fig2 seed=0: algorithm 'sel-full' does not handle minimum instances",
            "alg=sel-full source=fig2 seed=1: algorithm 'sel-full' does not handle minimum instances",
            "alg=bal source=nope seed=4: unknown source 'nope'",
        ]

    def test_csv_header_is_stable(self):
        entries = [SweepEntry(alg="budget", source="fig3:k=3,c=3", seeds=(0,))]
        text = sweep_csv(sweep(entries))
        lines = text.strip().split("\n")
        assert lines[0] == "source,alg,seed,n,m,k,rounds,opt_k,ratio,queries,opt1,wasted"
        assert lines[1] == '"fig3:k=3,c=3",budget,0,9,6,3,1,1,1,3,3,0'

    def test_lower_bound_rows_reproduce(self):
        text = (
            "sweep alg=sorting-vc source=fig1-pairs:c=2,k=3 seeds=0 opt_cap=30\n"
            "sweep alg=bal source=wlb:M=2 seeds=0\n"
            "sweep alg=bal source=additive:m=4 seeds=0\n"
            "sweep alg=sel-value source=selval-lb:i=3 seeds=0\n"
            "sweep alg=sel-full source=selfull-lb:i=3 seeds=0\n"
        )
        rows = sweep(parse_bench_spec(text))
        by = {row["source"].split(":")[0]: row for row in rows}
        assert (by["fig1-pairs"]["rounds"], by["fig1-pairs"]["opt_k"]) == ("4", "2")
        assert (by["wlb"]["rounds"], by["wlb"]["opt_k"]) == ("2", "1")
        assert by["selval-lb"]["opt1"] == "1"
        assert int(by["selval-lb"]["queries"]) >= 3
        assert int(by["selfull-lb"]["rounds"]) <= 2 * int(by["selfull-lb"]["opt_k"])
        assert int(by["additive"]["wasted"]) >= 5  # 4*(H(4)-1) = 13/3

    def test_bench_spec_parsing(self):
        text = "# lower bounds\nsweep alg=bal source=fig2 seeds=0\nsweep alg=budget source=fig3:k=3,c=3 seeds=0..2\n"
        entries = parse_bench_spec(text)
        assert len(entries) == 2
        assert entries[1].seeds == (0, 1, 2)
        with pytest.raises(InstanceError):
            parse_bench_spec("sweep alg=bal\n")
        with pytest.raises(InstanceError):
            parse_bench_spec("swoop alg=bal source=fig2\n")
