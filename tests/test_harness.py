"""Run loop audits, report figures, and sweep determinism."""

import random
import sys
from fractions import Fraction

import pytest

from roundquery import harness, instances, solving
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
    SELECTION_VALUE,
    SORTING,
    gen_fig2_bal_instance,
    gen_fig3_overlap_instance,
    gen_random,
    make_instance,
)
from roundquery.intervals import KnowledgeState, UncertainInterval
from roundquery.oracles import FixedOracle, SortingPairAdversary
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
        oracle = SortingPairAdversary(2, 3)
        inst = oracle.instance
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

    def test_selection_value_optimum_has_no_size_cap(self):
        params = RandomParams(
            n=2000, m=1, k=8, problem=ProblemKind(SELECTION_VALUE, rank=1000), overlap="single"
        )
        inst, r = gen_random(0, params)
        _, report = run(make_algorithm("sel-value", inst), inst, FixedOracle(inst, r), opt_cap=22)
        assert report.method == "closed-form"
        assert report.alg_queries >= report.opt1 > 0

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

    @pytest.mark.parametrize("source, alg", [
        ("random:problem=minimum,n=30,m=4,k=3,overlap=overlap", "bal"),
        ("random:problem=sorting,n=30,m=2,k=3,overlap=overlap", "sorting-vc"),
        ("random:problem=selection-full,n=30,k=3,i=10", "sel-full"),
        ("random:problem=selection-value,n=30,k=3,i=10", "sel-value"),
    ])
    def test_a_run_keys_only_the_states(self, monkeypatch, source, alg):
        """The oracle's record carries the realization's keys, so no audit
        keys the realization again: the one `interval_keys` call outside the
        knowledge state in a run on a prebuilt oracle is the certificate
        check's, over the states.  A minimum run makes none: its
        certificate check compares the ratios that the states keep, and the
        instance's left orders are built from the record's keys."""
        inst, oracle = resolve_source(source, 1)
        callers = []

        def counted(keys):
            def wrapper(*args):
                callers.append(sys._getframe(1).f_code.co_name)
                return keys(*args)

            return wrapper

        for module in (instances, solving):
            monkeypatch.setattr(module, "interval_keys", counted(module.interval_keys))
        run(make_algorithm(alg, inst), inst, oracle, opt_cap=inst.n)
        assert callers == ([] if inst.problem.kind is MINIMUM else ["verify_certificate"])

    def test_trace_text_format(self):
        inst, r = gen_fig3_overlap_instance()
        trace, _ = run(make_algorithm("budget", inst), inst, FixedOracle(inst, r))
        assert trace.text() == "round 1: 1 4 7 -> 5/8 9/16 1/2\n"


def _fixed_run(loop, source, seed, *rounds):
    """Hands `rounds` in turn to `run` or to `run_batches`."""
    inst, oracle = resolve_source(source, seed)
    if loop == "run":
        return run(_FixedRounds(*rounds), inst, oracle)
    return run_batches(_FixedBatches(*rounds), inst, oracle)


class _OneAtATime:
    """Queries the lowest unrevealed non-trivial id, one a round or batch."""

    def next_round(self, instance, knowledge, open_sets):
        return [min(knowledge.unqueried_nontrivial(instance.ids()))]

    next_batch = next_round


@pytest.mark.parametrize("loop", ["run", "run_batches"])
class TestBothLoops:
    # seed 2: elements 1, 5 and 7 are trivial; the optimum is one query
    SOURCE = "random:problem=minimum,n=8,m=2,k=2,overlap=disjoint,triv=0.5"

    def test_empty_round_is_rejected(self, loop):
        with pytest.raises(HarnessError, match="empty round"):
            _fixed_run(loop, self.SOURCE, 2, [])

    def test_trivial_element_is_rejected(self, loop):
        with pytest.raises(HarnessError, match="trivial element 1"):
            _fixed_run(loop, self.SOURCE, 2, [2, 1])

    def test_repeated_id_is_rejected(self, loop):
        with pytest.raises(HarnessError, match="twice"):
            _fixed_run(loop, self.SOURCE, 2, [2, 2])

    def test_requeried_id_is_rejected(self, loop):
        with pytest.raises(HarnessError, match="re-queries element 2"):
            _fixed_run(loop, self.SOURCE.replace("0.5", "0"), 2, [2], [2])

    @pytest.mark.parametrize(
        "source",
        [
            "random:problem=sorting,n=12,m=2,k=3,overlap=overlap,triv=0",
            "random:problem=minimum,n=15,m=4,k=2,overlap=overlap,triv=0",
            "random:problem=selection-full,n=10,m=1,k=2,i=4,overlap=single,triv=0",
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_one_query_a_round_ends_within_n_rounds(self, loop, source, seed):
        # each accepted round reveals a new non-trivial element, which
        # bounds every run by n rounds; no round limit is needed
        inst, oracle = resolve_source(source, seed)
        if loop == "run":
            rounds = run(_OneAtATime(), inst, oracle)[0].rounds
        else:
            rounds = run_batches(_OneAtATime(), inst, oracle)[0]
        assert 0 < len(rounds) <= inst.n


class TestRunBatchesAudit:
    SOURCE = TestBothLoops.SOURCE

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


@pytest.mark.parametrize("alg, source", [
    ("sel-full", "random:problem=selection-full,n=30,k=3,i=10"),
    ("sel-value", "random:problem=selection-value,n=30,k=3,i=10"),
])
def test_selection_runs_build_no_membership_index(alg, source):
    # a one-set family re-checks its one set after every round, and a
    # reveal with no floor to keep reads no index: none is built
    for seed in range(3):
        inst, oracle = resolve_source(source, seed)
        trace, _ = run(make_algorithm(alg, inst), inst, oracle)
        assert trace.rounds and "sets_of" not in vars(inst)


@pytest.mark.parametrize("alg, source", [
    ("sel-full", "random:problem=selection-full,n=30,k=3,i=10"),
    ("sel-value", "random:problem=selection-value,n=30,k=3,i=10"),
])
def test_selection_runs_build_no_left_orders(monkeypatch, alg, source):
    # selection reads the cut lists alone, so no run of it, audits
    # included, pays for its one full set's left order
    def refuse(*args):
        raise AssertionError("a left order was asked for")

    monkeypatch.setattr(instances.Instance, "left_orders", refuse)
    for seed in range(3):
        inst, oracle = resolve_source(source, seed)
        trace, _ = run(make_algorithm(alg, inst), inst, oracle)
        assert trace.rounds


def test_a_fresh_sorting_state_walks_only_the_sets_it_checks(monkeypatch):
    # `instance_solved` stops at the first unsorted set, and a fresh state
    # reads only the sets it is asked about: set 0 holds a dependent pair,
    # so a `verify` replay on this family walks set 0 alone, sorts no
    # pinned keys and reads no membership index
    asked, walk, points = [], KnowledgeState.unpinned_rows, KnowledgeState.pinned_keys
    monkeypatch.setattr(KnowledgeState, "unpinned_rows", lambda k, i: asked.append(i) or walk(k, i))
    monkeypatch.setattr(KnowledgeState, "pinned_keys", lambda k, i: asked.append(("keys", i)) or points(k, i))
    elements = [iv("(0,4)"), iv("(1,5)"), iv("(6,7)"), iv("(8,9)"), iv("{3}"), iv("(10,11)")]
    inst = make_instance(elements, [[1, 2], [3, 4, 5], [5, 6]], ProblemKind(SORTING), 2)
    assert not solving.instance_solved(inst, KnowledgeState(inst))
    assert asked == [0] and "sets_of" not in vars(inst)


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

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("random:n=6,tirv=0.5", "source 'random:n=6,tirv=0.5': unknown key 'tirv'"
             " (allowed: problem, n, m, k, i, overlap, triv)"),
            ("random:problem=minimum,n=5,n=9,m=2", "source 'random:problem=minimum,n=5,n=9,m=2': repeated key 'n'"
             " (allowed: problem, n, m, k, i, overlap, triv)"),
            ("fig2:x=1", "source 'fig2:x=1': unknown key 'x' (allowed: none)"),
            ("fig3:k=3,M=2", "source 'fig3:k=3,M=2': unknown key 'M' (allowed: k, c)"),
            ("wlb:m=2", "source 'wlb:m=2': unknown key 'm' (allowed: M)"),
        ],
    )
    def test_unknown_or_repeated_key_is_named_with_the_allowed_keys(self, spec, message):
        with pytest.raises(InstanceError) as caught:
            resolve_source(spec)
        assert str(caught.value) == message

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

    def test_pool_gets_no_more_workers_than_rows(self, monkeypatch):
        # the fake pool records its size and maps in this process, so no worker starts
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        two_rows = [SweepEntry(alg="bal", source="fig2", seeds=(0,)), SweepEntry(alg="budget", source="fig2", seeds=(0,))]
        assert sweep(two_rows, jobs=64) == sweep(two_rows, jobs=1)
        assert asked == [2]

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
        for line, problem in (("seed=3", "unknown key 'seed'"), ("seeds=1 seeds=2", "repeated key 'seeds'")):
            with pytest.raises(InstanceError) as caught:
                parse_bench_spec(f"sweep alg=bal source=fig2 {line}\n")
            assert str(caught.value) == f"line 1: {problem} (allowed: alg, source, seeds, opt_cap)"
