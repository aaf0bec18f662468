"""Instance model: file format, validation, and the fixed generators."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import contains, parse_instance
from roundquery.algorithms import make_algorithm
from roundquery.cli import main
from roundquery.harness import resolve_source, run
from roundquery.instances import (
    Instance,
    InstanceError,
    MINIMUM,
    ParseError,
    ProblemFamily,
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
    serialize_instance,
    truth_record,
)
from roundquery.intervals import CLOSED, OPEN, IntervalError, KnowledgeState, UncertainInterval, parse_rational
from roundquery.solving import minimum_solved, opt1_minimum


FIG2_TEXT = None  # filled lazily; serialization is canonical


class TestParsing:
    def test_minimal_file(self):
        text = "k 2\nproblem sorting\ninterval 1 (0,2)\ninterval 2 [1,3]\nset A 1 2\n"
        instance, realization = parse_instance(text)
        assert instance.n == 2 and instance.m == 1 and instance.k == 2
        assert realization is None

    def test_comments_and_blank_lines(self):
        text = "# header\nk 1\n\nproblem minimum  # trailing\ninterval 1 {3}\n"
        instance, _ = parse_instance(text)
        assert instance.problem.kind is MINIMUM

    def test_default_family_is_the_full_set(self):
        instance, _ = parse_instance("k 1\nproblem minimum\ninterval 1 {3}\n")
        assert instance.family == (frozenset({1}),)

    def test_selection_rank_parses(self):
        text = "k 2\nproblem selection-value i=2\ninterval 1 (0,5)\ninterval 2 {3}\n"
        instance, _ = parse_instance(text)
        assert instance.problem.rank == 2

    def test_syntax_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance("k 1\nproblem minimum\ninterval 1 (0,2\n")
        assert err.value.line == 3

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("k 1\nfoo bar\n")

    def test_closed_interval_in_minimum_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("k 1\nproblem minimum\ninterval 1 [0,2]\n")

    def test_realization_outside_interval_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("k 1\nproblem minimum\ninterval 1 (1,2)\nvalue 1 5/2\n")

    def test_incomplete_realization_rejected(self):
        text = "k 1\nproblem minimum\ninterval 1 (0,2)\ninterval 2 (0,3)\nvalue 1 1\n"
        with pytest.raises(InstanceError):
            parse_instance(text)

    @pytest.mark.parametrize("eid", ["0", "3", "99"])
    def test_value_for_an_unknown_element_rejected(self, eid):
        # a value line may come before the interval lines, so it is checked
        # once every interval is read
        text = f"k 1\nproblem minimum\nvalue {eid} 5\ninterval 1 (0,2)\ninterval 2 (1,3)\nvalue 1 1\nvalue 2 2\n"
        with pytest.raises(ParseError, match=f"^line 3, column 7: value for unknown element {eid}$"):
            parse_instance(text)

    def test_value_before_its_interval_is_kept(self):
        _, realization = parse_instance("k 1\nproblem minimum\nvalue 1 1\ninterval 1 (0,2)\n")
        assert realization.values == {1: 1}

    @pytest.mark.parametrize(
        "text, name",
        [
            ("k 5\nproblem minimum\ninterval 1 (0,2)\nk 1\n", "k"),
            ("k 1\nproblem minimum\ninterval 1 (0,2)\nk 1\n", "k"),
            ("k 1\nproblem sorting\ninterval 1 (0,2)\nproblem minimum\n", "problem"),
        ],
    )
    def test_repeated_k_or_problem_rejected(self, text, name):
        with pytest.raises(ParseError, match=f"^line 4, column 1: duplicate '{name}' directive$"):
            parse_instance(text)

    def test_trivial_single_element_has_zero_opt(self):
        instance, realization = parse_instance(
            "k 1\nproblem minimum\ninterval 1 {3}\nvalue 1 3\n"
        )
        assert realization is not None
        report = opt1_minimum(instance, realization)
        assert report.opt1 == 0 and report.opt_k == 0


class TestValidation:
    def test_empty_set_rejected(self):
        with pytest.raises(InstanceError):
            make_instance(
                [UncertainInterval.parse("(0,2)")], [[]], ProblemKind(SORTING), 1
            )

    def test_selection_needs_full_single_set(self):
        with pytest.raises(InstanceError):
            make_instance(
                [UncertainInterval.parse("(0,2)"), UncertainInterval.parse("(0,3)")],
                [[1]],
                ProblemKind(SELECTION_VALUE, rank=1),
                1,
            )

    def test_rank_required_only_for_selection(self):
        with pytest.raises(InstanceError):
            ProblemKind(SELECTION_FULL)
        with pytest.raises(InstanceError):
            ProblemKind(SORTING, rank=2)


class TestMembershipIndex:
    @given(data=st.data())
    def test_equals_a_naive_recomputation(self, data):
        n = data.draw(st.integers(1, 12))
        sets = st.lists(st.integers(1, n), min_size=1, unique=True)
        family = data.draw(st.lists(sets, min_size=1, max_size=6))
        family.append(data.draw(st.sampled_from(family)))  # one set listed twice
        inst = make_instance([UncertainInterval.open(0, 1)] * n, family, ProblemKind(MINIMUM), 1)
        naive = {e: [i for i, members in enumerate(family) if e in members] for e in range(1, n + 1)}
        assert inst.sets_of == naive

    def test_a_built_index_leaves_equality_and_hash_to_the_fields(self):
        inst, _ = gen_fig3_overlap_instance()
        inst.sets_of
        copy = dataclasses.replace(inst)
        assert "sets_of" in vars(inst) and "sets_of" not in vars(copy)
        assert copy == inst and hash(copy) == hash(inst)
        assert copy.sets_of == inst.sets_of and copy.sets_of is not inst.sets_of

    @staticmethod
    def _reads(monkeypatch):
        """Record every `sets_of` read and every knowledge state built."""
        reads, states = [], []
        index, init = Instance.sets_of, KnowledgeState.__init__
        monkeypatch.setattr(Instance, "sets_of", property(lambda inst: reads.append(index.__get__(inst)) or reads[-1]))
        monkeypatch.setattr(KnowledgeState, "__init__", lambda k, inst: states.append(k) or init(k, inst))
        return reads, states

    def test_runs_on_one_instance_read_one_index(self, monkeypatch):
        reads, states = self._reads(monkeypatch)
        inst, oracle = resolve_source("random:problem=minimum,n=40,m=8,k=3,overlap=overlap", 0)
        for alg in ("bal", "budget"):
            run(make_algorithm(alg, inst), inst, oracle)
        assert len(states) == 2 and len(reads) > 2
        assert all(read is reads[0] for read in reads)

    def test_verify_replays_read_one_index(self, monkeypatch, tmp_path, capsys):
        source = "random:problem=minimum,n=40,m=8,k=3,overlap=overlap"
        path = tmp_path / "minimum.rq"
        assert main(["generate", "--source", source, "--output", str(path)]) == 0
        reads, states = self._reads(monkeypatch)
        orders, left_orders = [], Instance.left_orders

        def read_orders(inst, lowers=None):
            orders.append(left_orders(inst, lowers))
            return orders[-1]

        monkeypatch.setattr(Instance, "left_orders", read_orders)
        assert main(["verify", "--instance", str(path)]) == 0
        opt_set = capsys.readouterr().out.split("opt_set ")[1].split("\n")[0].split()
        # one state for the feasibility replay and one per minimality replay,
        # each reading the instance's one left orders, as the audits do
        assert opt_set and len(states) == 1 + len(opt_set) and len(orders) >= len(states)
        assert all(order is orders[0] for order in orders)
        assert all(read is reads[0] for read in reads)


class TestLeftOrders:
    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("source", [
        "random:problem=minimum,n=40,m=6,k=2,overlap=overlap,triv=0.5",
        "random:problem=sorting,n=40,m=3,k=2,overlap=overlap,triv=0.3",  # closed ends too
        "random:problem=selection-full,n=40,k=2,i=20,triv=0.3",
    ])
    def test_each_set_in_left_order(self, source, seed, keyed):
        inst, oracle = resolve_source(source, seed)
        orders = inst.left_orders(truth_record(inst, oracle.realization).lowers if keyed else None)
        interval = inst.interval
        for members, order in zip(inst.family, orders):
            # a point's left cut is its value, closed
            assert order == sorted(members, key=lambda e: (interval(e).lower, interval(e).lower_kind is OPEN, e))

    def test_a_set_listed_twice_and_a_one_member_set(self):
        elements = [UncertainInterval.parse(text) for text in ("(1,3)", "{1}", "(0,2)", "{0}", "(1,2)")]
        inst = make_instance(elements, [[1, 2, 3, 4, 5], [2], [1, 2, 3, 4, 5]], ProblemKind(MINIMUM), 1)
        assert inst.left_orders() == [[4, 3, 2, 1, 5], [2], [4, 3, 2, 1, 5]]

    def test_built_once_from_the_first_keys(self):
        inst, r = gen_fig3_overlap_instance()
        assert "_left_orders" not in vars(inst)
        orders = inst.left_orders(truth_record(inst, r).lowers)
        assert inst.left_orders() is orders and inst.left_orders([0] * inst.n) is orders
        copy = dataclasses.replace(inst)
        assert copy == inst and hash(copy) == hash(inst) and "_left_orders" not in vars(copy)

    def test_built_by_the_first_audit_that_reads_a_minimum(self):
        # neither the oracle's validation nor its record builds them, and
        # the minima are found without the membership index
        inst, oracle = resolve_source("random:problem=minimum,n=40,m=8,k=3,overlap=overlap", 0)
        record = oracle.check_finalize()
        assert "_left_orders" not in vars(inst)
        assert len(record.holders) == inst.m
        assert "_left_orders" in vars(inst) and "sets_of" not in vars(inst)


class TestFig2:
    def test_shape_matches_the_drawn_run(self):
        instance, realization = gen_fig2_bal_instance()
        assert instance.m == 3 and instance.k == 5 and instance.n == 17
        assert sorted(len(s) for s in instance.family) == [5, 6, 6]
        report = opt1_minimum(instance, realization)
        assert report.opt1 == 11
        assert report.opt_k == 3  # ceil(11/5)

    def test_per_set_prefixes_are_3_3_5(self):
        instance, realization = gen_fig2_bal_instance()
        needs = []
        for members in instance.family:
            v_star = min(realization.value(e) for e in members)
            needs.append(sum(1 for e in members if instance.interval(e).lower < v_star))
        assert needs == [3, 3, 5]

    def test_deep_set_solved_after_its_whole_prefix(self):
        instance, realization = gen_fig2_bal_instance()
        deep = instance.family[2]
        knowledge = KnowledgeState(instance)
        for eid in sorted(deep)[:4]:
            knowledge.reveal({eid: realization.value(eid)})
        assert not minimum_solved(2, knowledge)
        knowledge.reveal({sorted(deep)[4]: realization.value(sorted(deep)[4])})
        assert minimum_solved(2, knowledge)


class TestFig3:
    def test_default_shape(self):
        instance, realization = gen_fig3_overlap_instance()
        assert instance.n == 9 and instance.m == 6 and instance.k == 3
        report = opt1_minimum(instance, realization)
        assert report.opt1 == 3
        assert report.opt_set == {1, 4, 7}  # the shared chain solves everything

    @pytest.mark.parametrize("k,c", [(2, 1), (2, 4), (3, 3), (5, 4), (4, 2)])
    def test_general_structure(self, k, c):
        instance, realization = gen_fig3_overlap_instance(k=k, c=c)
        assert instance.m == c * (k - 1)
        assert instance.n == c * k
        report = opt1_minimum(instance, realization)
        assert report.opt1 == c
        # chain elements are the first of each group block of k
        assert report.opt_set == {1 + g * k for g in range(c)}

    @pytest.mark.parametrize("k", range(2, 6))
    @pytest.mark.parametrize("c", range(1, 5))
    def test_realization_validates(self, k, c):
        # the generator does not validate its realization; a `FixedOracle`
        # does, on every run path, and this is the guarantee it relies on
        instance, realization = gen_fig3_overlap_instance(k=k, c=c)
        realization.validate(instance)

    def test_rejects_k_below_2(self):
        with pytest.raises(InstanceError):
            gen_fig3_overlap_instance(k=1, c=2)


class TestSerialization:
    def test_fig2_round_trips_byte_identically(self):
        instance, realization = gen_fig2_bal_instance()
        text = serialize_instance(instance, realization)
        parsed_instance, parsed_realization = parse_instance(text)
        assert serialize_instance(parsed_instance, parsed_realization) == text
        assert parsed_instance == instance
        assert parsed_realization.values == realization.values

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_round_trip(self, seed):
        params = RandomParams(
            n=8, m=2, k=3, problem=ProblemKind(SORTING), overlap="overlap"
        )
        instance, realization = gen_random(seed, params)
        text = serialize_instance(instance, realization)
        parsed_instance, parsed_realization = parse_instance(text)
        assert parsed_instance == instance
        assert serialize_instance(parsed_instance, parsed_realization) == text


@st.composite
def element_and_value(draw, open_only):
    """An interval with mixed endpoint kinds (open only for minimum), or a
    trivial point, plus one value it admits."""
    lo = Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 5)))
    if draw(st.integers(0, 3)) == 0:
        return UncertainInterval.point(lo), lo
    hi = lo + Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    if open_only:
        kinds = (OPEN, OPEN)
    else:
        kinds = tuple(draw(st.sampled_from([OPEN, CLOSED])) for _ in range(2))
    iv = UncertainInterval(lo, kinds[0], hi, kinds[1])
    value = lo + (hi - lo) * Fraction(draw(st.integers(1, 3)), 4)
    return iv, draw(st.sampled_from([v for v in (lo, value, hi) if contains(iv, v)]))


@st.composite
def instances_with_realizations(draw):
    family = draw(st.sampled_from(list(ProblemFamily)))
    n = draw(st.integers(1, 7))
    pairs = [draw(element_and_value(family is MINIMUM)) for _ in range(n)]
    if family in (SELECTION_VALUE, SELECTION_FULL):
        problem = ProblemKind(family, draw(st.integers(1, n)))
        sets = [list(range(1, n + 1))]
    else:
        problem = ProblemKind(family)
        members = st.lists(st.integers(1, n), min_size=1, max_size=n)
        sets = draw(st.lists(members, min_size=1, max_size=3))
    instance = make_instance([iv for iv, _ in pairs], sets, problem, draw(st.integers(1, 5)))
    realization = None
    if draw(st.booleans()):
        realization = Realization({eid: v for eid, (_, v) in enumerate(pairs, 1)})
    return instance, realization


# Digit-like tokens mix ASCII digits with superscripts and other Unicode
# digits, which `str.isdigit` accepts and `int` may not.
_NUMBERS = st.text(alphabet="²¹٣0123456789", min_size=1, max_size=3)
_WORDS = st.one_of(
    st.sampled_from(["(0,1)", "[1,2]", "{3}", "(1,1)", "-1", "3/2", "1/0", "S1", "i=2", "(٠,٣)", "١"]),
    st.text(alphabet="²٣0123456789-/(),[]{}=i#kS", max_size=6),
)
# Unicode decimal digits (Arabic-Indic, Devanagari, fullwidth) that `\d`
# and `int` would take for 0-9 unless the format insists on ASCII.
_DIGIT_BASES = (0x660, 0x966, 0xFF10)
# Each line is a directive with its usual shape, or a few arbitrary words.
_LINES = st.lists(
    st.one_of(
        _NUMBERS.map("k {}".format),
        st.builds("problem {} i={}".format, st.sampled_from([f.value for f in ProblemFamily]), _NUMBERS),
        st.builds("interval {} {}".format, _NUMBERS, _WORDS),
        st.builds("set S1 {} {}".format, _NUMBERS, _NUMBERS),
        st.builds("value {} {}".format, _NUMBERS, _WORDS),
        st.lists(_WORDS, max_size=4).map(" ".join),
    ),
    max_size=8,
).map("\n".join)


class TestTextFormatProperties:
    @given(case=instances_with_realizations())
    def test_serialize_then_parse_is_the_identity(self, case):
        instance, realization = case
        parsed_instance, parsed_realization = parse_instance(serialize_instance(instance, realization))
        assert parsed_instance == instance
        assert parsed_realization == realization

    @given(text=_LINES)
    def test_arbitrary_lines_raise_only_format_errors(self, text):
        try:
            parse_instance(text)
        except (ParseError, InstanceError, IntervalError):
            pass

    @given(case=instances_with_realizations(), data=st.data())
    def test_unicode_digit_in_interval_or_value_is_rejected(self, case, data):
        # swap one ASCII digit of an interval or value token for a
        # look-alike; read back, it would no longer serialize to these bytes
        lines = serialize_instance(*case).splitlines()
        spots = [
            (row, col)
            for row, line in enumerate(lines)
            if line.startswith(("interval ", "value "))
            for col in range(line.rindex(" ") + 1, len(line))
            if line[col].isdigit()
        ]
        row, col = data.draw(st.sampled_from(spots))
        digit = chr(data.draw(st.sampled_from(_DIGIT_BASES)) + int(lines[row][col]))
        lines[row] = lines[row][:col] + digit + lines[row][col + 1:]
        with pytest.raises(ParseError):
            parse_instance("\n".join(lines) + "\n")


class TestAsciiRationals:
    @pytest.mark.parametrize("text", ["٣", "-٣", "1/٣", "١/2", "３", "३/4"])
    def test_unicode_digits_are_not_a_rational(self, text):
        with pytest.raises(IntervalError):
            parse_rational(text)

    @pytest.mark.parametrize(
        "old,new", [("interval 1 (0,3)", "interval 1 (٠,٣)"), ("value 1 1", "value 1 ١")]
    )
    def test_unicode_digit_rational_is_one_error_line(self, tmp_path, capsys, old, new):
        text = "k 1\nproblem minimum\ninterval 1 (0,3)\nset S1 1\nvalue 1 1\n"
        assert old in text
        path = tmp_path / "bad.rq"
        path.write_text(text.replace(old, new), encoding="utf-8")
        code = main(["verify", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestRandomGenerator:
    def test_deterministic_in_seed(self):
        params = RandomParams(n=10, m=3, k=4, problem=ProblemKind(MINIMUM))
        assert gen_random(7, params) == gen_random(7, params)
        assert gen_random(7, params) != gen_random(8, params)

    @pytest.mark.parametrize("seed", range(20))
    def test_realization_is_admissible(self, seed):
        params = RandomParams(
            n=12,
            m=3,
            k=4,
            problem=ProblemKind(MINIMUM),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        instance, realization = gen_random(seed, params)
        realization.validate(instance)
        for eid in instance.ids():
            assert contains(instance.interval(eid), realization.value(eid))

    @pytest.mark.parametrize("problem", [
        ProblemKind(MINIMUM), ProblemKind(SORTING), ProblemKind(SELECTION_VALUE, rank=2),
        ProblemKind(SELECTION_FULL, rank=3),
    ], ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("overlap", ["disjoint", "overlap", "single"])
    @pytest.mark.parametrize("triv", [0, 0.15, 0.5])
    def test_realization_validates_over_many_seeds(self, problem, overlap, triv):
        # the generator does not validate its realization; a `FixedOracle`
        # does, on every run path, and this is the guarantee it relies on
        m = 1 if overlap == "single" or problem.is_selection else 3
        for seed in range(200):
            params = RandomParams(n=3 + seed % 18, m=m, k=3, problem=problem, overlap=overlap, trivial_prob=triv)
            instance, realization = gen_random(seed, params)
            realization.validate(instance)

    def test_stream_is_pinned(self):
        # One digest over the canonical text of 302 generated instances per
        # problem kind: every overlap mode, four point probabilities, n from
        # 1 to 25, and one instance each at n=800 and n=3000.  Any change to
        # the draws, their order or the arithmetic on them moves it, and with
        # it every golden file built on `random:` sources.
        digest = hashlib.sha256()
        kinds = (MINIMUM, SORTING, SELECTION_VALUE, SELECTION_FULL)
        for kind in kinds:
            cases = [
                (overlap, triv, n)
                for overlap in ("disjoint", "overlap", "single")
                for triv in (0, 0.15, 0.5, 1)
                for n in range(1, 26)
            ] + [("overlap", 0.15, 800), ("disjoint", 0.15, 3000)]
            for seed, (overlap, triv, n) in enumerate(cases):
                selection = kind in (SELECTION_VALUE, SELECTION_FULL)
                problem = ProblemKind(kind, rank=(n + 1) // 2 if selection else None)
                m = 1 if selection or overlap == "single" else min(n, 1 + seed % 5)
                params = RandomParams(n=n, m=m, k=1 + seed % 6, problem=problem, overlap=overlap, trivial_prob=triv)
                digest.update(serialize_instance(*gen_random(seed, params)).encode())
        assert digest.hexdigest() == "bf10bfdb5937c02ab9f3d6e50337b84ebcfdb26c73d599de0eecd2b30b8dc0b7"

    def test_disjoint_sets_partition(self):
        params = RandomParams(n=12, m=4, k=3, problem=ProblemKind(MINIMUM))
        instance, _ = gen_random(3, params)
        seen = [e for s in instance.family for e in s]
        assert len(seen) == len(set(seen)) == 12

    def test_selection_instances_are_single_full_set(self):
        params = RandomParams(
            n=9, m=1, k=3, problem=ProblemKind(SELECTION_VALUE, rank=4), overlap="single"
        )
        instance, _ = gen_random(0, params)
        assert instance.family == (frozenset(range(1, 10)),)

    def test_infeasible_params_rejected(self):
        with pytest.raises(InstanceError):
            RandomParams(n=3, m=5, k=1, problem=ProblemKind(MINIMUM))

    @pytest.mark.parametrize("prob", [-0.1, 1.5, 2.0, float("nan")])
    def test_trivial_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(InstanceError):
            RandomParams(n=6, m=1, k=1, problem=ProblemKind(MINIMUM), trivial_prob=prob)

    @pytest.mark.parametrize("spec", ["random:n=abc", "random:triv=x", "fig3:k=3,c=1.5", "wlb:M="])
    def test_non_numeric_source_argument_rejected(self, spec):
        with pytest.raises(InstanceError, match="not a number"):
            resolve_source(spec)
