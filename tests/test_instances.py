"""Instance model: file format, validation, and the fixed generators."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roundquery.cli import main
from roundquery.harness import resolve_source
from roundquery.instances import (
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
    parse_instance,
    serialize_instance,
)
from roundquery.intervals import CLOSED, OPEN, IntervalError, UncertainInterval, parse_rational
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
        knowledge = instance.knowledge()
        for eid in sorted(deep)[:4]:
            knowledge.reveal(eid, realization.value(eid))
        assert not minimum_solved(deep, knowledge)
        knowledge.reveal(sorted(deep)[4], realization.value(sorted(deep)[4]))
        assert minimum_solved(deep, knowledge)


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
    return iv, draw(st.sampled_from([v for v in (lo, value, hi) if iv.contains(v)]))


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
            assert instance.interval(eid).contains(realization.value(eid))

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
