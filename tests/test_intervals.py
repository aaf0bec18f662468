"""Core interval predicates: membership, dependency, endpoint orders."""

import copy as copy_module
import dataclasses
import itertools
import math
import pickle
import re
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import Probed, contains, left_cut, right_cut, state_of
from roundquery import intervals as intervals_module
from roundquery.algorithms import make_algorithm
from roundquery.harness import run
from roundquery.instances import SELECTION_FULL, ProblemKind, Realization, make_instance
from roundquery.oracles import FixedOracle
from roundquery.intervals import (
    CLOSED,
    CutKeys,
    IntervalError,
    KnowledgeState,
    OPEN,
    UncertainInterval,
    cut_order,
    dependent,
    interval_keys,
    parse_rational,
)


def iv(text):
    return UncertainInterval.parse(text)


# pairwise coprime, so a list holding several has a common denominator of
# up to a few hundred bits
LARGE_PRIMES = (1009, 7919, 104729, 2**31 - 1, 2**61 - 1, 2**89 - 1)


@st.composite
def rationals(draw):
    """Values in [-12, 12]: over denominators 1-4 half the time, so they tie
    often, and otherwise over a large prime, so one list mixes scales."""
    den = draw(st.one_of(st.integers(1, 4), st.sampled_from(LARGE_PRIMES)))
    return Fraction(draw(st.integers(-12 * den, 12 * den)), den)


@st.composite
def intervals(draw):
    lo = draw(rationals())
    if draw(st.booleans()) and draw(st.booleans()):
        return UncertainInterval.point(lo)
    hi = lo + Fraction(draw(st.integers(1, 16)), draw(st.integers(1, 3)))
    lk = CLOSED if draw(st.booleans()) else OPEN
    uk = CLOSED if draw(st.booleans()) else OPEN
    return UncertainInterval(lo, lk, hi, uk)


@st.composite
def states(draw):
    if draw(st.booleans()):
        return UncertainInterval.point(draw(rationals()))
    return draw(intervals())


def admissible_values(state):
    """A few values the state could still realize."""
    if state.trivial:
        return [state.value]
    out = []
    if state.lower_kind is CLOSED:
        out.append(state.lower)
    if state.upper_kind is CLOSED:
        out.append(state.upper)
    span = state.upper - state.lower
    out.extend(state.lower + span * Fraction(j, 4) for j in (1, 2, 3))
    return out


class TestContains:
    def test_open_endpoint_excluded(self):
        assert contains(iv("(1,3)"), Fraction(1)) is False

    def test_closed_endpoint_included(self):
        assert contains(iv("[1,3]"), Fraction(1)) is True

    def test_trivial_is_its_value(self):
        assert contains(iv("{3}"), Fraction(3)) is True
        assert contains(iv("{3}"), Fraction(2)) is False

    def test_half_open(self):
        assert contains(iv("(1,3]"), Fraction(3))
        assert not contains(iv("[1,3)"), Fraction(3))

    @given(lo=rationals(), width=st.integers(0, 8), nudge=st.integers(1, 5))
    def test_agrees_with_the_four_comparison_test(self, lo, width, nudge):
        """Every endpoint-kind combination (the trivial point when the width
        is 0), probed below, at, strictly between and above both endpoints."""
        for kinds in itertools.product((CLOSED, OPEN), repeat=2):
            if width == 0:
                state = UncertainInterval.point(lo)
            else:
                state = UncertainInterval(lo, kinds[0], lo + Fraction(width, 2), kinds[1])
            eps = Fraction(1, 4 * nudge)
            probes = (
                state.lower - nudge,
                state.lower - eps,
                state.lower,
                state.lower + (state.upper - state.lower) * Fraction(nudge, 6),
                state.upper,
                state.upper + eps,
                state.upper + nudge,
            )
            for v in probes:
                assert contains(state, v) is contains_by_four_comparisons(state, v), (state.text(), v)


def contains_by_four_comparisons(state, v):
    """Reference membership test: both bounds by strict comparisons, then
    an equality test at each open end."""
    if v < state.lower or v > state.upper:
        return False
    if v == state.lower and state.lower_kind is OPEN:
        return False
    if v == state.upper and state.upper_kind is OPEN:
        return False
    return True


class TestDependent:
    def test_overlapping_intervals(self):
        assert dependent(iv("[0,2]"), iv("[1,3]"))

    def test_touching_closed_endpoints_are_orderable(self):
        assert not dependent(iv("[0,1]"), iv("[1,2]"))

    def test_value_inside_open_interval(self):
        assert dependent(UncertainInterval.point(Fraction(3, 2)), iv("(1,2)"))

    def test_value_on_endpoint_is_orderable(self):
        assert not dependent(UncertainInterval.point(1), iv("[1,2]"))
        assert not dependent(UncertainInterval.point(2), iv("(1,2)"))

    def test_two_values_never_dependent(self):
        assert not dependent(UncertainInterval.point(1), UncertainInterval.point(1))

    @given(a=states(), b=states())
    def test_symmetric(self, a, b):
        assert dependent(a, b) == dependent(b, a)

    @given(a=states(), b=states())
    def test_independent_pairs_admit_a_definite_order(self, a, b):
        if dependent(a, b):
            return
        assert a.upper <= b.lower or b.upper <= a.lower
        # and the claimed order holds for every sampled pair of values
        if a.upper <= b.lower:
            assert all(x <= y for x in admissible_values(a) for y in admissible_values(b))
        else:
            assert all(y <= x for x in admissible_values(a) for y in admissible_values(b))


class TestEndpointOrders:
    def test_closed_left_before_open_left(self):
        assert left_cut(iv("[1,4]")) < left_cut(iv("(1,4)"))
        assert not left_cut(iv("(1,4)")) < left_cut(iv("[1,4]"))

    def test_open_right_before_closed_right(self):
        assert right_cut(iv("[0,2)")) < right_cut(iv("[0,2]"))
        assert not right_cut(iv("[0,2]")) < right_cut(iv("[0,2)"))

    def test_equal_endpoints_compare_equal(self):
        a, b = iv("[1,4]"), iv("[1,5]")
        assert left_cut(a) == left_cut(b)

    @given(a=states(), b=states(), c=states())
    def test_preorders_are_transitive(self, a, b, c):
        for cut in (left_cut, right_cut):
            if cut(a) <= cut(b) <= cut(c):
                assert cut(a) <= cut(c)
            if cut(a) < cut(b) < cut(c):
                assert cut(a) < cut(c)

    @given(a=states(), b=states())
    def test_strict_precedence_is_asymmetric(self, a, b):
        for cut in (left_cut, right_cut):
            assert not (cut(a) < cut(b) and cut(b) < cut(a))

    @given(data=st.data())
    def test_cut_order_is_the_tuple_sort(self, data):
        # the sorts on a knowledge state's cut keys order the ids as a sort
        # on the cut tuples does, ids ascending among ties in either direction
        drawn = data.draw(st.lists(states(), max_size=10))
        ids = data.draw(st.permutations(range(1, len(drawn) + 1)))
        k = state_of(drawn)
        sides = data.draw(
            st.lists(st.sampled_from([(left_cut, k.left_key), (right_cut, k.right_key)]), min_size=1, max_size=2)
        )
        keys = [key for _, key in sides]

        def tuple_key(e):
            return tuple(cut(k.state(e)) for cut, _ in sides)

        assert cut_order(ids, *keys) == sorted(ids, key=lambda e: (tuple_key(e), e))
        assert cut_order(ids, *keys, reverse=True) == sorted(sorted(ids), key=tuple_key, reverse=True)


class TestParsing:
    @pytest.mark.parametrize("text", ["(1,3)", "[1,3]", "(1,3]", "[1,3)", "{3}", "(-1/2,5/3]"])
    def test_text_round_trip(self, text):
        assert UncertainInterval.parse(text).text() == text

    def test_rational_forms(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert UncertainInterval.point(Fraction(4, 2)).text() == "{2}"
        with pytest.raises(IntervalError):
            parse_rational("1.5")
        with pytest.raises(IntervalError):
            parse_rational("3/0")

    def test_degenerate_open_interval_rejected(self):
        with pytest.raises(IntervalError):
            UncertainInterval(Fraction(1), OPEN, Fraction(1), OPEN)
        with pytest.raises(IntervalError):
            UncertainInterval.parse("(2,1)")


class TestConstruction:
    @pytest.mark.parametrize("lower,upper", [
        (Fraction(1, 3), Fraction(33, 100)),  # unlike denominators, 100/300 > 99/300
        (Fraction(-1, 3), Fraction(-1, 2)),
        (Fraction(-7), Fraction(-15, 2)),
    ])
    def test_lower_above_upper_refused(self, lower, upper):
        for lk, uk in itertools.product((OPEN, CLOSED), repeat=2):
            with pytest.raises(IntervalError, match=f"^lower {lower} above upper {upper}$"):
                UncertainInterval(lower, lk, upper, uk)

    def test_equal_endpoints_as_distinct_objects_are_trivial(self):
        lower, upper = Fraction(1, 2), Fraction(2, 4)
        assert lower is not upper
        state = UncertainInterval(lower, CLOSED, upper, CLOSED)
        assert state.trivial and state.value == Fraction(1, 2)
        assert state == UncertainInterval.point(Fraction(1, 2))
        assert state.text() == "{1/2}"

    @pytest.mark.parametrize("lk,uk", [(OPEN, CLOSED), (CLOSED, OPEN), (OPEN, OPEN)])
    def test_degenerate_interval_with_an_open_side_refused(self, lk, uk):
        with pytest.raises(IntervalError, match="^degenerate interval must be closed on both sides$"):
            UncertainInterval(Fraction(1, 2), lk, Fraction(2, 4), uk)

    def test_int_and_str_endpoints_become_fractions(self):
        state = UncertainInterval(1, OPEN, "7/2", CLOSED)
        assert type(state.lower) is Fraction and type(state.upper) is Fraction
        assert (state.lower, state.upper, state.trivial) == (1, Fraction(7, 2), False)
        point = UncertainInterval("-3/6", CLOSED, Fraction(-1, 2), CLOSED)
        assert type(point.lower) is Fraction and point.trivial
        with pytest.raises(IntervalError, match="^lower 4 above upper 7/2$"):
            UncertainInterval("4", OPEN, "7/2", OPEN)

    def test_point_keeps_a_fraction_and_converts_the_rest(self):
        v = Fraction(5, 3)
        state = UncertainInterval.point(v)
        assert state.lower is v and state.upper is v and state.trivial
        for raw, expected in ((3, Fraction(3)), ("-3/6", Fraction(-1, 2))):
            point = UncertainInterval.point(raw)
            assert type(point.lower) is Fraction and point.lower is point.upper
            assert point.value == expected and point.trivial

    @given(rationals(), rationals(), st.sampled_from([OPEN, CLOSED]), st.sampled_from([OPEN, CLOSED]))
    def test_refusal_and_triviality_follow_the_rational_order(self, lower, upper, lk, uk):
        closed = lk is CLOSED and uk is CLOSED
        try:
            state = UncertainInterval(lower, lk, upper, uk)
        except IntervalError:
            assert lower > upper or (lower == upper and not closed)
        else:
            assert lower < upper or (lower == upper and closed)
            assert state.trivial == (lower == upper)


def slots(state):
    """Every field of `state`, the derived ones included, in field order."""
    return tuple(getattr(state, f.name) for f in dataclasses.fields(UncertainInterval))


def reference_slots(lower, lower_kind, upper, upper_kind):
    """What the nine fields must hold, from `Fraction` comparisons and the
    `Fraction`s' own numerators and denominators, or the error to raise."""
    if not isinstance(lower, Fraction) or not isinstance(upper, Fraction):
        lower, upper = Fraction(lower), Fraction(upper)
    if lower > upper:
        raise IntervalError(f"lower {lower} above upper {upper}")
    if lower == upper and (lower_kind is not CLOSED or upper_kind is not CLOSED):
        raise IntervalError("degenerate interval must be closed on both sides")
    return (
        lower, lower_kind, upper, upper_kind, lower == upper,
        lower.numerator, lower.denominator, upper.numerator, upper.denominator,
    )


endpoints = st.one_of(rationals(), st.integers(-12, 12))
kinds = st.sampled_from([OPEN, CLOSED])


class TestOneStepConstruction:
    """`__init__` sets every slot at once and `point` without a check; both
    must build what the `Fraction` reference says, and copies, pickles and
    replacements of them must too."""

    def assert_round_trips(self, state, want):
        for copy in (dataclasses.replace(state), pickle.loads(pickle.dumps(state)), copy_module.deepcopy(state)):
            assert copy == state and hash(copy) == hash(state)
            assert slots(copy) == want and repr(copy) == repr(state)

    @given(endpoints, endpoints, kinds, kinds)
    def test_the_constructor_matches_the_fraction_reference(self, lower, upper, lk, uk):
        try:
            want = reference_slots(lower, lk, upper, uk)
        except IntervalError as refused:
            with pytest.raises(IntervalError, match=f"^{re.escape(str(refused))}$"):
                UncertainInterval(lower, lk, upper, uk)
            return
        state = UncertainInterval(lower, lk, upper, uk)
        assert slots(state) == want
        assert all(type(field) is type(expected) for field, expected in zip(slots(state), want))
        assert repr(state) == (
            f"UncertainInterval(lower={want[0]!r}, lower_kind={lk!r}, upper={want[2]!r}, upper_kind={uk!r})"
        )
        self.assert_round_trips(state, want)

    @given(endpoints, rationals(), kinds, kinds)
    def test_point_matches_the_checked_constructor(self, v, other, lk, uk):
        point, checked = UncertainInterval.point(v), UncertainInterval(v, CLOSED, v, CLOSED)
        want = reference_slots(v, CLOSED, v, CLOSED)
        assert point == checked and hash(point) == hash(checked)
        assert slots(point) == slots(checked) == want
        self.assert_round_trips(point, want)
        # a replacement goes through the checked constructor again
        change = {"lower_kind": lk, "upper_kind": uk, "upper": other}
        try:
            want = reference_slots(want[0], lk, other, uk)
        except IntervalError as refused:
            with pytest.raises(IntervalError, match=f"^{re.escape(str(refused))}$"):
                dataclasses.replace(point, **change)
        else:
            assert slots(dataclasses.replace(point, **change)) == want

    def test_a_frozen_field_stays_frozen(self):
        for state in (UncertainInterval.point(Fraction(1, 3)), UncertainInterval.open(0, 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.lower = Fraction(2)
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.trivial = False


class TestKnowledgeState:
    def setup_method(self):
        self.k = state_of([iv("(0,4)"), iv("{7}")])

    def test_reveal_and_known_value(self):
        assert self.k.known_value(1) is None
        assert self.k.known_value(2) == 7  # trivial pins its value
        self.k.reveal({1: Fraction(2)})
        assert self.k.known_value(1) == 2
        assert self.k.state(1) == UncertainInterval.point(2)

    def test_reveal_outside_interval_rejected(self):
        with pytest.raises(IntervalError):
            self.k.reveal({1: Fraction(0)})  # open endpoint excluded

    @staticmethod
    def _kept(k):
        """Everything a state keeps on its scale, and set 0's walk and
        pinned keys, each row copied, since a rescale writes the rows in
        place."""
        lefts, rights = k.cut_lists()
        keys = [(k.left_key(e), k.right_key(e)) for e in k.ids()]
        # the keys read back as cuts witness the scale
        cuts = [k.cut_of(key) for key in [*lefts, *rights]]
        return list(lefts), list(rights), keys, cuts, [*map(list, k.unpinned_rows(0))], k.pinned_keys(0)

    @pytest.mark.parametrize("value, text", [
        (Fraction(0), "0"),  # exactly on the open lower endpoint
        (Fraction(4), "4"),  # exactly on the open upper endpoint
        (Fraction(-1, 10007), "-1/10007"),  # just below, over a denominator the state has not seen
        (Fraction(40029, 10007), "40029/10007"),  # just above, likewise
    ])
    def test_refused_reveal_changes_nothing(self, value, text):
        # the kept structures exist before the refused reveal, and it must
        # leave them, their keys and the scale as they were
        k = state_of([iv("(0,4)"), iv("[1,3]"), iv("{7/2}")], [frozenset({1, 2, 3})])
        before = self._kept(k)
        with pytest.raises(IntervalError, match=rf"^value {text} outside interval \(0,4\) of element 1$"):
            k.reveal({1: value})
        assert self._kept(k) == before
        assert k.known_value(1) is None and k.state(1) == iv("(0,4)")
        k.reveal({1: Fraction(1, 10007)})  # admissible at the same new denominator
        assert k.known_value(1) == Fraction(1, 10007)
        assert [k.cut_of(key) for key in k.cut_lists()[0]] == [(Fraction(1, 10007), 0), (1, 0), (Fraction(7, 2), 0)]

    def test_refused_round_changes_nothing(self, monkeypatch):
        # the round's first value is admissible over a denominator new to
        # the state, its second is not: the whole round is refused before
        # the first is revealed or any key is rescaled
        rescales = []
        rescale = KnowledgeState._rescale
        monkeypatch.setattr(KnowledgeState, "_rescale", lambda k, grow: rescales.append(grow) or rescale(k, grow))
        k = state_of([iv("(0,4)"), iv("[1,3]"), iv("{7/2}")], [frozenset({1, 2, 3})])
        before = self._kept(k)
        with pytest.raises(IntervalError, match=r"^value 5 outside interval \[1,3\] of element 2$"):
            k.reveal({1: Fraction(1, 11), 2: Fraction(5)})
        assert self._kept(k) == before and rescales == []
        assert k.known_value(1) is None and k.state(1) == iv("(0,4)")
        # the same round with an admissible second value: two new
        # denominators, one rescale
        k.reveal({1: Fraction(1, 11), 2: Fraction(27, 13)})
        assert rescales == [143]
        assert [k.cut_of(key) for key in k.cut_lists()[0]] == [(Fraction(1, 11), 0), (Fraction(27, 13), 0), (Fraction(7, 2), 0)]
        assert [*k.unpinned_rows(0)] == []
        assert [k.cut_of(3 * key)[0] for key in k.pinned_keys(0)] == [Fraction(1, 11), Fraction(27, 13), Fraction(7, 2)]

    def test_walks_list_the_states_records(self):
        # the walk lists each unpinned member's row as the state keeps it,
        # and the pinned keys are the pinned members' value keys, through
        # reveals that move every key to a finer scale
        k = state_of([iv("(0,4)"), iv("[1,3]"), iv("{7/2}"), iv("(2,5]")], [frozenset({4, 3, 2, 1})])

        def record(e):
            left, right = k.left_key(e), k.right_key(e)
            return [left // 3, left % 3, e, -(-right // 3), -right % 3]

        for answers in ({}, {1: Fraction(1, 11)}, {4: Fraction(27, 13), 2: Fraction(3)}):
            k.reveal(answers)
            assert [*k.unpinned_rows(0)] == sorted(record(e) for e in k.ids() if not k.state(e).trivial)
            assert k.pinned_keys(0) == sorted(record(e)[0] for e in k.ids() if k.state(e).trivial)
        assert k.pinned_keys(0) == [record(e)[0] for e in (1, 4, 2, 3)]

    def test_rescale_writes_the_rows_in_place(self):
        # a reveal over a denominator new to the state multiplies both keys
        # of every row by the growth of the scale, in place: every set's
        # walk yields the same row objects, in order, each with its id and
        # openness, less the revealed element's, and the pinned keys grow
        # by the same factor, the new point's joining them
        k = state_of(
            [iv("(0,4)"), iv("[1,3]"), iv("{7/2}"), iv("(2,5]")],
            [frozenset({1, 2, 3, 4}), frozenset({2, 4}), frozenset({2, 4})],
        )
        held = [[*k.unpinned_rows(i)] for i in range(3)]
        copies = [[list(row) for row in rows] for rows in held]
        points = [k.pinned_keys(i) for i in range(3)]
        k.reveal({1: Fraction(1, 7)})
        assert k.cut_of(3)[0] == Fraction(1, 14)  # the scale grew by 7
        for i, (rows, old) in enumerate(zip(held, copies)):
            now = [*k.unpinned_rows(i)]
            kept = [(row, copy) for row, copy in zip(rows, old) if copy[2] != 1]
            assert len(now) == len(kept) and all(a is b for a, (b, _) in zip(now, kept))
            for row, copy in kept:
                assert row == [7 * copy[0], copy[1], copy[2], 7 * copy[3], copy[4]]
        assert k.pinned_keys(0) == sorted([k.left_key(1) // 3, *(7 * key for key in points[0])])
        assert k.pinned_keys(1) == k.pinned_keys(2) == points[1] == []

    def test_rescale_keeps_the_cut_lists(self):
        # a reveal over a denominator new to the state drops the cut lists,
        # and the next read builds them again from the multiplied rows: a
        # fresh sort of every state's cut keys on the new scale, the
        # revealed points' included; a reveal on the same scale then swaps
        # its point's keys into those lists
        k = state_of([iv("(0,4)"), iv("[1,3]"), iv("{7/2}"), iv("(2,5]"), iv("[1,5)")])
        k.cut_lists()
        for answers in ({1: Fraction(1, 7), 4: Fraction(5)}, {2: Fraction(15, 7)}):
            k.reveal(answers)
            assert k.cut_of(3)[0] == Fraction(1, 14)  # the scale grew by 7, once
            lefts, rights = k.cut_lists()
            assert list(lefts) == sorted(map(k.left_key, k.ids()))
            assert list(rights) == sorted(map(k.right_key, k.ids()))
            assert [k.cut_of(key) for key in lefts] == sorted(left_cut(k.state(e)) for e in k.ids())
            assert [k.cut_of(key) for key in rights] == sorted(right_cut(k.state(e)) for e in k.ids())

    def test_a_prime_denominator_selection_run_builds_its_cut_lists_once_per_scale(self, monkeypatch):
        # n=300 overlapping integer intervals, each value over a prime of
        # its own, so every round rescales: the run builds one list of each
        # kind per scale, and each round reads them as a fresh sort of
        # every state's cut keys
        made, rescales = [], []

        class Counted(CutKeys):
            def __init__(self, keys):
                super().__init__(keys)
                made.append(self)

        rescale = KnowledgeState._rescale
        monkeypatch.setattr(intervals_module, "CutKeys", Counted)
        monkeypatch.setattr(KnowledgeState, "_rescale", lambda k, grow: rescales.append(grow) or rescale(k, grow))

        def probe(knowledge, _open_sets, _picked):
            lefts, rights = knowledge.cut_lists()
            assert list(lefts) == sorted(map(knowledge.left_key, knowledge.ids()))
            assert list(rights) == sorted(map(knowledge.right_key, knowledge.ids()))

        primes = [p for p in range(11, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))][:300]
        elements = [iv(f"({j},{j + 300})") for j in range(1, 301)]
        inst = make_instance(elements, [range(1, 301)], ProblemKind(SELECTION_FULL, rank=150), 4)
        values = {j: j + (j * 7919) % 299 + Fraction(1, p) for j, p in enumerate(primes, 1)}
        _, report = run(Probed(make_algorithm("sel-full", inst), probe), inst, FixedOracle(inst, Realization(values)))
        assert len(rescales) == report.alg_rounds > 20
        assert len(made) == 2 * (1 + len(rescales))

    def test_never_reverts(self):
        self.k.reveal({1: Fraction(2)})
        with pytest.raises(IntervalError, match=r"^element 1 is already pinned$"):
            self.k.reveal({1: Fraction(3)})

    def test_a_pinned_id_refuses_the_whole_round(self):
        # element 3 is trivial from the start: the round is refused before
        # element 1's value, over a new denominator, changes anything
        k = state_of([iv("(0,4)"), iv("[1,3]"), iv("{7/2}")], [frozenset({1, 2, 3})])
        before = self._kept(k)
        with pytest.raises(IntervalError, match=r"^element 3 is already pinned$"):
            k.reveal({1: Fraction(1, 11), 3: Fraction(7, 2)})
        assert self._kept(k) == before and k.state(1) == iv("(0,4)")

    def test_revealed_element_reads_like_a_trivial_one(self):
        k = state_of([iv("(0,4)"), iv("{2}")])
        k.reveal({1: Fraction(2)})
        assert k.state(1) == k.state(2) == UncertainInterval.point(2)
        assert k.known_value(1) == k.known_value(2) == 2
        assert left_cut(k.state(1)) == left_cut(k.state(2)) == (2, 0)
        assert right_cut(k.state(1)) == right_cut(k.state(2)) == (2, 0)
        assert k.unqueried_nontrivial([1]) == k.unqueried_nontrivial([2]) == []
        for e in (1, 2):  # and neither can be revealed again
            with pytest.raises(IntervalError, match=rf"^element {e} is already pinned$"):
                k.reveal({e: Fraction(2)})

    @given(data=st.data(), start=st.lists(intervals(), min_size=1, max_size=8))
    def test_pinned_values_follow_the_states(self, data, start):
        # known_value and unqueried_nontrivial read the states' trivial
        # flags; before and after any admissible reveals they must agree
        # with the states
        k = state_of(start)
        order = data.draw(st.permutations(list(k.ids())))

        def check():
            for e in k.ids():
                st_e = k.state(e)
                assert k.known_value(e) == (st_e.lower if st_e.trivial else None)
            assert k.unqueried_nontrivial(k.ids()) == [e for e in k.ids() if not k.state(e).trivial]
            some = order[::2]
            assert k.unqueried_nontrivial(some) == [e for e in some if not k.state(e).trivial]

        check()
        unpinned = [e for e in order if not k.state(e).trivial]
        for eid in unpinned[: data.draw(st.integers(0, len(unpinned)))]:
            k.reveal({eid: data.draw(st.sampled_from(admissible_values(k.state(eid))))})
            check()


class _SmallBlocks(CutKeys):
    """Blocks of at most four keys, so a few dozen keys split and empty
    blocks often."""

    BLOCK = 2


@st.composite
def _cut_key_edits(draw):
    """Cut keys 3 * key + flag on a coarse grid, so they tie often, and a
    sequence of edits: ("replace", [(index into the current keys, new
    key), ...]) or ("rescale", grow)."""
    cut = st.builds(lambda key, flag: 3 * key + flag, st.integers(-6, 6), st.integers(-1, 1))
    start = draw(st.lists(cut, min_size=1, max_size=30))
    edit = st.one_of(
        st.tuples(st.just("replace"), st.lists(st.tuples(st.integers(0, 10**6), cut), min_size=1, max_size=4)),
        st.tuples(st.just("rescale"), st.sampled_from([2, 3, 7])),
    )
    return start, draw(st.lists(edit, max_size=40))


class TestCutKeys:
    """`CutKeys` reads as the ascending list of its keys after every edit,
    in blocks small enough to split and empty; a rescale builds the list
    again from the same cuts on a finer scale, given in any order."""

    @given(case=_cut_key_edits())
    def test_reads_as_the_sorted_list(self, case):
        start, edits = case
        kept, reference = _SmallBlocks(start), sorted(start)
        for op, arg in edits:
            if op == "replace":
                swaps = []
                for index, new in arg:
                    swaps.append((reference.pop(index % len(reference)), new))
                    insort(reference, new)
                kept.replace(swaps)
            else:
                # the cut (key, flag) keeps its flag on the finer scale
                reference = [3 * arg * key + flag - 1 for key, flag in (divmod(c + 1, 3) for c in reference)]
                kept = _SmallBlocks(reversed(reference))
            assert list(kept) == reference and len(kept) == len(reference)
            assert [kept[i] for i in range(len(kept))] == reference
            for probe in {key + step for key in reference for step in (-1, 0, 1)}:
                assert kept.bisect_left(probe) == bisect_left(reference, probe)
                assert kept.bisect_right(probe) == bisect_right(reference, probe)
        # every key is found where the blocks say it is
        kept.replace((key, key) for key in reversed(reference))
        assert list(kept) == reference

    def test_a_split_block_finds_its_keys(self):
        kept = _SmallBlocks([0, 3, 6, 9, 12, 15])  # [0, 3] [6, 9] [12, 15]
        kept.replace([(12, 4), (15, 5), (0, 7)])  # [3] [4, 5, 6, 7, 9], split into [4, 5] [6, 7, 9]
        assert list(kept) == [3, 4, 5, 6, 7, 9]
        kept.replace([(6, 6), (3, 3), (9, 9), (4, 4)])
        assert list(kept) == [3, 4, 5, 6, 7, 9]

    def test_refuses_a_missing_key_and_an_index_out_of_range(self):
        kept = _SmallBlocks([3, 3, 6, 9, 12])
        for key in (0, 4, 13):
            with pytest.raises(ValueError, match=rf"^cut key {key} is not kept$"):
                kept.replace([(key, 6)])
        assert list(kept) == [3, 3, 6, 9, 12]
        for i in (-1, 5):
            with pytest.raises(IndexError):
                kept[i]


class TestExactKeys:
    @given(data=st.data())
    def test_keys_order_and_tie_as_the_rationals(self, data):
        # negative, zero, repeated and large-prime-denominator values
        drawn = data.draw(st.lists(rationals(), max_size=12))
        repeats = data.draw(st.lists(st.sampled_from(drawn), max_size=6)) if drawn else []
        values = data.draw(st.permutations(drawn + repeats + [Fraction(0)]))
        keys = interval_keys((), values)[3]
        assert len(keys) == len(values) and all(type(key) is int for key in keys)
        for i, j in itertools.product(range(len(values)), repeat=2):
            assert (keys[i] < keys[j]) == (values[i] < values[j])
            assert (keys[i] == keys[j]) == (values[i] == values[j])

    def test_empty_list_has_no_keys(self):
        assert interval_keys((), [])[3] == []

    def test_many_distinct_prime_denominators(self):
        # 200 primes: a common denominator of about 1,700 bits, and 1/p and
        # 1/q, as close as (q - p) / (p * q), still order exactly
        primes = [p for p in range(2, 1300) if all(p % d for d in range(2, int(p**0.5) + 1))][:200]
        values = [Fraction(k * p + 1, p) for k, p in enumerate(primes)] + [Fraction(1, p) for p in primes]
        keys = interval_keys((), values)[3]
        assert sorted(range(len(values)), key=keys.__getitem__) == sorted(range(len(values)), key=values.__getitem__)

    def test_many_denominators_give_their_lcm_and_exact_keys(self):
        # 121 distinct denominators over endpoints and values, shared between
        # them, so the scale is the lcm of the lcms of groups of them
        primes = [p for p in range(3, 400) if all(p % d for d in range(2, int(p**0.5) + 1))][:60]
        drawn = [UncertainInterval(Fraction(1, p), OPEN, Fraction(2, q) + 1, CLOSED) for p, q in zip(primes, primes[1:])]
        values = [Fraction(3, 4 * p) for p in primes] + [Fraction(5, 2)]
        scale, lowers, uppers, keys = interval_keys(drawn, values, 9)
        expected = 9
        for rational in [state.lower for state in drawn] + [state.upper for state in drawn] + values:
            expected = expected * rational.denominator // math.gcd(expected, rational.denominator)
        assert scale == expected
        assert lowers == [state.lower * scale for state in drawn]
        assert uppers == [state.upper * scale for state in drawn]
        assert keys == [value * scale for value in values]

    @given(data=st.data())
    def test_endpoint_and_value_keys_order_and_tie_as_the_rationals(self, data):
        # mixed-kind intervals and points, values, and a base scale that
        # may share a factor with the denominators or bring its own prime
        drawn = data.draw(st.lists(states(), max_size=8))
        values = data.draw(st.lists(rationals(), max_size=6))
        base = data.draw(st.one_of(st.integers(1, 12), st.sampled_from(LARGE_PRIMES)))
        scale, lowers, uppers, keys = interval_keys(drawn, values, base)
        assert scale % base == 0
        assert (len(lowers), len(uppers), len(keys)) == (len(drawn), len(drawn), len(values))
        exact = [state.lower for state in drawn] + [state.upper for state in drawn] + values
        keyed = lowers + uppers + keys
        assert all(type(key) is int and key == value * scale for key, value in zip(keyed, exact))
        for i, j in itertools.product(range(len(exact)), repeat=2):
            assert (keyed[i] < keyed[j]) == (exact[i] < exact[j])
            assert (keyed[i] == keyed[j]) == (exact[i] == exact[j])
