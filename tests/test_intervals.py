"""Core interval predicates: membership, dependency, endpoint orders."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roundquery.intervals import (
    CLOSED,
    IntervalError,
    KnowledgeState,
    OPEN,
    UncertainInterval,
    dependent,
    left_cut,
    parse_rational,
    right_cut,
)


def iv(text):
    return UncertainInterval.parse(text)


@st.composite
def rationals(draw):
    return Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 4)))


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
        assert iv("(1,3)").contains(Fraction(1)) is False

    def test_closed_endpoint_included(self):
        assert iv("[1,3]").contains(Fraction(1)) is True

    def test_trivial_is_its_value(self):
        assert iv("{3}").contains(Fraction(3)) is True
        assert iv("{3}").contains(Fraction(2)) is False

    def test_half_open(self):
        assert iv("(1,3]").contains(Fraction(3))
        assert not iv("[1,3)").contains(Fraction(3))


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


class TestKnowledgeState:
    def setup_method(self):
        self.k = KnowledgeState({1: iv("(0,4)"), 2: iv("{7}")})

    def test_reveal_and_known_value(self):
        assert self.k.known_value(1) is None
        assert self.k.known_value(2) == 7  # trivial pins its value
        self.k.reveal(1, Fraction(2))
        assert self.k.known_value(1) == 2
        assert self.k.state(1) == UncertainInterval.point(2)

    def test_reveal_outside_interval_rejected(self):
        with pytest.raises(IntervalError):
            self.k.reveal(1, Fraction(0))  # open endpoint excluded

    def test_never_reverts(self):
        self.k.reveal(1, Fraction(2))
        with pytest.raises(IntervalError):
            self.k.reveal(1, Fraction(3))

    def test_revealed_element_reads_like_a_trivial_one(self):
        k = KnowledgeState({1: iv("(0,4)"), 2: iv("{2}")})
        k.reveal(1, Fraction(2))
        assert k.state(1) == k.state(2) == UncertainInterval.point(2)
        assert k.known_value(1) == k.known_value(2) == 2
        assert left_cut(k.state(1)) == left_cut(k.state(2)) == (2, 0)
        assert right_cut(k.state(1)) == right_cut(k.state(2)) == (2, 0)
        assert k.unqueried_nontrivial([1]) == k.unqueried_nontrivial([2]) == []
        assert k.is_revealed(1) and not k.is_revealed(2)

    @given(data=st.data(), start=st.lists(intervals(), min_size=1, max_size=8))
    def test_pinned_values_follow_the_states(self, data, start):
        # known_value and unqueried_nontrivial read the pinned-value map;
        # before and after any admissible reveals it must agree with the states
        k = KnowledgeState(dict(enumerate(start, 1)))
        order = data.draw(st.permutations(list(k.ids())))

        def check():
            for e in k.ids():
                st_e = k.state(e)
                assert k.known_value(e) == (st_e.lower if st_e.trivial else None)
            assert k.unqueried_nontrivial() == [e for e in k.ids() if not k.state(e).trivial]
            some = order[::2]
            assert k.unqueried_nontrivial(some) == [e for e in some if not k.state(e).trivial]

        check()
        for eid in order[: data.draw(st.integers(0, len(order)))]:
            k.reveal(eid, data.draw(st.sampled_from(admissible_values(k.state(eid)))))
            check()
