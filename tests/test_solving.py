"""Solvedness checkers and the exact optima, cross-validated both ways:
closed forms and the sorting optimum (its mandatory set plus a residual
cover) against the subset search of `opt1_bruteforce`.  The sweeps, kept
cut lists and kept per-set views behind the predicates are checked
against their all-pairs, full-sort and full-scan definitions, also
written here, and the kept views against a state built after the fact."""

import itertools
import random
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import left_cut, matching_cover, pairwise_interval_cover, right_cut
from roundquery.algorithms import interval_cover, make_algorithm
from roundquery.harness import resolve_source, run
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
from roundquery.intervals import (
    CLOSED,
    OPEN,
    KnowledgeState,
    UncertainInterval,
    dependent,
)
from roundquery.oracles import FixedOracle, SelectionFullLbAdversary, SelectionValueLbAdversary
from roundquery.solving import (
    BruteForceCapError,
    SolutionCertificate,
    build_dependency_graph,
    canonical_opt,
    exact_cover,
    extract_certificate,
    forced_queries,
    greedy_matching_cover,
    instance_solved,
    minimum_scan,
    minimum_solved,
    opt1_bruteforce,
    opt1_minimum,
    opt1_selection_full,
    opt1_selection_value,
    query_set_feasible,
    rank_cut_keys,
    reveal_all,
    selection_categories,
    selection_solved,
    selection_value_pinned,
    sorting_residual,
    sorting_solved,
    truth_record,
    verify_certificate,
)

iv = UncertainInterval.parse


def _rank_cuts(inst, k):
    """The rank cut keys read back as (value, flag) cuts."""
    return tuple(map(k.cut_of, rank_cut_keys(inst, k)))


def knowledge_of(intervals, revealed=()):
    k = KnowledgeState({i + 1: v for i, v in enumerate(intervals)})
    for eid, value in revealed:
        k.reveal({eid: Fraction(value)})
    return k


def discarded(members, k):
    """Unpinned members the scan rules out as the set minimum."""
    return {e for e in members if k.known_value(e) is None} - set(minimum_scan(members, k))


def _defined_scan(members, k):
    """`minimum_scan` by its definition.  floor: the least pinned value;
    live: the unpinned members whose lower endpoint lies below it, or every
    unpinned member without one, in left order."""
    pinned = [k.state(e).lower for e in members if k.state(e).trivial]
    floor = min(pinned) if pinned else None
    live = sorted(
        (e for e in members if not k.state(e).trivial and (floor is None or k.state(e).lower < floor)),
        key=lambda e: (left_cut(k.state(e)), e),
    )
    return floor, live


def _all_pairs_sorted(members, k):
    """`sorting_solved` by its definition: no dependent pair in the set."""
    return not any(dependent(k.state(a), k.state(b)) for a, b in itertools.combinations(members, 2))


_INSIDE = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
# fractions of a span over denominators that no drawn endpoint has, so a
# reveal moves every key the knowledge state keeps to a finer scale
_FRESH = (Fraction(2, 7), Fraction(5000, 10007), Fraction(2**60, 2**61 - 1))


@st.composite
def _interval(draw):
    """Mixed endpoint kinds on a coarse grid, so values and endpoints tie
    often; a quarter of them trivial."""
    lo = Fraction(draw(st.integers(0, 8)), 2)
    if draw(st.integers(0, 3)) == 0:
        return UncertainInterval.point(lo)
    hi = lo + Fraction(draw(st.integers(1, 6)), 2)
    kinds = [draw(st.sampled_from([OPEN, CLOSED])) for _ in range(2)]
    return UncertainInterval(lo, kinds[0], hi, kinds[1])


class TestMinimumSolved:
    def test_two_known_values_discard_the_tail(self):
        k = knowledge_of([iv("(1,3)"), iv("(2,4)"), iv("(5,6)")], [(1, "5/2"), (2, "7/2")])
        members = [1, 2, 3]
        assert minimum_solved(members, k)
        assert discarded(members, k) == {3}

    def test_single_unqueried_interval_unsolved(self):
        k = knowledge_of([iv("(1,3)")])
        assert not minimum_solved([1], k)

    def test_trivial_below_all_lower_endpoints(self):
        k = knowledge_of([iv("{2}"), iv("(3,4)")])
        assert minimum_solved([1, 2], k)
        assert discarded([1, 2], k) == {2}

    @given(data=st.data())
    def test_scan_matches_its_definition(self, data):
        k = KnowledgeState(dict(enumerate(data.draw(st.lists(_interval(), min_size=1, max_size=8)), 1)))
        ids = list(k.ids())
        for eid in data.draw(st.lists(st.sampled_from(ids), unique=True)):
            st_e = k.state(eid)
            if not st_e.trivial:  # a point is pinned from the start
                k.reveal({eid: st_e.lower + (st_e.upper - st_e.lower) * data.draw(st.sampled_from(_INSIDE))})
        members = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        floor, live = _defined_scan(members, k)
        assert minimum_scan(members, k) == live
        assert minimum_solved(members, k) == (floor is not None and not live)

    def test_brute_force_agrees_it_is_solved(self):
        # same first example, checked by enumerating admissible completions:
        # every completion keeps 5/2 as the minimum of the set
        base = [Fraction(5, 2), Fraction(7, 2)]
        for tail in (Fraction(21, 4), Fraction(23, 4)):
            assert min(base + [tail]) == Fraction(5, 2)


class TestSortingSolved:
    def test_both_queried_intersecting_pair(self):
        k = knowledge_of([iv("[0,2]"), iv("[1,3]")], [(1, "8/5"), (2, "7/5")])
        assert sorting_solved([1, 2], k)

    def test_unqueried_intersecting_pair(self):
        k = knowledge_of([iv("[0,2]"), iv("[1,3]")])
        assert not sorting_solved([1, 2], k)

    def test_all_trivial_set(self):
        k = knowledge_of([iv("{1}"), iv("{1}"), iv("{5}")])
        assert sorting_solved([1, 2, 3], k)


def _admissible_value(draw, interval):
    """A value inside the interval, often a closed endpoint, so that values
    tie with other intervals' endpoints, and often over a denominator new
    to the instance."""
    if interval.trivial:
        return interval.lower
    choices = [interval.lower + (interval.upper - interval.lower) * f for f in _INSIDE + _FRESH]
    for end, kind in ((interval.lower, interval.lower_kind), (interval.upper, interval.upper_kind)):
        if kind is CLOSED:
            choices.append(end)
    return draw(st.sampled_from(choices))


@st.composite
def _sorting_run(draw, max_n=10):
    """A sorting instance on 1-3 overlapping sets, a realization, and the
    order in which some of its non-trivial elements are revealed.

    Half the time one non-trivial element is shared by the first set and
    another.  A point at its middle joins the first set, so the element is
    mandatory through that set.  A new partner that overlaps it joins the
    other set: closed at the element's value on one side, so that value
    does not fall strictly inside it, and valued at its far end outside
    the element."""
    elements = draw(st.lists(_interval(), min_size=1, max_size=max_n))
    ids = list(range(1, len(elements) + 1))
    family = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, unique=True), min_size=1, max_size=3))
    values = {}
    wide = [e for e in ids if not elements[e - 1].trivial]
    if wide and draw(st.booleans()):
        shared = draw(st.sampled_from(wide))
        lo, hi = elements[shared - 1].lower, elements[shared - 1].upper
        v = values[shared] = _admissible_value(draw, elements[shared - 1])
        partner = UncertainInterval.closed(v, hi + 1) if v < hi else UncertainInterval.closed(lo - 1, v)
        elements += [UncertainInterval.point((lo + hi) / 2), partner]
        point, partner = len(elements) - 1, len(elements)
        values[partner] = hi + 1 if v < hi else lo - 1
        if len(family) == 1:
            family.append(draw(st.lists(st.sampled_from(ids), unique=True)))
        other = draw(st.integers(1, len(family) - 1))
        family[0] = [e for e in family[0] if e != shared] + [shared, point]
        family[other] = [e for e in family[other] if e != shared] + [shared, partner]
        ids += [point, partner]
    inst = make_instance(elements, family, ProblemKind(SORTING), 2)
    r = Realization({e: values[e] if e in values else _admissible_value(draw, inst.interval(e)) for e in ids})
    order = draw(st.permutations([e for e in ids if not inst.interval(e).trivial]))
    return inst, r, order[: draw(st.integers(0, len(order)))]


def _knowledge_along(inst, r, order):
    """The knowledge state before any reveal and after each one."""
    k = inst.knowledge()
    yield k
    for eid in order:
        k.reveal({eid: r.value(eid)})
        yield k


def _all_pairs_edges(inst, k):
    live = set(k.unqueried_nontrivial(inst.ids()))
    return tuple(sorted({
        (a, b)
        for members in inst.family
        for a, b in itertools.combinations(sorted(members), 2)
        if a in live and b in live and dependent(k.state(a), k.state(b))
    }))


def _all_pairs_forced(inst, k):
    forced = set()
    for members in inst.family:
        points = [k.known_value(e) for e in members if k.known_value(e) is not None]
        forced |= {
            e for e in members
            if k.known_value(e) is None and any(k.state(e).strict_interior(p) for p in points)
        }
    return sorted(forced)


def _co_set_forces(inst, r):
    """forces[a]: the co-set intervals that a's value falls strictly inside."""
    co_set = {e: set() for e in inst.ids()}
    for members in inst.family:
        for a, b in itertools.combinations(members, 2):
            co_set[a].add(b)
            co_set[b].add(a)
    return {
        a: frozenset(b for b in co_set[a] if inst.interval(b).strict_interior(r.value(a)))
        for a in inst.ids()
    }


class TestSweepsMatchAllPairs:
    @given(run=_sorting_run())
    def test_dependency_edges(self, run):
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            assert build_dependency_graph(inst, k) == _all_pairs_edges(inst, k)

    @given(run=_sorting_run())
    def test_sorting_solved(self, run):
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            for members in inst.family:
                assert sorting_solved(members, k) == _all_pairs_sorted(members, k)

    @given(run=_sorting_run())
    def test_forced_queries(self, run):
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            assert forced_queries(inst, k) == _all_pairs_forced(inst, k)

    @given(run=_sorting_run())
    def test_greedy_matching(self, run):
        # the sweep's matching picks what the pass over the sorted edges picks
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            assert greedy_matching_cover(inst, k) == matching_cover(build_dependency_graph(inst, k))

    @given(run=_sorting_run())
    def test_interval_cover(self, run):
        # the cut-key greedy on the first set alone picks what the pairwise one picks
        inst, r, order = run
        single = make_instance(inst.elements, inst.family[:1], inst.problem, inst.k)
        for k in _knowledge_along(single, r, order):
            assert interval_cover(single, k) == pairwise_interval_cover(single, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_matching_on_larger_runs(self, seed):
        inst, r = gen_random(seed, RandomParams(
            n=60, m=3, k=2, problem=ProblemKind(SORTING), overlap="overlap", trivial_prob=0.3
        ))
        order = random.Random(seed).sample([e for e in inst.ids() if not inst.interval(e).trivial], 30)
        for step, k in enumerate(_knowledge_along(inst, r, order)):
            if step % 4 == 0:
                assert greedy_matching_cover(inst, k) == matching_cover(build_dependency_graph(inst, k))

    @given(run=_sorting_run())
    def test_sorting_structure(self, run):
        # M: the intervals some co-set value falls strictly inside; R: the
        # untouched instance's dependent pairs with neither end in M
        inst, r, _ = run
        mandatory, residual = sorting_residual(inst, r)
        assert mandatory == {b for forced in _co_set_forces(inst, r).values() for b in forced}
        edges = _all_pairs_edges(inst, inst.knowledge())
        assert residual == tuple(e for e in edges if mandatory.isdisjoint(e))

    @given(run=_sorting_run(), data=st.data())
    def test_kept_cut_lists(self, run, data):
        # the lists are built at some point of the reveal sequence and must
        # then follow every later reveal
        inst, r, order = run
        built_at = data.draw(st.integers(0, len(order)))
        rank = data.draw(st.integers(1, inst.n))
        selection = make_instance(inst.elements, [inst.ids()], ProblemKind(SELECTION_FULL, rank=rank), 2)
        for step, k in enumerate(_knowledge_along(inst, r, order)):
            if step < built_at:
                continue
            states = [k.state(e) for e in inst.ids()]
            lefts, rights = sorted(map(left_cut, states)), sorted(map(right_cut, states))
            kept = k.cut_lists()
            assert all(type(key) is int for keys in kept for key in keys)
            assert tuple(list(map(k.cut_of, keys)) for keys in kept) == (lefts, rights)
            assert _rank_cuts(selection, k) == (lefts[rank - 1], rights[rank - 1])

    @given(run=_sorting_run())
    def test_certificate_orders(self, run):
        # the certificate's stable single-key sorts against the tuple sort
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            def key(e):
                return (right_cut(k.state(e)), left_cut(k.state(e)), e)

            expected = tuple(tuple(sorted(members, key=key)) for members in inst.family)
            assert extract_certificate(inst, k).orders == expected


def _defined_minima(inst, k):
    """Per set, (holder, value) of its least pinned value, the lowest id
    holding it; None if some set has no pinned value."""
    minima = []
    for members in inst.family:
        pinned = [(k.known_value(e), e) for e in members if k.known_value(e) is not None]
        if not pinned:
            return None
        v, holder = min(pinned)
        minima.append((holder, v))
    return tuple(minima)


@st.composite
def _viewed_run(draw):
    """A sorting run on 1-3 overlapping sets plus a copy of one of them, and
    the index of one set that the per-set predicates get as a list."""
    inst, r, order = draw(_sorting_run())
    twin = draw(st.sampled_from(inst.family))
    inst = make_instance(inst.elements, [*map(sorted, inst.family), sorted(twin)], inst.problem, inst.k)
    return inst, r, order, draw(st.integers(0, inst.m - 1))


class TestKeptViews:
    """The views a state keeps across reveals answer as a state built after
    the same reveals does, and as the definitions do."""

    @staticmethod
    def _answers(inst, k, as_list):
        per_set = []
        for idx, members in enumerate(inst.family):
            arg = sorted(members) if idx == as_list else members
            per_set.append((minimum_scan(arg, k), minimum_solved(arg, k), sorting_solved(arg, k)))
        try:
            minima = extract_certificate(replace(inst, problem=ProblemKind(MINIMUM)), k).minima
        except InstanceError as exc:
            assert "no pinned value; nothing to certify" in str(exc)
            minima = None
        return per_set, forced_queries(inst, k), build_dependency_graph(inst, k), minima

    @staticmethod
    def _definitions(inst, k):
        per_set = []
        for members in inst.family:
            floor, live = _defined_scan(members, k)
            per_set.append((live, floor is not None and not live, _all_pairs_sorted(members, k)))
        return per_set, _all_pairs_forced(inst, k), _all_pairs_edges(inst, k), _defined_minima(inst, k)

    @given(run=_viewed_run(), data=st.data())
    def test_views_follow_the_reveals(self, run, data):
        # `early` is asked before the first reveal and after every one;
        # `late` first at a drawn step, so its views are built between the
        # reveals or after the last; `fresh` is rebuilt at every step
        inst, r, order, as_list = run
        late_from = data.draw(st.integers(0, len(order)))
        early, late = inst.knowledge(), inst.knowledge()
        for step in range(len(order) + 1):
            if step:
                eid = order[step - 1]
                early.reveal({eid: r.value(eid)})
                late.reveal({eid: r.value(eid)})
            fresh = inst.knowledge()
            for eid in order[:step]:
                fresh.reveal({eid: r.value(eid)})
            expected = self._definitions(inst, fresh)
            assert self._answers(inst, fresh, as_list) == expected
            assert self._answers(inst, early, as_list) == expected
            if step >= late_from:
                assert self._answers(inst, late, as_list) == expected


class TestRescale:
    """Reveals over denominators that the state has not seen move every
    kept key to a finer scale; what the state then answers equals what a
    state built afresh from the same states answers."""

    # open intervals with integer endpoints, so the minimum kind accepts them
    ELEMENTS = [iv("(0,10)"), iv("(1,5)"), iv("(2,8)"), iv("(4,12)"), iv("(6,9)"), iv("(3,7)"), iv("{5}"), iv("(0,4)")]
    FAMILY = [[1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 8]]
    # one new denominator per reveal: 2, 3, 7, then the prime 10007
    REVEALS = [(1, Fraction(7, 2)), (2, Fraction(10, 3)), (3, Fraction(36, 7)), (4, Fraction(50000, 10007))]

    @staticmethod
    def _certificate(inst, k):
        try:
            return extract_certificate(inst, k)
        except InstanceError as exc:
            return str(exc)

    def _answers(self, k):
        n = len(self.ELEMENTS)
        kinds = [ProblemKind(SORTING), ProblemKind(MINIMUM)]
        kinds += [ProblemKind(kind, rank=i) for kind in (SELECTION_VALUE, SELECTION_FULL) for i in range(1, n + 1)]
        sets = make_instance(self.ELEMENTS, self.FAMILY, ProblemKind(SORTING), 2)
        per_set = [(minimum_scan(members, k), sorting_solved(members, k)) for members in self.FAMILY]
        ranks = []
        certificates = []
        for kind in kinds:
            family = self.FAMILY if kind.kind in (SORTING, MINIMUM) else [range(1, n + 1)]
            inst = make_instance(self.ELEMENTS, family, kind, 2)
            if kind.is_selection:
                ranks.append(_rank_cuts(inst, k))
            certificates.append(self._certificate(inst, k))
        return per_set, forced_queries(sets, k), build_dependency_graph(sets, k), ranks, certificates

    def test_rescaled_state_answers_as_a_fresh_one(self):
        k = KnowledgeState(dict(enumerate(self.ELEMENTS, 1)))
        for step in range(len(self.REVEALS) + 1):
            if step:
                k.reveal(dict([self.REVEALS[step - 1]]))
            # every kept structure is built before the first reveal, so each
            # later reveal rescales the views as well and drops the cut
            # lists, which the next answers build again
            fresh = KnowledgeState({e: k.state(e) for e in k.ids()})
            assert self._answers(k) == self._answers(fresh)

    def test_a_round_rescales_at_most_once(self, monkeypatch):
        # every value of the sorting run below has a denominator new to the
        # state, a different prime each, yet each round rescales at most once
        rescales = []
        rescale = KnowledgeState._rescale
        monkeypatch.setattr(KnowledgeState, "_rescale", lambda k, grow: rescales.append(grow) or rescale(k, grow))
        primes = [11, 13, 17, 19, 23, 29, 31, 37]
        elements = [iv(f"({2 * e},{2 * e + 3})") for e in range(8)]
        inst = make_instance(elements, [range(1, 9)], ProblemKind(SORTING), 3)
        values = {e + 1: 2 * e + 1 + Fraction(1, p) for e, p in enumerate(primes)}
        trace, _ = run(make_algorithm("sorting-matching", inst), inst, FixedOracle(inst, Realization(values)))
        assert len(trace.rounds) < sum(map(len, (ids for ids, _ in trace.rounds)))
        assert 0 < len(rescales) <= len(trace.rounds)

    def test_answers_stay_fractions(self):
        # the rest revealed too, so every selection rank is pinned
        reveals = self.REVEALS + [(5, Fraction(15, 2)), (6, Fraction(9, 2)), (8, Fraction(1))]
        k = KnowledgeState(dict(enumerate(self.ELEMENTS, 1)))
        self._answers(k)
        for eid, value in reveals:
            k.reveal({eid: value})
        _, _, _, ranks, certificates = self._answers(k)
        for eid, value in reveals:
            assert type(k.known_value(eid)) is Fraction and k.known_value(eid) == value
        assert all(type(cut[0]) is Fraction for pair in ranks for cut in pair)
        assert ranks[4] == ((Fraction(50000, 10007), 0), (Fraction(50000, 10007), 0))  # the 5th smallest
        minima = certificates[1].minima
        assert minima == ((2, Fraction(10, 3)), (8, Fraction(1)))
        assert all(type(v) is Fraction for _, v in minima)
        values = [cert.value for cert in certificates[2:]]
        assert all(type(v) is Fraction for v in values)
        assert values[4] == values[4 + len(self.ELEMENTS)] == Fraction(50000, 10007)


class TestMinimumCertificate:
    def test_unsolved_set_is_refused(self):
        inst, _ = gen_random(1, RandomParams(
            n=6, m=2, k=2, problem=ProblemKind(MINIMUM), overlap="disjoint", trivial_prob=0,
        ))
        with pytest.raises(InstanceError, match=r"^set 1: no pinned value; nothing to certify$"):
            extract_certificate(inst, inst.knowledge())

    def test_least_value_held_by_the_lowest_id(self):
        inst = make_instance(
            [iv("(0,4)"), iv("{1}"), iv("(0,3)"), iv("(2,5)")], [[1, 2, 3], [3, 4]], ProblemKind(MINIMUM), 2
        )
        k = inst.knowledge()
        k.reveal({3: Fraction(1)})
        k.reveal({4: Fraction(3)})
        assert extract_certificate(inst, k).minima == ((2, Fraction(1)), (3, Fraction(1)))

    # S1 = {1, 2, 3}, S2 = {4}; element 4 is the point {1}
    TAMPER_INSTANCE = ([iv("(0,4)"), iv("(2,6)"), iv("(5,9)"), iv("{1}")], [[1, 2, 3], [4]])

    @pytest.mark.parametrize(
        "revealed,claim,message",
        [
            # the holder's known value equals the claim, but it is not in S1
            ([(1, 1), (2, 5)], (4, Fraction(1)), "claimed minimum is not a known value of the set"),
            # the holder is in S1, but its known value is not the claim
            ([(1, 1), (2, 5)], (2, Fraction(1)), "claimed minimum is not a known value of the set"),
            # the holder is in S1 and its lower endpoint is the claim, but it is unqueried
            ([(1, 1), (2, 5)], (3, Fraction(5)), "claimed minimum is not a known value of the set"),
            # 1 is known at 1, below the claim; 3's lower endpoint 5 is not
            ([(1, 1), (2, 5)], (2, Fraction(5)), "a known value undercuts the claimed minimum"),
            # 1 is unqueried and its lower endpoint 0 is below the claim
            ([(2, 5)], (2, Fraction(5)), "an unqueried element could undercut the claimed minimum"),
        ],
        ids=[
            "holder-outside-the-set", "holder-value-differs", "holder-unqueried", "known-value-below",
            "unqueried-lower-below",
        ],
    )
    def test_tampered_certificate_is_refused(self, revealed, claim, message):
        elements, family = self.TAMPER_INSTANCE
        inst = make_instance(elements, family, ProblemKind(MINIMUM), 1)
        knowledge = knowledge_of(elements, revealed)
        cert = replace(extract_certificate(inst, knowledge), minima=(claim, (4, Fraction(1))))
        with pytest.raises(InstanceError, match=f"^{message}$"):
            verify_certificate(inst, knowledge, cert)

    def test_a_claim_for_each_set(self):
        # S1 is solved by 1's value, S2 and S3 are not; one claim, for S1,
        # leaves the other two unchecked, and so does a claim too many
        elements = [iv("(0,4)"), iv("(2,6)"), iv("(0,4)"), iv("(1,5)")]
        inst = make_instance(elements, [[1, 2], [3, 4], [2, 4]], ProblemKind(MINIMUM), 1)
        knowledge = knowledge_of(elements, [(1, 1)])
        for minima in ([(1, Fraction(1))], [(1, Fraction(1))] * 4):
            cert = SolutionCertificate(MINIMUM, minima=tuple(minima))
            message = f"^minimum certificate set count {len(minima)} is not the instance's 3$"
            with pytest.raises(InstanceError, match=message):
                verify_certificate(inst, knowledge, cert)

    def test_untampered_certificate_verifies(self):
        elements, family = self.TAMPER_INSTANCE
        inst = make_instance(elements, family, ProblemKind(MINIMUM), 1)
        knowledge = knowledge_of(elements, [(1, 1), (2, 5)])
        cert = extract_certificate(inst, knowledge)
        assert cert.minima == ((1, Fraction(1)), (4, Fraction(1)))
        verify_certificate(inst, knowledge, cert, Realization({1: Fraction(1), 2: Fraction(5), 3: Fraction(6), 4: Fraction(1)}))


class TestSelectionCertificate:
    """The knowledge-side checks of a selection certificate, which key the
    states themselves rather than read the state's kept cut lists."""

    @staticmethod
    def _pinned_at_two(lower_kind):
        # the 2nd smallest value is pinned to 2 by the two points; the
        # interval from 2 to 4 contains 2 only if its lower end is closed
        elements = [UncertainInterval(Fraction(2), lower_kind, Fraction(4), OPEN), iv("{2}"), iv("{2}")]
        return make_instance(elements, [[1, 2, 3]], ProblemKind(SELECTION_FULL, rank=2), 1)

    def test_open_endpoint_at_the_value_is_no_container(self):
        inst = self._pinned_at_two(OPEN)
        k = inst.knowledge()
        cert = extract_certificate(inst, k)
        assert cert.value == 2 and cert.equal_ids == {2, 3}
        verify_certificate(inst, k, cert)

    def test_closed_endpoint_at_the_value_is_a_container(self):
        inst = self._pinned_at_two(CLOSED)
        k = inst.knowledge()
        with pytest.raises(InstanceError, match="^an unqueried interval still contains the selection value$"):
            verify_certificate(inst, k, extract_certificate(inst, k))

    @pytest.mark.parametrize("kind", [SELECTION_FULL, SELECTION_VALUE])
    @pytest.mark.parametrize("claim", [Fraction(5, 2), Fraction(3), None])
    def test_claim_other_than_the_pinned_value(self, kind, claim):
        elements = [iv("[0,1]"), iv("[2,3]"), iv("[4,5]")]
        inst = make_instance(elements, [[1, 2, 3]], ProblemKind(kind, rank=2), 1)
        k = knowledge_of(elements, [(2, Fraction(5, 2))])
        cert = extract_certificate(inst, k)
        verify_certificate(inst, k, cert)
        if claim != cert.value:
            with pytest.raises(InstanceError, match="^selection value is not pinned to the claimed value$"):
                verify_certificate(inst, k, replace(cert, value=claim))
        # checked against the state before the reveal, nothing is pinned
        with pytest.raises(InstanceError, match="^selection value is not pinned to the claimed value$"):
            verify_certificate(inst, inst.knowledge(), cert)

    @pytest.mark.parametrize("kind", [SELECTION_FULL, SELECTION_VALUE])
    def test_a_point_at_the_left_rank_cut_alone_pins_nothing(self, kind):
        # the 2nd smallest left cut is the point 2, the 2nd smallest right
        # cut the 5 of [1,5]: the 2nd value may lie anywhere in [2,5]
        inst = make_instance([iv("[1,5]"), iv("{2}")], [[1, 2]], ProblemKind(kind, rank=2), 1)
        cert = SolutionCertificate(kind, value=Fraction(2), equal_ids=frozenset({2}))
        with pytest.raises(InstanceError, match="^selection value is not pinned to the claimed value$"):
            verify_certificate(inst, inst.knowledge(), cert)

    def test_equal_ids_must_match_the_points(self):
        inst = self._pinned_at_two(OPEN)
        k = inst.knowledge()
        cert = extract_certificate(inst, k)
        with pytest.raises(InstanceError, match="^claimed equal-value elements do not match knowledge$"):
            verify_certificate(inst, k, replace(cert, equal_ids=frozenset({2})))


class TestSortingCertificate:
    """The knowledge-side checks of a sorting certificate: each claimed
    order a before b holds iff a's upper endpoint is at or below b's lower
    one, whatever the kinds of the two endpoints that touch."""

    @staticmethod
    def _two(first, second):
        elements = [iv(first), iv(second)]
        return make_instance(elements, [[1, 2]], ProblemKind(SORTING), 1), knowledge_of(elements)

    @pytest.mark.parametrize("first, second", [("[0,2]", "(2,4)"), ("{2}", "[2,3]")])
    def test_touching_endpoints_prove_the_order(self, first, second):
        inst, k = self._two(first, second)
        verify_certificate(inst, k, SolutionCertificate(SORTING, orders=((1, 2),)))
        with pytest.raises(InstanceError, match="^order of 2 before 1 is not provable$"):
            verify_certificate(inst, k, SolutionCertificate(SORTING, orders=((2, 1),)))

    @pytest.mark.parametrize("first, second", [("(1,3)", "{2}"), ("[0,2]", "(1,4)")])
    def test_overlap_proves_no_order(self, first, second):
        inst, k = self._two(first, second)
        with pytest.raises(InstanceError, match="^order of 1 before 2 is not provable$"):
            verify_certificate(inst, k, SolutionCertificate(SORTING, orders=((1, 2),)))

    @given(a=_interval(), b=_interval(), scale=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 7)]))
    def test_provable_iff_upper_at_most_lower(self, a, b, scale):
        # the states' endpoints scaled by a drawn factor, so the keys are
        # taken over denominators other than the grid's
        a, b = (UncertainInterval(s.lower * scale, s.lower_kind, s.upper * scale, s.upper_kind) for s in (a, b))
        inst, k = self._two(a.text(), b.text())
        cert = SolutionCertificate(SORTING, orders=((1, 2),))
        if a.upper <= b.lower:
            verify_certificate(inst, k, cert)
        else:
            with pytest.raises(InstanceError, match="^order of 1 before 2 is not provable$"):
                verify_certificate(inst, k, cert)

    @pytest.mark.parametrize("order", [(1,), (1, 1), (2, 1, 3), ()])
    def test_order_must_be_a_permutation_of_the_set(self, order):
        inst, k = self._two("[0,1]", "[2,3]")
        with pytest.raises(InstanceError, match="^sorting certificate is not a permutation of the set$"):
            verify_certificate(inst, k, SolutionCertificate(SORTING, orders=(order,)))

    @pytest.mark.parametrize("orders", [((3,),), ((3,), (1, 2), (1, 2))])
    def test_an_order_for_each_set(self, orders):
        # S2's intervals [0,2] and [1,3] overlap, so S2 is unsorted; an
        # order for S1 alone leaves it unchecked
        elements = [iv("[0,2]"), iv("[1,3]"), iv("[5,6]")]
        inst = make_instance(elements, [[3], [1, 2]], ProblemKind(SORTING), 1)
        message = f"^sorting certificate set count {len(orders)} is not the instance's 2$"
        with pytest.raises(InstanceError, match=message):
            verify_certificate(inst, knowledge_of(elements), SolutionCertificate(SORTING, orders=orders))

    @pytest.mark.parametrize("kind", [MINIMUM, SELECTION_FULL, SELECTION_VALUE])
    def test_certificate_of_another_kind_is_refused(self, kind):
        inst, k = self._two("[0,1]", "[2,3]")
        with pytest.raises(InstanceError, match="^certificate problem kind mismatch$"):
            verify_certificate(inst, k, SolutionCertificate(kind))


class TestSelectionSolved:
    def test_middle_gadget_state_is_full_solved(self):
        inst = SelectionFullLbAdversary(3).instance
        k = inst.knowledge()
        for eid, value in [(1, 1), (2, 1), (3, Fraction(5, 2))]:
            k.reveal({eid: Fraction(value)})
        assert selection_value_pinned(inst, k) == Fraction(5, 2)
        assert selection_solved(inst, k)

    def test_all_trivial_solved_with_zero_queries(self):
        inst = make_instance(
            [iv("{1}"), iv("{2}"), iv("{3}")], [[1, 2, 3]], ProblemKind(SELECTION_VALUE, rank=2), 1
        )
        assert selection_solved(inst, inst.knowledge())
        assert selection_value_pinned(inst, inst.knowledge()) == 2

    def test_value_variant_needs_the_last_wide_interval(self):
        i = 3
        inst = SelectionValueLbAdversary(i).instance
        k = inst.knowledge()
        for eid in range(1, i):  # i-1 of the (0,5) copies answered 1
            k.reveal({eid: Fraction(1)})
        assert selection_value_pinned(inst, k) is None
        k.reveal({i: Fraction(4)})
        assert selection_value_pinned(inst, k) == 3

    def test_full_variant_waits_for_containers(self):
        inst = make_instance(
            [iv("[0,4]"), iv("{2}"), iv("{2}")], [[1, 2, 3]], ProblemKind(SELECTION_FULL, rank=2), 1
        )
        k = inst.knowledge()
        # the 2nd smallest is pinned to 2 already, but [0,4] still contains it
        assert selection_value_pinned(inst, k) == 2
        assert not selection_solved(inst, k)
        k.reveal({1: Fraction(3)})
        assert selection_solved(inst, k)


class TestTargetArea:
    # the target area spans the rank cuts; a flag of 0 is a closed end
    def test_middle_gadget_initial_target(self):
        inst = SelectionFullLbAdversary(3).instance
        assert _rank_cuts(inst, inst.knowledge()) == ((2, 0), (6, 0))
        view = selection_categories(inst, inst.knowledge())
        assert view.containing == (3,)
        assert view.a == 1 and view.b == 0
        assert set(view.left_overlap) == {1, 2}
        assert set(view.right_overlap) == {4, 5}

    def test_open_endpoint_orders_shape_the_target(self):
        inst = make_instance(
            [iv("(0,2)"), iv("[0,2]"), iv("(1,3]")],
            [[1, 2, 3]],
            ProblemKind(SELECTION_FULL, rank=2),
            1,
        )
        # 2nd smallest left endpoint is the open 0 (closed 0 precedes it);
        # the open right 2 precedes the closed one, so the 2nd is closed
        assert _rank_cuts(inst, inst.knowledge()) == ((0, 1), (2, 0))


class TestOptMinimum:
    def test_fig2(self):
        inst, r = gen_fig2_bal_instance()
        report = opt1_minimum(inst, r)
        assert report.opt1 == 11 and report.opt_k == 3 and report.method == "closed-form"

    def test_fig3_chain(self):
        inst, r = gen_fig3_overlap_instance()
        assert opt1_minimum(inst, r).opt_set == {1, 4, 7}

    def test_single_trivial_element(self):
        inst = make_instance([iv("{3}")], [[1]], ProblemKind(MINIMUM), 1)
        report = opt1_minimum(inst, Realization({1: Fraction(3)}))
        assert report.opt1 == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        params = RandomParams(
            n=4 + seed % 8,
            m=1 + seed % 3,
            k=2,
            problem=ProblemKind(MINIMUM),
            overlap="overlap" if seed % 2 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        closed = opt1_minimum(inst, r)
        brute = opt1_bruteforce(inst, r)
        assert closed.opt_set == brute.opt_set
        assert closed.opt1 == brute.opt1

    @pytest.mark.parametrize("seed", range(20))
    def test_feasible_minimal_and_prefix(self, seed):
        params = RandomParams(n=10, m=3, k=3, problem=ProblemKind(MINIMUM), overlap="disjoint")
        inst, r = gen_random(seed, params)
        report = opt1_minimum(inst, r)
        assert query_set_feasible(inst, r, report.opt_set)
        for eid in report.opt_set:
            assert not query_set_feasible(inst, r, report.opt_set - {eid})
        # per set, the optimum is a prefix in left-endpoint order
        for members in inst.family:
            ordered = sorted(
                (e for e in members if not inst.interval(e).trivial),
                key=lambda e: (inst.interval(e).lower, e),
            )
            flags = [e in report.opt_set for e in ordered]
            assert flags == sorted(flags, reverse=True)


class TestOptSelectionFull:
    def test_middle_gadget_pinned_low(self):
        i = 4
        oracle = SelectionFullLbAdversary(i)
        inst = oracle.instance
        values = {e: Fraction(1) for e in range(1, i)}
        values[i] = Fraction(5, 2)
        values.update({e: Fraction(7) for e in range(i + 1, 2 * i)})
        report = opt1_selection_full(inst, Realization(values))
        assert report.opt1 == i  # middle plus every left-side interval

    def test_middle_gadget_value_free(self):
        i = 4
        inst = SelectionFullLbAdversary(i).instance
        values = {e: Fraction(1) for e in range(1, i)}
        values[i] = Fraction(4)
        values.update({e: Fraction(7) for e in range(i + 1, 2 * i)})
        report = opt1_selection_full(inst, Realization(values))
        assert report.opt1 == 1 and report.opt_set == {i}

    def test_all_trivial(self):
        inst = make_instance(
            [iv("{1}"), iv("{2}")], [[1, 2]], ProblemKind(SELECTION_FULL, rank=1), 1
        )
        report = opt1_selection_full(inst, Realization({1: Fraction(1), 2: Fraction(2)}))
        assert report.opt1 == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        params = RandomParams(
            n=4 + seed % 7,
            m=1,
            k=2,
            problem=ProblemKind(SELECTION_FULL, rank=1 + seed % 4),
            overlap="single",
        )
        inst, r = gen_random(seed, params)
        if inst.problem.rank > inst.n:
            return
        closed = opt1_selection_full(inst, r)
        brute = opt1_bruteforce(inst, r)
        assert closed.opt_set == brute.opt_set


_TIE_GRID = [Fraction(h, 2) for h in range(-2, 3)]


@st.composite
def _tied_selection(draw):
    """A value-selection instance on half-integer endpoints around 0 whose
    values are endpoints (open ones excluded), 0 or midpoints, so many
    elements tie at the selected value and sit on its endpoints."""
    elements, values = [], {}
    for eid in range(1, draw(st.integers(1, 8)) + 1):
        lo = draw(st.sampled_from(_TIE_GRID))
        hi = draw(st.sampled_from([g for g in _TIE_GRID if g >= lo]))
        if lo == hi:
            interval = UncertainInterval.point(lo)
        else:
            kinds = [draw(st.sampled_from([OPEN, CLOSED])) for _ in range(2)]
            interval = UncertainInterval(lo, kinds[0], hi, kinds[1])
        elements.append(interval)
        choices = [v for v in (lo, hi, Fraction(0), (lo + hi) / 2) if interval.contains(v)]
        values[eid] = draw(st.sampled_from(choices))
    rank = draw(st.integers(1, len(elements)))
    inst = make_instance(elements, [range(1, len(elements) + 1)], ProblemKind(SELECTION_VALUE, rank=rank), 2)
    return inst, Realization(values)


class TestOptSelectionValue:
    def test_open_upper_at_the_value_is_settled(self):
        # v* = 1: (0,1) lies below it and {1} at it, so the second value is
        # pinned before any query
        inst = make_instance(
            [iv("(0,1)"), iv("{1}"), iv("[1,2]")], [[1, 2, 3]], ProblemKind(SELECTION_VALUE, rank=2), 1
        )
        r = Realization({1: Fraction(1, 2), 2: Fraction(1), 3: Fraction(3, 2)})
        report = opt1_selection_value(inst, r)
        assert report.opt1 == 0 and report.method == "closed-form"

    def test_one_tied_query_serves_both_sides(self):
        # v* = 1 for i = 2: the wide interval's value 1 both leaves the
        # elements below v* and joins those at most v*
        inst = make_instance(
            [iv("[0,2]"), iv("{0}"), iv("(1,3]")], [[1, 2, 3]], ProblemKind(SELECTION_VALUE, rank=2), 1
        )
        r = Realization({1: Fraction(1), 2: Fraction(0), 3: Fraction(2)})
        report = opt1_selection_value(inst, r)
        assert report.opt_set == {1} == opt1_bruteforce(inst, r).opt_set

    @pytest.mark.parametrize("trivial_prob", [0, 0.3])
    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_brute_force(self, n, trivial_prob):
        for rank in sorted({1, (n + 1) // 2, n}):
            params = RandomParams(
                n=n,
                m=1,
                k=2,
                problem=ProblemKind(SELECTION_VALUE, rank=rank),
                overlap="single",
                trivial_prob=trivial_prob,
            )
            for seed in range(25):
                inst, r = gen_random(seed, params)
                closed = opt1_selection_value(inst, r)
                brute = opt1_bruteforce(inst, r)
                assert closed.opt_set == brute.opt_set
                assert closed.opt1 == brute.opt1

    @given(case=_tied_selection())
    def test_ties_and_endpoints_match_brute_force(self, case):
        inst, r = case
        closed = opt1_selection_value(inst, r)
        assert closed.opt_set == opt1_bruteforce(inst, r).opt_set
        assert canonical_opt(inst, r) == closed


_PAIRS = list(itertools.combinations(range(1, 10), 2))


class TestExactCover:
    @given(edges=st.lists(st.sampled_from(_PAIRS), unique=True, max_size=16))
    def test_lexicographic_order_finds_the_first_minimum(self, edges):
        # the first cover of the least size in combinations order is the
        # lexicographically smallest minimum; the default order finds some
        # minimum
        edges = sorted(edges)

        def covers(c):
            return all(a in c or b in c for a, b in edges)

        first = next(
            frozenset(c)
            for size in range(10)
            for c in itertools.combinations(range(1, 10), size)
            if covers(c)
        )
        assert exact_cover(edges, lexicographic=True) == first
        cover = exact_cover(edges)
        assert covers(cover) and len(cover) == len(first)


class TestOptSorting:
    def test_fig1d_pair_prefers_the_first_id(self):
        # two intersecting intervals realized outside the overlap on both
        # sides: either single query decides, the lexicographic rule picks 1
        inst = make_instance(
            [iv("[0,2]"), iv("[1,3]")], [[1, 2]], ProblemKind(SORTING), 1
        )
        r = Realization({1: Fraction(1, 2), 2: Fraction(5, 2)})
        report = canonical_opt(inst, r)
        assert report.opt1 == 1 and report.opt_set == {1} and report.method == "branch-and-bound"

    def test_fig1c_needs_both(self):
        inst = make_instance(
            [iv("[0,2]"), iv("[1,3]")], [[1, 2]], ProblemKind(SORTING), 1
        )
        r = Realization({1: Fraction(8, 5), 2: Fraction(7, 5)})
        assert canonical_opt(inst, r).opt1 == 2

    @pytest.mark.parametrize("seed", range(30))
    def test_branch_and_bound_equals_enumeration(self, seed):
        params = RandomParams(
            n=4 + seed % 6,
            m=1 + seed % 3,
            k=2,
            problem=ProblemKind(SORTING),
            overlap="overlap" if seed % 3 else "disjoint",
        )
        inst, r = gen_random(seed, params)
        assert canonical_opt(inst, r).opt_set == opt1_bruteforce(inst, r).opt_set

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_residual_optimum_equals_per_component_search(self, seed):
        # narrow intervals (n=400, m=4, lower endpoints in [0, 1200), widths
        # 1..8) leave a residual R of many components, bigger than the
        # subset search reaches; the union of the components' smallest
        # minimum covers, found by enumeration, is R's smallest minimum
        rng = random.Random(seed)
        elements, values = [], {}
        for eid in range(1, 401):
            lo = rng.randrange(1200)
            hi = lo + rng.randint(1, 8)
            elements.append(UncertainInterval.open(Fraction(lo), Fraction(hi)))
            values[eid] = lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
        ids = list(range(1, 401))
        rng.shuffle(ids)
        inst = make_instance(elements, [ids[i::4] for i in range(4)], ProblemKind(SORTING), 4)
        r = Realization(values)
        mandatory, edges = sorting_residual(inst, r)
        neighbours = defaultdict(set)
        for a, b in edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        assert len(neighbours) >= 12
        expected, seen = set(mandatory), set()
        for v in sorted(neighbours):
            if v in seen:
                continue
            component, todo = set(), [v]
            while todo:
                u = todo.pop()
                if u not in component:
                    component.add(u)
                    todo.extend(neighbours[u])
            seen |= component
            inner = [(a, b) for a, b in edges if a in component]
            expected |= next(
                set(c)
                for size in range(len(component) + 1)
                for c in itertools.combinations(sorted(component), size)
                if all(a in c or b in c for a, b in inner)
            )
        report = canonical_opt(inst, r, cap=len(neighbours))
        assert report.opt_set == expected and report.method == "branch-and-bound"

    @given(run=_sorting_run(max_n=8))
    def test_optimum_equals_subset_search(self, run):
        inst, r, _ = run
        report, brute = canonical_opt(inst, r), opt1_bruteforce(inst, r)
        assert (report.opt_set, report.opt1, report.opt_k) == (brute.opt_set, brute.opt1, brute.opt_k)

    @given(run=_sorting_run())
    def test_every_feasible_set_holds_the_mandatory_set(self, run):
        inst, r, _ = run
        mandatory, _ = sorting_residual(inst, r)
        candidates = [e for e in inst.ids() if not inst.interval(e).trivial]
        for size in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, size):
                if query_set_feasible(inst, r, combo):
                    assert mandatory <= set(combo)

    def test_mandatory_through_another_set_leaves_the_residual(self):
        # 1 is mandatory through set 1, whose point 2 lies inside it, but
        # not through set 2, where it is dependent with 3
        elements = [iv("[0,4]"), iv("{2}"), iv("[3,6]"), iv("[5,7]")]
        inst = make_instance(elements, [[1, 2], [1, 3, 4]], ProblemKind(SORTING), 2)
        r = Realization({1: Fraction(1), 2: Fraction(2), 3: Fraction(9, 2), 4: Fraction(13, 2)})
        assert build_dependency_graph(inst, inst.knowledge()) == ((1, 3), (3, 4))
        assert sorting_residual(inst, r) == ({1}, ((3, 4),))
        assert canonical_opt(inst, r).opt_set == {1, 3}

    def test_residual_builds_no_knowledge_state(self, monkeypatch):
        inst, r = gen_random(7, RandomParams(
            n=40, m=3, k=2, problem=ProblemKind(SORTING), overlap="overlap", trivial_prob=0.3
        ))
        expected = sorting_residual(inst, r)
        assert expected[1]  # a residual with edges, so the sweep runs

        def refuse(self, intervals):
            raise AssertionError("a KnowledgeState was built")

        monkeypatch.setattr(KnowledgeState, "__init__", refuse)
        assert sorting_residual(inst, r) == expected
        with pytest.raises(AssertionError, match="^a KnowledgeState was built$"):
            inst.knowledge()

    def test_large_instance_under_the_default_cap(self):
        # |M| is in the hundreds and R is small, so the default cap holds
        inst, oracle = resolve_source("random:problem=sorting,n=2000,m=3,k=8,overlap=overlap", 0)
        r = oracle.check_finalize()
        report = canonical_opt(inst, r)
        assert report.method == "branch-and-bound"
        assert query_set_feasible(inst, r, report.opt_set)

    def test_cap_bounds_the_residual(self):
        inst, oracle = resolve_source("random:problem=sorting,n=8,m=1,overlap=single", 2)
        r = oracle.check_finalize()
        assert sorting_residual(inst, r) == ({2, 3, 4}, ((5, 8),))
        assert canonical_opt(inst, r, cap=2).opt_set == {2, 3, 4, 5}
        with pytest.raises(BruteForceCapError, match="^sorting residual of 2 vertices above cap 1$"):
            canonical_opt(inst, r, cap=1)

    @pytest.mark.parametrize("seed", range(10))
    def test_certificate_verifies_after_querying_the_optimum(self, seed):
        params = RandomParams(n=8, m=2, k=2, problem=ProblemKind(SORTING), overlap="overlap")
        inst, r = gen_random(seed, params)
        report = canonical_opt(inst, r)
        knowledge = reveal_all(inst, r, report.opt_set)
        assert instance_solved(inst, knowledge)
        cert = extract_certificate(inst, knowledge)
        verify_certificate(inst, knowledge, cert, r)


def _random_case(kind, seed):
    """A random instance of `kind` with n 4-40 and its realization."""
    n = 4 + seed % 37
    selection = kind in (SELECTION_FULL, SELECTION_VALUE)
    params = RandomParams(
        n=n,
        m=1 if selection else 1 + seed % 5,
        k=1 + seed % 4,
        problem=ProblemKind(kind, rank=1 + (7 * seed) % n if selection else None),
        overlap=("overlap", "disjoint")[seed % 2],
        trivial_prob=(0.0, 0.15, 0.5)[seed % 3],
    )
    return gen_random(seed, params)


_ALL_KINDS = (MINIMUM, SORTING, SELECTION_FULL, SELECTION_VALUE)


class TestTruthRecord:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", _ALL_KINDS)
    def test_record_equals_a_naive_recomputation(self, kind, seed):
        inst, r = _random_case(kind, seed)
        record = truth_record(inst, r)
        assert record.realization is r and truth_record(inst, record) is record
        naive_minima = tuple(min(r.value(e) for e in members) for members in inst.family)
        assert record.minima == (naive_minima if kind is MINIMUM else ())
        if inst.problem.is_selection:
            assert record.rank_value == sorted(r.value(e) for e in inst.ids())[inst.problem.rank - 1]
        else:
            assert record.rank_value is None

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", _ALL_KINDS)
    def test_optimum_is_the_same_from_a_prebuilt_record(self, kind, seed):
        inst, r = _random_case(kind, seed)
        assert canonical_opt(inst, truth_record(inst, r)) == canonical_opt(inst, r)

    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_minimum_contradicted_by_the_realization(self, prebuilt):
        inst = make_instance([iv("(0,4)"), iv("(2,6)")], [[1, 2]], ProblemKind(MINIMUM), 1)
        knowledge = knowledge_of(inst.elements, [(1, 1)])
        cert = extract_certificate(inst, knowledge)
        good, bad = Realization({1: Fraction(1), 2: Fraction(5)}), Realization({1: Fraction(3), 2: Fraction(5)})
        if prebuilt:
            good, bad = truth_record(inst, good), truth_record(inst, bad)
        verify_certificate(inst, knowledge, cert, good)
        with pytest.raises(InstanceError, match="^claimed minimum contradicts the realization$"):
            verify_certificate(inst, knowledge, cert, bad)

    @pytest.mark.parametrize("prebuilt", [False, True])
    @pytest.mark.parametrize("kind", [SELECTION_FULL, SELECTION_VALUE])
    def test_selection_value_contradicted_by_the_realization(self, kind, prebuilt):
        elements = [iv("[0,1]"), iv("[2,3]"), iv("[4,5]")]
        inst = make_instance(elements, [[1, 2, 3]], ProblemKind(kind, rank=2), 1)
        knowledge = knowledge_of(elements, [(2, Fraction(5, 2))])
        cert = extract_certificate(inst, knowledge)
        good = Realization({1: Fraction(1, 2), 2: Fraction(5, 2), 3: Fraction(9, 2)})
        bad = Realization({1: Fraction(1, 2), 2: Fraction(2), 3: Fraction(9, 2)})
        if prebuilt:
            good, bad = truth_record(inst, good), truth_record(inst, bad)
        verify_certificate(inst, knowledge, cert, good)
        with pytest.raises(InstanceError, match="^selection value contradicts the realization$"):
            verify_certificate(inst, knowledge, cert, bad)

    # the realizations below that contradict a certificate also contradict
    # the knowledge it was extracted from: no admissible one can

    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_sorting_order_contradicted_by_the_realization(self, prebuilt):
        inst = make_instance([iv("[0,2]"), iv("(2,4)")], [[1, 2]], ProblemKind(SORTING), 1)
        knowledge = inst.knowledge()
        cert = extract_certificate(inst, knowledge)
        assert cert.orders == ((1, 2),)
        good, bad = Realization({1: Fraction(2), 2: Fraction(3)}), Realization({1: Fraction(3), 2: Fraction(1)})
        if prebuilt:
            good, bad = truth_record(inst, good), truth_record(inst, bad)
        verify_certificate(inst, knowledge, cert, good)
        with pytest.raises(InstanceError, match="^order of 1 before 2 contradicts the realization$"):
            verify_certificate(inst, knowledge, cert, bad)

    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_equal_ids_contradicted_by_the_realization(self, prebuilt):
        elements = [iv("[0,1]"), iv("[2,3]"), iv("[4,5]")]
        inst = make_instance(elements, [[1, 2, 3]], ProblemKind(SELECTION_FULL, rank=2), 1)
        knowledge = knowledge_of(elements, [(2, Fraction(5, 2))])
        cert = extract_certificate(inst, knowledge)
        assert cert.equal_ids == {2}
        good = Realization({1: Fraction(1, 2), 2: Fraction(5, 2), 3: Fraction(9, 2)})
        # the true 2nd value is still 5/2, but element 3 holds it too
        bad = Realization({1: Fraction(1, 2), 2: Fraction(5, 2), 3: Fraction(5, 2)})
        if prebuilt:
            good, bad = truth_record(inst, good), truth_record(inst, bad)
        verify_certificate(inst, knowledge, cert, good)
        with pytest.raises(InstanceError, match="^equal-value elements contradict the realization$"):
            verify_certificate(inst, knowledge, cert, bad)
