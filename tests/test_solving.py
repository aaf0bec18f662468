"""Solvedness checkers and the exact optima, cross-validated both ways:
closed forms against subset enumeration, and the sorting branch-and-bound
against an independent power-set search written here.  The sweeps and kept
cut lists behind the sorting and selection predicates are checked against
their all-pairs and full-sort definitions, also written here."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from roundquery.intervals import (
    CLOSED,
    OPEN,
    KnowledgeState,
    UncertainInterval,
    dependent,
    left_cut,
    right_cut,
)
from roundquery.oracles import selection_full_lb_adversary, selection_value_lb_adversary
from roundquery.solving import (
    _sorting_structure,
    build_dependency_graph,
    canonical_opt,
    extract_certificate,
    forced_queries,
    instance_solved,
    minimum_scan,
    minimum_solved,
    minimum_value,
    opt1_bruteforce,
    opt1_minimum,
    opt1_selection_full,
    query_set_feasible,
    rank_cuts,
    reveal_all,
    selection_categories,
    selection_solved,
    selection_value_pinned,
    sorting_solved,
    target_area,
    verify_certificate,
)

iv = UncertainInterval.parse


def knowledge_of(intervals, revealed=()):
    k = KnowledgeState({i + 1: v for i, v in enumerate(intervals)})
    for eid, value in revealed:
        k.reveal(eid, Fraction(value))
    return k


def discarded(members, k):
    """Unpinned members the scan rules out as the set minimum."""
    _, live = minimum_scan(members, k)
    return {e for e in members if k.known_value(e) is None} - set(live)


_INSIDE = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


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
        assert minimum_value(members, k) == Fraction(5, 2)
        assert discarded(members, k) == {3}

    def test_single_unqueried_interval_unsolved(self):
        k = knowledge_of([iv("(1,3)")])
        assert not minimum_solved([1], k)

    def test_trivial_below_all_lower_endpoints(self):
        k = knowledge_of([iv("{2}"), iv("(3,4)")])
        assert minimum_solved([1, 2], k)
        assert minimum_value([1, 2], k) == 2
        assert discarded([1, 2], k) == {2}

    @given(data=st.data())
    def test_scan_matches_its_definition(self, data):
        # floor: the least pinned value; live: the unpinned members whose
        # lower endpoint lies below it, or every unpinned member without one
        k = KnowledgeState(dict(enumerate(data.draw(st.lists(_interval(), min_size=1, max_size=8)), 1)))
        ids = list(k.ids())
        for eid in data.draw(st.lists(st.sampled_from(ids), unique=True)):
            st_e = k.state(eid)
            k.reveal(eid, st_e.lower + (st_e.upper - st_e.lower) * data.draw(st.sampled_from(_INSIDE)))
        members = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        pinned = [k.state(e).lower for e in members if k.state(e).trivial]
        floor = min(pinned) if pinned else None
        live = [
            e for e in members
            if not k.state(e).trivial and (floor is None or k.state(e).lower < floor)
        ]
        assert minimum_scan(members, k) == (floor, live)
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
    tie with other intervals' endpoints."""
    if interval.trivial:
        return interval.lower
    choices = [interval.lower + (interval.upper - interval.lower) * f for f in _INSIDE]
    for end, kind in ((interval.lower, interval.lower_kind), (interval.upper, interval.upper_kind)):
        if kind is CLOSED:
            choices.append(end)
    return draw(st.sampled_from(choices))


@st.composite
def _sorting_run(draw):
    """A sorting instance on 1-3 overlapping sets, a realization, and the
    order in which some of its non-trivial elements are revealed."""
    elements = draw(st.lists(_interval(), min_size=1, max_size=10))
    ids = list(range(1, len(elements) + 1))
    family = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, unique=True), min_size=1, max_size=3))
    inst = make_instance(elements, family, ProblemKind(SORTING), 2)
    r = Realization({e: _admissible_value(draw, inst.interval(e)) for e in ids})
    order = draw(st.permutations([e for e in ids if not inst.interval(e).trivial]))
    return inst, r, order[: draw(st.integers(0, len(order)))]


def _knowledge_along(inst, r, order):
    """The knowledge state before any reveal and after each one."""
    k = inst.knowledge()
    yield k
    for eid in order:
        k.reveal(eid, r.value(eid))
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
            graph = build_dependency_graph(inst, k)
            assert graph.edges == _all_pairs_edges(inst, k)
            assert graph.vertices == tuple(sorted(k.unqueried_nontrivial(inst.ids())))

    @given(run=_sorting_run())
    def test_sorting_solved(self, run):
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            for members in inst.family:
                pairs = itertools.combinations(members, 2)
                expected = not any(dependent(k.state(a), k.state(b)) for a, b in pairs)
                assert sorting_solved(members, k) == expected

    @given(run=_sorting_run())
    def test_forced_queries(self, run):
        inst, r, order = run
        for k in _knowledge_along(inst, r, order):
            assert forced_queries(inst, k) == _all_pairs_forced(inst, k)

    @given(run=_sorting_run())
    def test_sorting_structure(self, run):
        inst, r, _ = run
        edges, forces, seeds = _sorting_structure(inst, r)
        expected = _co_set_forces(inst, r)
        assert forces == expected
        assert seeds == {b for a in inst.ids() if inst.interval(a).trivial for b in expected[a]}
        assert edges == _all_pairs_edges(inst, inst.knowledge())

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
            assert k.cut_lists() == (lefts, rights)
            assert rank_cuts(selection, k) == (lefts[rank - 1], rights[rank - 1])


class TestSelectionSolved:
    def test_middle_gadget_state_is_full_solved(self):
        inst, _ = selection_full_lb_adversary(3)
        k = inst.knowledge()
        for eid, value in [(1, 1), (2, 1), (3, Fraction(5, 2))]:
            k.reveal(eid, Fraction(value))
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
        inst, _ = selection_value_lb_adversary(i)
        k = inst.knowledge()
        for eid in range(1, i):  # i-1 of the (0,5) copies answered 1
            k.reveal(eid, Fraction(1))
        assert selection_value_pinned(inst, k) is None
        k.reveal(i, Fraction(4))
        assert selection_value_pinned(inst, k) == 3

    def test_full_variant_waits_for_containers(self):
        inst = make_instance(
            [iv("[0,4]"), iv("{2}"), iv("{2}")], [[1, 2, 3]], ProblemKind(SELECTION_FULL, rank=2), 1
        )
        k = inst.knowledge()
        # the 2nd smallest is pinned to 2 already, but [0,4] still contains it
        assert selection_value_pinned(inst, k) == 2
        assert not selection_solved(inst, k)
        k.reveal(1, Fraction(3))
        assert selection_solved(inst, k)


class TestTargetArea:
    def test_middle_gadget_initial_target(self):
        inst, _ = selection_full_lb_adversary(3)
        ta = target_area(inst, inst.knowledge())
        assert ta.text() == "[2,6]"
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
        ta = target_area(inst, inst.knowledge())
        # 2nd smallest left endpoint is the open 0 (closed 0 precedes it);
        # the open right 2 precedes the closed one, so the 2nd is closed
        assert ta.text() == "(0,2]"


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
        inst, oracle = selection_full_lb_adversary(i)
        values = {e: Fraction(1) for e in range(1, i)}
        values[i] = Fraction(5, 2)
        values.update({e: Fraction(7) for e in range(i + 1, 2 * i)})
        report = opt1_selection_full(inst, Realization(values))
        assert report.opt1 == i  # middle plus every left-side interval

    def test_middle_gadget_value_free(self):
        i = 4
        inst, _ = selection_full_lb_adversary(i)
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


def _enumerate_sorting_opt(inst, r):
    """Independent oracle: plain power-set search in cardinality order."""
    candidates = [e for e in inst.ids() if not inst.interval(e).trivial]
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if query_set_feasible(inst, r, combo):
                return frozenset(combo)
    raise AssertionError("no feasible set")


class TestOptSorting:
    def test_fig1d_pair_prefers_the_first_id(self):
        # two intersecting intervals realized outside the overlap on both
        # sides: either single query decides, the lexicographic rule picks 1
        inst = make_instance(
            [iv("[0,2]"), iv("[1,3]")], [[1, 2]], ProblemKind(SORTING), 1
        )
        r = Realization({1: Fraction(1, 2), 2: Fraction(5, 2)})
        report = opt1_bruteforce(inst, r)
        assert report.opt1 == 1 and report.opt_set == {1}

    def test_fig1c_needs_both(self):
        inst = make_instance(
            [iv("[0,2]"), iv("[1,3]")], [[1, 2]], ProblemKind(SORTING), 1
        )
        r = Realization({1: Fraction(8, 5), 2: Fraction(7, 5)})
        assert opt1_bruteforce(inst, r).opt1 == 2

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
        assert opt1_bruteforce(inst, r).opt_set == _enumerate_sorting_opt(inst, r)

    @pytest.mark.parametrize("seed", range(10))
    def test_certificate_verifies_after_querying_the_optimum(self, seed):
        params = RandomParams(n=8, m=2, k=2, problem=ProblemKind(SORTING), overlap="overlap")
        inst, r = gen_random(seed, params)
        report = canonical_opt(inst, r)
        knowledge = reveal_all(inst, r, report.opt_set)
        assert instance_solved(inst, knowledge)
        cert = extract_certificate(inst, knowledge)
        verify_certificate(inst, knowledge, cert, r)
