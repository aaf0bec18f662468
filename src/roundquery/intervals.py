"""Exact interval primitives: endpoint kinds, membership, dependency, endpoint orders.

Everything here is computed over arbitrary-precision rationals
(`fractions.Fraction`).  Open-endpoint comparisons at equal values are
semantic, so no float ever enters the core: a value sitting exactly on an
open endpoint must compare as strictly outside.  Orders, though, are taken
on exact integer keys: a value's key is the value times a common
denominator L of the values compared, so keys order and tie exactly as the
rationals do, at the cost of an int comparison rather than a `Fraction`
one.  `exact_keys` keys one list of values (the audits key what they
compare this way); a `KnowledgeState` keeps one L and the keys of all its
states across reveals, so the run loop compares ints throughout.  A cut
(v, flag), an endpoint with its openness, is keyed as 3 * key + flag.

An element's knowledge state has one shape, an `UncertainInterval`: its
original interval until queried, then the closed point {v} of the
revealed value v.  The predicates in this module therefore never ask
which of the two an element is, and nothing records it: an element is
pinned exactly when its state is a point.  Whether a state is a point is
stored once, as `UncertainInterval.trivial`, when the interval is built,
so the hot predicates read a flag instead of comparing two `Fraction`s.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$", re.ASCII)


class IntervalError(ValueError):
    """Malformed interval, rational, or knowledge update."""


def scaled_keys(values: Iterable[Fraction]) -> Tuple[int, List[int]]:
    """The scale L of `exact_keys(values)` and the keys themselves."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(den for _, den in ratios))
    return scale, [num * (scale // den) for num, den in ratios]


def exact_keys(values: Iterable[Fraction]) -> List[int]:
    """Integer keys that order and tie exactly as the rationals `values`.

    Each value is multiplied by L, the least common multiple of all the
    denominators, so key i is `v.numerator * (L // v.denominator)`: an
    integer, no rounding.  Keys of one call compare with each other only.
    The keys grow with L.  The worst case is many distinct prime
    denominators: for 3,000 of them the keys have about 39k bits, and
    keying plus sorting took 0.09 s against 0.02 s for sorting the
    `Fraction`s (CPython 3.11, 2-vCPU VM); over denominators 1-8 the same
    took 0.002 s against 0.026 s.  Slower in that case, but bounded, and
    exact on every input, so there is no second path.
    """
    return scaled_keys(values)[1]


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` (den > 0) into an exact rational."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise IntervalError(f"not a rational: {text!r}")
    return Fraction(text)


class EndpointKind(Enum):
    OPEN = "open"
    CLOSED = "closed"


OPEN = EndpointKind.OPEN
CLOSED = EndpointKind.CLOSED


@dataclass(frozen=True, slots=True)
class UncertainInterval:
    """An interval with independently open or closed endpoints.

    Valid shapes: lower < upper with any endpoint kinds, or the trivial
    interval {v} (lower = upper, both endpoints closed).  `trivial` is
    derived from the bounds at construction and takes no part in equality.
    """

    lower: Fraction
    lower_kind: EndpointKind
    upper: Fraction
    upper_kind: EndpointKind
    trivial: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.lower, Fraction) or not isinstance(self.upper, Fraction):
            object.__setattr__(self, "lower", Fraction(self.lower))
            object.__setattr__(self, "upper", Fraction(self.upper))
        (ln, ld), (un, ud) = self.lower.as_integer_ratio(), self.upper.as_integer_ratio()
        gap = un * ld - ln * ud  # one integer cross-multiplication decides order and equality
        if gap < 0:
            raise IntervalError(f"lower {self.lower} above upper {self.upper}")
        if gap == 0 and (self.lower_kind is not CLOSED or self.upper_kind is not CLOSED):
            raise IntervalError("degenerate interval must be closed on both sides")
        object.__setattr__(self, "trivial", gap == 0)

    @staticmethod
    def open(a, b) -> "UncertainInterval":
        return UncertainInterval(Fraction(a), OPEN, Fraction(b), OPEN)

    @staticmethod
    def closed(a, b) -> "UncertainInterval":
        return UncertainInterval(Fraction(a), CLOSED, Fraction(b), CLOSED)

    @staticmethod
    def point(v) -> "UncertainInterval":
        """The trivial interval {v}; a `Fraction` is kept as it is, any other
        value is converted."""
        v = v if type(v) is Fraction else Fraction(v)
        return UncertainInterval(v, CLOSED, v, CLOSED)

    @property
    def value(self) -> Fraction:
        if not self.trivial:
            raise IntervalError("value is only defined for trivial intervals")
        return self.lower

    def contains(self, v: Fraction) -> bool:
        """Membership respecting endpoint openness: one comparison per
        endpoint, weak at a closed one and strict at an open one."""
        return self.contains_keyed(self.lower, self.upper, v)

    def contains_keyed(self, lower, upper, v) -> bool:
        """`contains` on `lower`, `upper` and `v` taken in any one exact
        order of this interval's endpoints and the value, such as their
        `exact_keys`; the endpoint kinds are this interval's."""
        if not (lower <= v if self.lower_kind is CLOSED else lower < v):
            return False
        return v <= upper if self.upper_kind is CLOSED else v < upper

    def strict_interior(self, v: Fraction) -> bool:
        return self.lower < v < self.upper

    def text(self) -> str:
        if self.trivial:
            return "{%s}" % self.lower
        lb = "[" if self.lower_kind is CLOSED else "("
        ub = "]" if self.upper_kind is CLOSED else ")"
        return f"{lb}{self.lower},{self.upper}{ub}"

    @staticmethod
    def parse(text: str) -> "UncertainInterval":
        text = text.strip()
        if text.startswith("{") and text.endswith("}"):
            return UncertainInterval.point(parse_rational(text[1:-1]))
        if len(text) < 5 or text[0] not in "([" or text[-1] not in ")]":
            raise IntervalError(f"malformed interval: {text!r}")
        body = text[1:-1].split(",")
        if len(body) != 2:
            raise IntervalError(f"malformed interval: {text!r}")
        lo, hi = (parse_rational(part) for part in body)
        return UncertainInterval(
            lo,
            CLOSED if text[0] == "[" else OPEN,
            hi,
            CLOSED if text[-1] == "]" else OPEN,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.text()


# A cut encodes an endpoint's position on the real line including its
# openness: (v, 0) is the point v itself, (v, +1) sits just above v and
# (v, -1) just below, so tuple comparison orders endpoints correctly; a
# left cut's flag is 0 or +1, a right cut's 0 or -1.  Its cut key,
# 3 * key + flag with key the exact key of v, orders the same way: keys
# differ by at least 1 and flags lie in -1..1.
Cut = Tuple[Fraction, int]


def cut_keys(state: UncertainInterval, lower: int, upper: int) -> Tuple[int, int]:
    """The cut keys of `state`'s left and right cuts, given the exact keys
    of its lower and upper endpoints."""
    return 3 * lower + (state.lower_kind is OPEN), 3 * upper - (state.upper_kind is OPEN)


def cut_order(ids: Iterable[int], *keys: Callable[[int], int], reverse: bool = False) -> List[int]:
    """The ids ordered by integer cut keys, such as a `KnowledgeState`'s
    `left_key` and `right_key`, the first key deciding, ids ascending among
    ties; `reverse` orders every key descending instead.

    The ids are sorted ascending and then stably by each key, the last key
    first, so no tuple is built and no `Fraction` is compared.
    """
    order = sorted(ids)
    for key in reversed(keys):
        order.sort(key=key, reverse=reverse)
    return order


def dependent(a: UncertainInterval, b: UncertainInterval) -> bool:
    """True iff the relative order of the two values cannot be deduced.

    Holds when the two intervals overlap in more than one point, or when
    one state is a point strictly interior to the other interval.
    Two points are never dependent: ties can be ordered either way.
    """
    if a.trivial:
        return b.strict_interior(a.lower)
    if b.trivial:
        return a.strict_interior(b.lower)
    return max(a.lower, b.lower) < min(a.upper, b.upper)


# A key record (lower, lower_open, id, upper, upper_open): an element's
# endpoint keys on a state's scale, each with its openness as 0 or 1, a
# point's record being (key, 0, id, key, 0).  The first two fields order
# records as the left cuts (3 * lower + lower_open is the left cut key),
# and the id both breaks their ties, so records sort in (left cut, id)
# order, and makes each record distinct, so a bisection finds one exact
# record and never compares the upper fields.
KeyRecord = Tuple[int, int, int, int, int]


@dataclass(frozen=True, slots=True)
class SetView:
    """One member set as a `KnowledgeState` keeps it: the state's own key
    records of its members, ascending, that is in (left cut, id) order,
    split into `unpinned`, the members not yet pinned, and `pinned`, whose
    records (key, 0, id, key, 0) ascend by value, then id."""

    unpinned: List[KeyRecord]
    pinned: List[KeyRecord]


class KnowledgeState:
    """Per-element view: the original interval, or the point {v} once
    the query revealed v.

    This is the whole of an algorithm's information.  Once revealed, an
    element never reverts, and the value must lie inside the original
    interval (strictly inside open endpoints).  Mutated only by the
    single-threaded run loop of a trial, one round's answers at a time.

    An element is pinned when its state is a point, trivial from the start
    or revealed, and `reveal` refuses it then; `known_value` reads the
    point's value off the state, and only certificate extraction asks for it.

    Everything else it keeps is on exact integer keys, all on one scale L,
    the least common multiple of every denominator the state has seen:
    each element's key record (lower, lower_open, id, upper, upper_open),
    built once here, holds the keys of its current state's endpoints with
    their openness as 0 or 1, a point's record being (key, 0, id, key, 0),
    and its left and right cut keys are read off it.  A value's key
    is the value times L, so keys order and tie as the rationals do, and
    nothing below compares a `Fraction`.  `reveal` takes a whole round's
    answers and keys their values; when a denominator does not divide L,
    it first multiplies every key record by L'/L, L' the lcm of L and all
    the round's denominators, so one scale holds throughout: every set
    view re-points its two lists at the new records, and the cut lists
    are dropped.  Each rescale costs one pass over the records and the
    views, and a round pays at most one.  That is rare: counted per run
    of `harness.run` over seeds 0-19 (0-4 at n >= 400), random minimum
    (single, overlapping, disjoint, n=20 and n=800) needed at most 2,
    mean 0.75-1.2; random sorting (n=16, n=400) at most 2, mean 1.2-1.45; random selection-full (n=20, n=1000) at most
    2, mean 1.0-1.15; random selection-value at most 2, mean 1.0; fig2,
    fig1-pairs, wlb, additive and selfull-lb exactly 1; fig3 and selval-lb
    none.  The worst case is a new prime denominator in every value: on
    3,000 intervals with integer endpoints and each value over a prime of
    its own, sorting-matching took 25 s and sel-full 1.9 s, against 7.0 s
    and 0.9 s when the kept lists held `Fraction`s, and 75 s and 7.8 s
    with one rescale per value (CPython 3.11, 2-vCPU VM).  Slower there,
    but exact, so there is no second path.

    It keeps the cut lists: the cut keys (3 * key + flag) of the left cuts
    and of the right cuts of all states, each in ascending order.  They
    are built on a `cut_lists` call and from then on kept sorted by
    `reveal`, which swaps the revealed element's two cut keys for those of
    its point by bisection, so the i-th cut of either kind is an index read.
    A rescale drops them, and the next `cut_lists` call builds them again
    from the new records: only selection reads them, and a run rescales at
    most about twice.

    And it keeps a `SetView` of every member set that `set_view` is asked
    about: the key records of the set's members, the very tuples the state
    holds, in (left cut, id) order, the unpinned ones in one list and the
    pinned ones in another.  `reveal` moves the element from the first
    list to the second in every view that holds it, its old record found
    and its point's record placed by bisection, so the minimum and sorting
    predicates read each set in left order, endpoint keys included,
    without sorting it.  Nothing here outlives the state: a fresh one
    builds its own views.

    What it answers in rationals: `state`, `known_value`, and `cut_of`,
    the cut that a cut key stands for.
    """

    def __init__(self, intervals: Dict[int, UncertainInterval]):
        self._states: Dict[int, UncertainInterval] = dict(intervals)
        self._scale, ends = scaled_keys(v for st in self._states.values() for v in (st.lower, st.upper))
        self._keys: Dict[int, KeyRecord] = {
            eid: (lower, st.lower_kind is OPEN, eid, upper, st.upper_kind is OPEN)
            for (eid, st), lower, upper in zip(self._states.items(), ends[::2], ends[1::2])
        }
        self._cuts: Optional[Tuple[List[int], List[int]]] = None
        self._views: Dict[FrozenSet[int], SetView] = {}
        self._viewed: Dict[int, List[SetView]] = {}  # unpinned id -> the views holding it

    def ids(self) -> Iterable[int]:
        return self._states.keys()

    def state(self, eid: int) -> UncertainInterval:
        return self._states[eid]

    def known_value(self, eid: int) -> Optional[Fraction]:
        """Exact value if pinned (revealed, or trivial from the start)."""
        state = self._states[eid]
        return state.lower if state.trivial else None

    def left_key(self, eid: int) -> int:
        """The cut key of the left cut of eid's current state."""
        record = self._keys[eid]
        return 3 * record[0] + record[1]

    def right_key(self, eid: int) -> int:
        """The cut key of the right cut of eid's current state."""
        record = self._keys[eid]
        return 3 * record[3] - record[4]

    def cut_of(self, key: int) -> Cut:
        """The cut (value, flag) that the cut key `key` stands for."""
        v, flag = divmod(key + 1, 3)
        return Fraction(v, self._scale), flag - 1

    def reveal(self, answers: Dict[int, Fraction]) -> None:
        """Pin each id of `answers` at its value: one round's answers.

        Every id is checked to be unpinned and its value to lie in its
        interval before anything changes, so a refused round leaves the
        state as it was.  The keys move at most once, to the lcm of L and
        the round's denominators."""
        ratios = [value.as_integer_ratio() for value in answers.values()]
        scale = math.lcm(self._scale, *(den for _, den in ratios))
        grow = scale // self._scale
        keys = [num * (scale // den) for num, den in ratios]
        for (eid, value), key in zip(answers.items(), keys):
            iv, record = self._states[eid], self._keys[eid]
            if iv.trivial:
                raise IntervalError(f"element {eid} is already pinned")
            if not iv.contains_keyed(record[0] * grow, record[3] * grow, key):
                raise IntervalError(f"value {value} outside interval {iv.text()} of element {eid}")
        if grow != 1:
            self._rescale(grow)
        for (eid, value), key in zip(answers.items(), keys):
            if self._cuts is not None:  # the interval's cut keys leave, the point's enter
                for cuts, cut in zip(self._cuts, (self.left_key(eid), self.right_key(eid))):
                    del cuts[bisect_left(cuts, cut)]
                    insort(cuts, 3 * key)
            record, point = self._keys[eid], (key, 0, eid, key, 0)
            self._states[eid] = UncertainInterval.point(value)
            self._keys[eid] = point
            for view in self._viewed.pop(eid, ()):
                del view.unpinned[bisect_left(view.unpinned, record)]
                insort(view.pinned, point)

    def _rescale(self, grow: int) -> None:
        """Multiply every key record by `grow`, moving all of them to the
        scale L * grow, and drop the cut lists; orders and ties are
        unchanged."""
        self._scale *= grow
        keys = self._keys = {
            eid: (lower * grow, lower_open, eid, upper * grow, upper_open)
            for eid, (lower, lower_open, _, upper, upper_open) in self._keys.items()
        }
        self._cuts = None
        for view in self._views.values():
            for records in (view.unpinned, view.pinned):
                records[:] = [keys[record[2]] for record in records]

    def cut_lists(self) -> Tuple[List[int], List[int]]:
        """The ascending cut keys of the left cuts and of the right cuts of
        all current states; `cut_of` reads a key back as a cut.

        The lists are kept by `reveal` until a rescale drops them; callers
        read them and never write, and ask again after each `reveal`.
        """
        if self._cuts is None:
            self._cuts = (sorted(map(self.left_key, self._states)), sorted(map(self.right_key, self._states)))
        return self._cuts

    def set_view(self, set_ids: Iterable[int]) -> SetView:
        """The kept view of one member set, built on the first call for it.

        Sets with the same members share one view.  The view is kept by
        `reveal`; callers read it and never write.
        """
        key = frozenset(set_ids)  # a frozenset is its own key, its hash cached
        view = self._views.get(key)
        if view is None:
            keys, states = self._keys, self._states
            pinned = sorted(keys[e] for e in key if states[e].trivial)
            unpinned = sorted(keys[e] for e in key if not states[e].trivial)
            view = self._views[key] = SetView(unpinned, pinned)
            for record in unpinned:
                self._viewed.setdefault(record[2], []).append(view)
        return view

    def unqueried_nontrivial(self, ids: Optional[Iterable[int]] = None) -> list:
        states = self._states
        return [eid for eid in (states if ids is None else ids) if not states[eid].trivial]
