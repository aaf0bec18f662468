"""Exact interval primitives: endpoint kinds, membership, dependency, endpoint orders.

Everything here is computed over arbitrary-precision rationals
(`fractions.Fraction`).  Open-endpoint comparisons at equal values are
semantic, so no float ever enters the core: a value sitting exactly on an
open endpoint must compare as strictly outside.

An element's knowledge state has one shape, an `UncertainInterval`: its
original interval until queried, then the closed point {v} of the
revealed value v.  The predicates in this module therefore never ask
which of the two an element is; `KnowledgeState` alone remembers which
elements were revealed.  Whether a state is a point is stored once, as
`UncertainInterval.trivial`, when the interval is built, so the hot
predicates read a flag instead of comparing two `Fraction`s.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$", re.ASCII)


class IntervalError(ValueError):
    """Malformed interval, rational, or knowledge update."""


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
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))
        if self.lower > self.upper:
            raise IntervalError(f"lower {self.lower} above upper {self.upper}")
        trivial = self.lower == self.upper
        if trivial and (self.lower_kind is not CLOSED or self.upper_kind is not CLOSED):
            raise IntervalError("degenerate interval must be closed on both sides")
        object.__setattr__(self, "trivial", trivial)

    @staticmethod
    def open(a, b) -> "UncertainInterval":
        return UncertainInterval(Fraction(a), OPEN, Fraction(b), OPEN)

    @staticmethod
    def closed(a, b) -> "UncertainInterval":
        return UncertainInterval(Fraction(a), CLOSED, Fraction(b), CLOSED)

    @staticmethod
    def point(v) -> "UncertainInterval":
        v = Fraction(v)
        return UncertainInterval(v, CLOSED, v, CLOSED)

    @property
    def value(self) -> Fraction:
        if not self.trivial:
            raise IntervalError("value is only defined for trivial intervals")
        return self.lower

    def contains(self, v: Fraction) -> bool:
        """Membership respecting endpoint openness."""
        if v < self.lower or v > self.upper:
            return False
        if v == self.lower and self.lower_kind is OPEN:
            return False
        if v == self.upper and self.upper_kind is OPEN:
            return False
        return True

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
# (v, -1) just below.  Tuple comparison then orders endpoints correctly.
Cut = Tuple[Fraction, int]


def left_cut(state: UncertainInterval) -> Cut:
    return (state.lower, 0 if state.lower_kind is CLOSED else 1)


def right_cut(state: UncertainInterval) -> Cut:
    return (state.upper, 0 if state.upper_kind is CLOSED else -1)


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


def order_provable(a: UncertainInterval, b: UncertainInterval) -> bool:
    """True iff v_a <= v_b holds in every admissible realization."""
    return a.upper <= b.lower


class KnowledgeState:
    """Per-element view: the original interval, or the point {v} once
    the query revealed v.

    This is the whole of an algorithm's information.  Once revealed, an
    element never reverts, and the value must lie inside the original
    interval (strictly inside open endpoints).  Mutated only by the
    single-threaded run loop of a trial.

    Beside the states it keeps the pinned-value map: the exact value of
    every element that is trivial from the start or revealed, seeded here
    and written by `reveal`.  Solvedness checks ask `known_value` about
    every member of every open set each round, and a dict lookup answers
    with the value itself.

    It also keeps the cut lists: the left cuts and the right cuts of all
    states, each in ascending order.  They are built on the first
    `cut_lists` call and from then on kept sorted by `reveal`, which swaps
    the revealed element's two cuts for those of its point by bisection,
    so the i-th cut of either kind is an index read.
    """

    def __init__(self, intervals: Dict[int, UncertainInterval]):
        self._states: Dict[int, UncertainInterval] = dict(intervals)
        self._known: Dict[int, Fraction] = {
            eid: st.lower for eid, st in self._states.items() if st.trivial
        }
        self._revealed: Set[int] = set()
        self._cuts: Optional[Tuple[List[Cut], List[Cut]]] = None

    def ids(self) -> Iterable[int]:
        return self._states.keys()

    def state(self, eid: int) -> UncertainInterval:
        return self._states[eid]

    def is_revealed(self, eid: int) -> bool:
        return eid in self._revealed

    def known_value(self, eid: int) -> Optional[Fraction]:
        """Exact value if pinned (revealed, or trivial from the start)."""
        return self._known.get(eid)

    def reveal(self, eid: int, value: Fraction) -> None:
        if eid in self._revealed:
            raise IntervalError(f"element {eid} was already revealed")
        iv = self._states[eid]
        if not iv.contains(value):
            raise IntervalError(f"value {value} outside interval {iv.text()} of element {eid}")
        pinned = UncertainInterval.point(value)
        self._states[eid] = pinned
        self._known[eid] = pinned.lower
        self._revealed.add(eid)
        if self._cuts is not None:
            for cuts, cut in zip(self._cuts, (left_cut, right_cut)):
                del cuts[bisect_left(cuts, cut(iv))]
                insort(cuts, cut(pinned))

    def cut_lists(self) -> Tuple[List[Cut], List[Cut]]:
        """The ascending left cuts and right cuts of all current states.

        The lists are kept by `reveal`; callers read them and never write.
        """
        if self._cuts is None:
            states = self._states.values()
            self._cuts = (sorted(map(left_cut, states)), sorted(map(right_cut, states)))
        return self._cuts

    def unqueried_nontrivial(self, ids: Optional[Iterable[int]] = None) -> list:
        pool = self.ids() if ids is None else ids
        return [eid for eid in pool if eid not in self._known]
