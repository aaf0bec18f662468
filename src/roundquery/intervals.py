"""Exact interval primitives: endpoint kinds, membership, dependency, endpoint orders.

Everything here is computed over arbitrary-precision rationals
(`fractions.Fraction`).  Open-endpoint comparisons at equal values are
semantic, so no float ever enters the core: a value sitting exactly on an
open endpoint must compare as strictly outside.  Orders, though, are taken
on exact integer keys: a value's key is the value times a common
denominator L of the values compared, so keys order and tie exactly as the
rationals do, at the cost of an int comparison rather than a `Fraction`
one.  `interval_keys` is the one place that makes keys: of intervals'
endpoints, from the ratios each interval keeps, and of values, on one L
(the audits key what they compare this way).  An `Instance` keys its
endpoints once, `Instance.endpoint_keys`, and a `KnowledgeState` keeps one
L and builds the key row of an element's state from those keys the first
time something reads it, keeping it across reveals, so the run loop
compares ints throughout and a run builds only the rows it reads.  A cut
(v, flag), an endpoint with its openness, is keyed as 3 * key + flag.

An element's knowledge state has one shape, an `UncertainInterval`: its
original interval until queried, then the closed point {v} of the
revealed value v.  The predicates in this module therefore never ask
which of the two an element is, and nothing records it: an element is
pinned exactly when its state is a point.  Whether a state is a point is
stored once, as `UncertainInterval.trivial`, when the interval is built,
so the hot predicates read a flag instead of comparing two `Fraction`s.
A point {v} is built directly, its slots set with no order or kind
check, since {v} cannot fail one, so a revealed value costs int work:
the oracle checks it on the keys of one `interval_keys` call, and
`KnowledgeState.reveal` on the state's keys.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Collection, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from .instances import Instance

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


@dataclass(frozen=True, slots=True, init=False)
class UncertainInterval:
    """An interval with independently open or closed endpoints.

    Valid shapes: lower < upper with any endpoint kinds, or the trivial
    interval {v} (lower = upper, both endpoints closed).  `trivial` is
    derived from the bounds at construction and takes no part in equality,
    and so are `lower_num`, `lower_den`, `upper_num` and `upper_den`, the
    endpoints' `as_integer_ratio()`, which the construction computes to
    decide `trivial` and keeps for `interval_keys`: the ints are the
    `Fraction`s' own objects, so an interval holds four more pointers.

    `__init__` checks the order and the kinds on one integer
    cross-multiplication, then sets all nine slots at once; `point` sets
    them directly, with no check, since {v} cannot fail it.  Both write
    through the slots' own descriptors, which the frozen `__setattr__`
    does not guard.  `==`, `hash`, `repr`, pickling and
    `dataclasses.replace` see the fields of any frozen dataclass.
    """

    lower: Fraction
    lower_kind: EndpointKind
    upper: Fraction
    upper_kind: EndpointKind
    trivial: bool = field(init=False, repr=False, compare=False)
    lower_num: int = field(init=False, repr=False, compare=False)
    lower_den: int = field(init=False, repr=False, compare=False)
    upper_num: int = field(init=False, repr=False, compare=False)
    upper_den: int = field(init=False, repr=False, compare=False)

    def __init__(self, lower: Fraction, lower_kind: EndpointKind, upper: Fraction, upper_kind: EndpointKind) -> None:
        if not isinstance(lower, Fraction) or not isinstance(upper, Fraction):
            lower, upper = Fraction(lower), Fraction(upper)
        (ln, ld), (un, ud) = lower.as_integer_ratio(), upper.as_integer_ratio()
        gap = un * ld - ln * ud  # one integer cross-multiplication decides order and equality
        if gap < 0:
            raise IntervalError(f"lower {lower} above upper {upper}")
        if gap == 0 and (lower_kind is not CLOSED or upper_kind is not CLOSED):
            raise IntervalError("degenerate interval must be closed on both sides")
        _fill(self, lower, lower_kind, upper, upper_kind, gap == 0, ln, ld, un, ud)

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
        num, den = v.as_integer_ratio()
        point = object.__new__(UncertainInterval)
        _fill(point, v, CLOSED, v, CLOSED, True, num, den, num, den)
        return point

    @property
    def value(self) -> Fraction:
        if not self.trivial:
            raise IntervalError("value is only defined for trivial intervals")
        return self.lower

    def contains_keyed(self, lower, upper, v) -> bool:
        """Membership of `v` on `lower`, `upper` and `v` taken in any one
        exact order of this interval's endpoints and the value, such as
        their `interval_keys`: one comparison per endpoint, weak at a
        closed one and strict at an open one."""
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


# the slot descriptors' setters, in field order, for `_fill`
(
    _set_lower, _set_lower_kind, _set_upper, _set_upper_kind, _set_trivial,
    _set_lower_num, _set_lower_den, _set_upper_num, _set_upper_den,
) = (vars(UncertainInterval)[f.name].__set__ for f in fields(UncertainInterval))


def _fill(iv, lower, lower_kind, upper, upper_kind, trivial, lower_num, lower_den, upper_num, upper_den) -> None:
    """Set the nine slots of a new interval, one call per slot."""
    _set_lower(iv, lower)
    _set_lower_kind(iv, lower_kind)
    _set_upper(iv, upper)
    _set_upper_kind(iv, upper_kind)
    _set_trivial(iv, trivial)
    _set_lower_num(iv, lower_num)
    _set_lower_den(iv, lower_den)
    _set_upper_num(iv, upper_num)
    _set_upper_den(iv, upper_den)


def interval_keys(
    intervals: Collection[UncertainInterval], values: Iterable[Fraction] = (), scale: int = 1
) -> Tuple[int, List[int], List[int], List[int]]:
    """Exact integer keys: the scale L, the least common multiple of
    `scale` and every denominator, then the keys of the intervals' lower
    endpoints, of their upper endpoints and of `values`, each in input
    order.  The key of num/den is `num * (L // den)`, an integer, no
    rounding, so the keys of one call order and tie exactly as the
    rationals do.  L is a multiple of `scale`, so a key kept on `scale`
    times L // scale is the same rational's key on L.  Endpoints are read
    from the ratios each interval keeps, values from their
    `as_integer_ratio()`.  When L is 1 the numerators are the keys.

    L // den is taken once per distinct denominator, and L is the lcm of
    the lcms of groups of 16 denominators, level by level, so each step
    multiplies ints of about equal size rather than one ever longer int
    by a short one.  The keys still grow with L: many distinct prime
    denominators make them slower to sort than the `Fraction`s, but that
    is bounded, and exact on every input, so there is no second path.
    """
    ratios = [v.as_integer_ratio() for v in values]
    dens = {iv.lower_den for iv in intervals} | {iv.upper_den for iv in intervals} | {den for _, den in ratios}
    lcms = [*dens]
    while len(lcms) > 16:
        lcms = [math.lcm(*lcms[i : i + 16]) for i in range(0, len(lcms), 16)]
    scale = math.lcm(scale, *lcms)
    if scale == 1:
        return 1, [iv.lower_num for iv in intervals], [iv.upper_num for iv in intervals], [num for num, _ in ratios]
    factor = {den: scale // den for den in dens}
    return (
        scale,
        [iv.lower_num * factor[iv.lower_den] for iv in intervals],
        [iv.upper_num * factor[iv.upper_den] for iv in intervals],
        [num * factor[den] for num, den in ratios],
    )


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


class CutKeys:
    """The ascending cut keys of one kind, the left or the right cuts of
    all states, as a `KnowledgeState` keeps them.

    It reads like an ascending list of ints: `len`, iteration, `keys[i]`,
    and `bisect_left` and `bisect_right`, which count the keys below and
    at most a key as the `bisect` functions do on that list, and `replace`,
    which swaps keys, a round's at a time.  The keys are held in blocks of
    at most 2 * BLOCK, each ascending and each at or above the one before,
    with the last key of each block in `_maxes`, so removing or adding a
    key moves one block's keys rather than a whole list's tail.  The i-th
    key walks the blocks.
    """

    BLOCK = 1024

    def __init__(self, keys: Iterable[int]) -> None:
        ordered = sorted(keys)
        self._blocks = [ordered[i : i + self.BLOCK] for i in range(0, len(ordered), self.BLOCK)]
        self._maxes = [block[-1] for block in self._blocks]
        self._len = len(ordered)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self._blocks)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < self._len:
            for block in self._blocks:
                if i < len(block):
                    return block[i]
                i -= len(block)
        raise IndexError(f"cut key index {i} out of range")

    def bisect_left(self, key: int) -> int:
        """The number of keys below `key`."""
        j = bisect_left(self._maxes, key)
        before = sum(map(len, self._blocks[:j]))
        return before + bisect_left(self._blocks[j], key) if j < len(self._blocks) else before

    def bisect_right(self, key: int) -> int:
        """The number of keys at most `key`."""
        j = bisect_right(self._maxes, key)
        before = sum(map(len, self._blocks[:j]))
        return before + bisect_right(self._blocks[j], key) if j < len(self._blocks) else before

    def replace(self, swaps: Iterable[Tuple[int, int]]) -> None:
        """For each pair (old, new), remove one copy of the key `old`,
        refused if none is kept, and add the key `new`."""
        blocks, maxes, half = self._blocks, self._maxes, self.BLOCK
        for old, new in swaps:
            j = bisect_left(maxes, old)
            block = blocks[j] if j < len(blocks) else []
            i = bisect_left(block, old)
            if i == len(block) or block[i] != old:
                raise ValueError(f"cut key {old} is not kept")
            del block[i]
            if block:
                maxes[j] = block[-1]
            else:
                del blocks[j], maxes[j]
            j = bisect_left(maxes, new)
            if j == len(blocks):  # above every key: the last block takes it
                if not blocks:
                    blocks.append([])
                    maxes.append(new)
                j = len(blocks) - 1
                maxes[j] = new
            block = blocks[j]
            insort(block, new)
            if len(block) > 2 * half:
                blocks[j : j + 1] = block[:half], block[half:]
                maxes[j : j + 1] = block[half - 1], block[-1]


# A key record, or row, [lower, lower_open, id, upper, upper_open]: an
# element's endpoint keys on a state's scale, each with its openness as 0
# or 1, a point's row being [key, 0, id, key, 0].  The first two fields
# order rows as the left cuts (3 * lower + lower_open is the left cut key),
# and the id both breaks their ties, so rows sort in (left cut, id) order,
# and makes each row distinct, so two rows never compare their upper
# fields.  A row is a list, owned by its state, so that a rescale
# multiplies its two keys in place.  A state builds a row the first time
# it is read: `rows[eid] or self._row(eid)`, rows being its list by id.
KeyRecord = List[int]


class KnowledgeState:
    """Per-element view: the original interval, or the point {v} once
    the query revealed v.

    This is the whole of an algorithm's information.  Once revealed, an
    element never reverts, and the value must lie inside the original
    interval (strictly inside open endpoints).  Mutated only by the
    single-threaded run loop of a trial, one round's answers at a time.
    Built from its instance alone, whose elements, family, `endpoint_keys`,
    membership index `sets_of` and `left_orders` it reads.

    An element is pinned when its state is a point, trivial from the start
    or revealed, and `reveal` refuses it then; `known_value` reads the
    point's value off the state, and only certificate extraction asks for it.

    Everything else it keeps is on exact integer keys, all on one scale L,
    the least common multiple of every denominator the state has seen,
    starting at the instance's L0: each element's key row [lower,
    lower_open, id, upper, upper_open] holds the keys of its current
    state's endpoints with their openness as 0 or 1, a point's row being
    [key, 0, id, key, 0], and its left and right cut keys are read off it.
    The rows are kept in a list by id, and a row is built the first time
    something reads it, from the instance's `endpoint_keys` times L / L0,
    so a minimum run, which reads a prefix of each open set, builds few; a
    read of the whole state, `cut_lists` or `unpinned_meeting`, builds the
    missing ones in one pass.  A value's key is the value times L, so keys
    order and tie as the rationals do, and nothing below compares a
    `Fraction`.  `reveal` takes a whole round's answers and keys their
    values; when a denominator does not divide L, it first multiplies the
    two keys of every row built so far in place by L'/L, L' the lcm of L
    and all the round's denominators, so one scale holds throughout, and
    drops the cut lists.  The floors hold the very row objects, and a
    multiplication by L'/L > 0 keeps every order, so they are not touched:
    a rescale costs one pass over the rows built, and a round pays at most
    one, and rarely: random values are eighths, and the adversaries use few
    denominators.
    A new prime denominator in every value rescales every round and grows
    the keys: slower, but exact, so there is no second path.

    It keeps the cut lists: the cut keys (3 * key + flag) of the left cuts
    and of the right cuts of all states, each ascending in a `CutKeys`.
    They are built on the first `cut_lists` call on each scale, so a
    minimum or sorting run, which makes none, builds none, and a run
    whose values bring no new denominator builds them once.  Until the
    next rescale `reveal` keeps them sorted: it swaps the revealed
    element's two cut keys for those of its point by bisection, so the
    i-th cut of either kind is a read of one block.  A rescale drops them,
    and the next call reads the keys again from the multiplied rows and
    sorts them: when every round brings new prime denominators the keys
    grow to tens of thousands of bits, and multiplying each cut key by
    L'/L costs more than sorting them again.

    Minimum and sorting read each family set in the instance's
    `left_orders`, so a run and its audits share one sort.  An unpinned
    member's row is its interval's, so the set's unpinned rows in (left
    cut, id) order are its left order with the pinned members skipped:
    `unpinned_rows` walks that, and `pinned_keys` sorts the pinned
    members' value keys, so the sorting predicates read each set in left
    order, endpoint keys included, and no state keeps a per-set copy of it.

    For minimum it keeps, per family set, a head and a floor, built on the
    first `minimum_floor` or `minimum_live` call: the head is a place in
    the set's left order before which every member is pinned, and the
    floor is the key row of the set's least pinned point, lowest id among
    equal values.  The floors start at each order's first point,
    `Instance.first_points`, and `reveal` lowers the floor of each set that
    holds a revealed id, found through the instance's `sets_of`, built once
    per instance, where the point is less; points revealed before the build
    are folded in then.  So no run copies a membership, a fresh state over
    the same instance builds only the rows it reads and its floors, and a
    `reveal` with no floors to keep reads no index.

    What it answers in rationals: `state`, `known_value`, and `cut_of`,
    the cut that a cut key stands for.
    """

    def __init__(self, instance: Instance):
        self._instance = instance
        self._states: Dict[int, UncertainInterval] = dict(enumerate(instance.elements, 1))
        self._scale = instance.endpoint_keys[0]
        self._grow = 1  # the scale over the instance's L0, on which a row is built
        # the key rows by id, slot 0 unused, each None until first read
        self._keys: List[Optional[KeyRecord]] = [None] * (len(instance.elements) + 1)
        self._all_built = False
        self._cuts: Optional[Tuple[CutKeys, CutKeys]] = None
        self._floors: Optional[List[Optional[KeyRecord]]] = None  # per family set, once built
        self._heads: List[int] = []  # per family set, with the floors
        self._orders: List[List[int]] = []  # the instance's left orders, with the floors

    def ids(self) -> Iterable[int]:
        return self._states.keys()

    def states(self) -> Iterable[UncertainInterval]:
        """Every element's current state, in the order of `ids`: what
        `state` reads one at a time, without a call per id."""
        return self._states.values()

    def state(self, eid: int) -> UncertainInterval:
        return self._states[eid]

    def known_value(self, eid: int) -> Optional[Fraction]:
        """Exact value if pinned (revealed, or trivial from the start)."""
        state = self._states[eid]
        return state.lower if state.trivial else None

    def _row(self, eid: int) -> KeyRecord:
        """eid's key row, built on its first read.  Only an unrevealed id
        lacks one, as `reveal` writes each point's, so a missing row is its
        interval's: the instance's `endpoint_keys` times the state's scale
        over L0, the row an eager build would have multiplied to that
        scale.  An id outside 1..n has none."""
        if not 0 < eid < len(self._keys):
            raise KeyError(eid)
        iv, grow = self._instance.elements[eid - 1], self._grow
        _, lowers, uppers = self._instance.endpoint_keys
        lower, upper = lowers[eid - 1] * grow, uppers[eid - 1] * grow
        row = self._keys[eid] = [lower, iv.lower_kind is OPEN, eid, upper, iv.upper_kind is OPEN]
        return row

    def _all_rows(self) -> List[KeyRecord]:
        """Every key row, in id order.  The first call builds the missing
        ones in one pass, in place, so each row built before stays the same
        object, as the floors hold rows."""
        rows = self._keys
        if not self._all_built:
            _, lowers, uppers = self._instance.endpoint_keys
            grow = self._grow
            rows[1:] = [
                row or [lower * grow, iv.lower_kind is OPEN, eid, upper * grow, iv.upper_kind is OPEN]
                for eid, (row, iv, lower, upper) in enumerate(zip(rows[1:], self._instance.elements, lowers, uppers), 1)
            ]
            self._all_built = True
        return rows[1:]

    def left_key(self, eid: int) -> int:
        """The cut key of the left cut of eid's current state."""
        record = self._keys[eid] or self._row(eid)
        return 3 * record[0] + record[1]

    def right_key(self, eid: int) -> int:
        """The cut key of the right cut of eid's current state."""
        record = self._keys[eid] or self._row(eid)
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
        scale, _, _, keys = interval_keys((), answers.values(), self._scale)
        grow = scale // self._scale
        states, rows, row_of = self._states, self._keys, self._row
        pins = [(eid, value, key, rows[eid] or row_of(eid)) for (eid, value), key in zip(answers.items(), keys)]
        for eid, value, key, row in pins:
            iv = states[eid]
            if iv.trivial:
                raise IntervalError(f"element {eid} is already pinned")
            if not iv.contains_keyed(row[0] * grow, row[3] * grow, key):
                raise IntervalError(f"value {value} outside interval {iv.text()} of element {eid}")
        if grow != 1:
            self._rescale(grow)
        if self._cuts is not None:  # the intervals' cut keys leave, the points' enter
            left, right = self._cuts
            left.replace([(3 * row[0] + row[1], 3 * key) for _, _, key, row in pins])
            right.replace([(3 * row[3] - row[4], 3 * key) for _, _, key, row in pins])
        for eid, value, key, _ in pins:
            states[eid] = UncertainInterval.point(value)
            rows[eid] = [key, 0, eid, key, 0]
        if self._floors is not None:
            self._lower_floors(answers)

    def _rescale(self, grow: int) -> None:
        """Multiply the two keys of every key row built so far by `grow` in
        place, moving all of them to the scale L * grow, on which the rows
        not yet built will be built, and drop the cut lists, which the next
        `cut_lists` builds again from the rows; orders and ties are
        unchanged, so the floors, which hold the same rows, stay least."""
        self._scale *= grow
        self._grow *= grow
        for row in filter(None, self._keys):
            row[0] *= grow
            row[3] *= grow
        self._cuts = None

    def cut_lists(self) -> Tuple[CutKeys, CutKeys]:
        """The ascending cut keys of the left cuts and of the right cuts of
        all current states; `cut_of` reads a key back as a cut.

        The lists are built on the first call on each scale, which builds
        every missing row, and kept by `reveal` until a rescale drops them;
        callers read them and never write.
        """
        if self._cuts is None:  # `left_key` and `right_key` of every row
            rows = self._all_rows()
            self._cuts = (CutKeys([3 * r[0] + r[1] for r in rows]), CutKeys([3 * r[3] - r[4] for r in rows]))
        return self._cuts

    def unpinned_rows(self, i: int) -> Iterator[KeyRecord]:
        """The key rows of the unpinned members of the family's set of index
        i, in (left cut, id) order: its left order, skipping each pinned
        row (its two keys equal).  Read lazily, so it holds until the next
        `reveal`; callers read the rows and never write."""
        rows, row_of = self._keys, self._row
        for eid in self._instance.left_orders()[i]:
            row = rows[eid] or row_of(eid)
            if row[0] != row[3]:
                yield row

    def pinned_keys(self, i: int) -> List[int]:
        """The value keys of the pinned members of the family's set of index
        i, ascending, sorted on each call."""
        rows, row_of = self._keys, self._row
        return sorted([row[0] for eid in self._instance.family[i] if (row := rows[eid] or row_of(eid))[0] == row[3]])

    def minimum_floor(self, i: int) -> Optional[KeyRecord]:
        """The key row of the least pinned point of the family's set of
        index i, lowest id among equal values, or None without one."""
        if self._floors is None:
            self._build_floors()
        return self._floors[i]

    def minimum_live(self, i: int) -> Iterator[int]:
        """The live members of the family's set of index i, in left order,
        by (left cut, id): the unpinned ones that could still lie below its
        floor, every unpinned one without a floor.

        The walk goes along the set's `Instance.left_orders` from its head,
        first moving the head past the pinned members there.  It skips a
        pinned row (its two keys equal) and stops at the first unpinned row
        whose lower key is at or above the floor's: an unpinned member's
        state is its interval, so the unpinned rows ascend by lower key in
        that order, and no value lies below its lower endpoint, so one
        that starts at the floor can at best tie it.  The walk starts on the
        first `next` and reads the rows lazily, so it holds until the next
        `reveal`.
        """
        floor = self.minimum_floor(i)
        order, rows, row_of, head = self._orders[i], self._keys, self._row, self._heads[i]
        while head < len(order) and (row := rows[order[head]] or row_of(order[head]))[0] == row[3]:
            head += 1
        self._heads[i] = head
        for eid in islice(order, head, None):
            row = rows[eid] or row_of(eid)
            if row[0] != row[3]:
                if floor is not None and row[0] >= floor[0]:
                    return
                yield eid

    def _build_floors(self) -> None:
        """Each set's head at 0 and its floor at its first point in left
        order, `Instance.first_points`, then lowered by the points revealed
        so far."""
        instance, rows = self._instance, self._keys
        self._orders = instance.left_orders()
        self._heads = [0] * len(self._orders)
        self._floors = [None if eid is None else rows[eid] or self._row(eid) for eid in instance.first_points()]
        self._lower_floors([eid for (eid, st), iv in zip(self._states.items(), instance.elements) if st is not iv])

    def _lower_floors(self, revealed: Collection[int]) -> None:
        """Lower the floor of every set that holds a revealed id to that id's
        point where the point is less, by (key, id), on the rows' one scale:
        a rescale writes the floors' rows too."""
        floors, rows = self._floors, self._keys
        sets_of = self._instance.sets_of if revealed else None
        for eid in revealed:
            point = rows[eid]
            for i in sets_of[eid]:
                floor = floors[i]
                if floor is None or point < floor:
                    floors[i] = point

    def unpinned_meeting(self, lo: int, hi: int) -> List[int]:
        """The unpinned ids, ascending, whose state meets the cut keys from
        `lo` to `hi`: its left cut key is at most `hi` and its right cut
        key at least `lo`.  Read off every row, in id order: a state is
        pinned exactly when its two keys are equal."""
        return [
            row[2]
            for row in self._all_rows()
            if row[0] != row[3] and 3 * row[0] + row[1] <= hi and 3 * row[3] - row[4] >= lo
        ]

    def unqueried_nontrivial(self, ids: Iterable[int]) -> List[int]:
        """The ids of `ids`, in their order, that are not pinned."""
        states = self._states
        return [eid for eid in ids if not states[eid].trivial]
