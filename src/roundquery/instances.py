"""Problem instances, the on-disk line format, and fixed-realization generators.

An instance is a ground set of uncertainty intervals with ids 1..n, a
family of index subsets, a problem kind, and the round width k.  The text
format is line oriented so fixtures diff cleanly and lower-bound instances
can be written by hand:

    # comment
    k 5
    problem minimum
    interval 1 (0,2)
    interval 2 {3}
    set S1 1 2
    value 1 3/2

Value lines are the optional realization; trivial elements need no value
line.  Generators are pure functions of their parameters (and seed), so a
generated instance re-parses byte-identically from its canonical text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .intervals import (
    CLOSED,
    OPEN,
    IntervalError,
    UncertainInterval,
    interval_keys,
    parse_rational,
)


class InstanceError(ValueError):
    """Instance-level invariant violation."""


class ParseError(InstanceError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ProblemFamily(Enum):
    SORTING = "sorting"
    MINIMUM = "minimum"
    SELECTION_VALUE = "selection-value"
    SELECTION_FULL = "selection-full"


@dataclass(frozen=True)
class ProblemKind:
    kind: ProblemFamily
    rank: Optional[int] = None  # Selection only: the index i

    def __post_init__(self) -> None:
        selection = self.kind in (ProblemFamily.SELECTION_VALUE, ProblemFamily.SELECTION_FULL)
        if selection and (self.rank is None or self.rank < 1):
            raise InstanceError("selection problems need a positive rank i")
        if not selection and self.rank is not None:
            raise InstanceError(f"{self.kind.value} does not take a rank")

    @property
    def is_selection(self) -> bool:
        return self.rank is not None

    def text(self) -> str:
        if self.rank is not None:
            return f"{self.kind.value} i={self.rank}"
        return self.kind.value


SORTING = ProblemFamily.SORTING
MINIMUM = ProblemFamily.MINIMUM
SELECTION_VALUE = ProblemFamily.SELECTION_VALUE
SELECTION_FULL = ProblemFamily.SELECTION_FULL


@dataclass(frozen=True)
class Instance:
    """Ground set with ids 1..n, family of subsets, problem kind, round width,
    and structures built once, on first use: the family's membership
    index `sets_of`, each set's members in left order, `left_orders`, and
    each set's first point in that order, `first_points`."""

    elements: Tuple[UncertainInterval, ...]
    family: Tuple[frozenset, ...]
    problem: ProblemKind
    k: int

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def m(self) -> int:
        return len(self.family)

    def interval(self, eid: int) -> UncertainInterval:
        if not 1 <= eid <= len(self.elements):
            raise InstanceError(f"unknown element {eid}")
        return self.elements[eid - 1]

    def ids(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def sets_of(self) -> Dict[int, List[int]]:
        """For each id, the ascending indices of the family's sets that hold
        it, kept in the instance's `__dict__`, which equality and hash do not
        read; a copy by `dataclasses.replace` builds its own if asked.  The
        lists are filled through a list indexed by id, which is cheaper per
        membership than the dict."""
        index: List[List[int]] = [[] for _ in range(len(self.elements) + 1)]
        for i, members in enumerate(self.family):
            for eid in members:
                index[eid].append(i)
        return dict(enumerate(index[1:], 1))

    def left_orders(self, lowers: Optional[Sequence[int]] = None) -> List[List[int]]:
        """For each family set, its members in left order, by (left cut,
        id), so ascending by lower endpoint, a point's being its value.

        Built on the first call, without reading `sets_of`, and kept in
        the instance's `__dict__` as that index is.  `lowers` are the keys
        of the elements' lower endpoints in id order on any one exact
        scale, such as a `TruthRecord`'s; every such scale orders them
        alike, so they are read only by the first call, and without them
        that call keys the endpoints itself.  Each id gets one int that
        orders as (left cut, id): its left cut key 3 * lower + open, less
        the least one can be, times a stride above every id, plus the id.
        """
        orders = self.__dict__.get("_left_orders")
        if orders is None:
            elements = self.elements
            if lowers is None:
                _, lowers, _, _ = interval_keys(elements)
            low, stride = 3 * min(lowers), len(elements) + 1
            sort_key = [0]
            sort_key += [
                (3 * lower + (iv.lower_kind is OPEN) - low) * stride + eid
                for eid, (iv, lower) in enumerate(zip(elements, lowers), 1)
            ]
            orders = [sorted(members, key=sort_key.__getitem__) for members in self.family]
            self.__dict__["_left_orders"] = orders
        return orders

    def first_points(self) -> List[Optional[int]]:
        """For each family set, the first trivial member of its left order,
        so its point of least value, lowest id among equal ones, or None
        without one: found on the first call, from `left_orders`, and kept
        as it is."""
        points = self.__dict__.get("_first_points")
        if points is None:
            elements = self.elements
            points = [next((eid for eid in order if elements[eid - 1].trivial), None) for order in self.left_orders()]
            self.__dict__["_first_points"] = points
        return points

    def validate(self) -> None:
        n = len(self.elements)
        if self.k < 1:
            raise InstanceError("k must be positive")
        if n == 0:
            raise InstanceError("instance has no elements")
        for idx, members in enumerate(self.family, 1):
            if not members:
                raise InstanceError(f"set {idx} is empty")
            if min(members) < 1 or max(members) > n:  # name the first unknown id in the set's order
                eid = next(eid for eid in members if not 1 <= eid <= n)
                raise InstanceError(f"set {idx} references unknown element {eid}")
        if self.problem.is_selection:
            if self.family != (frozenset(range(1, n + 1)),):
                raise InstanceError("selection instances take a single full set")
            if self.problem.rank > n:
                raise InstanceError("selection rank exceeds n")
        if self.problem.kind is MINIMUM:
            # Minimum requires open or trivial intervals; anything else is
            # rejected because the problem degenerates for closed endpoints.
            for eid, iv in enumerate(self.elements, 1):
                if iv.trivial:
                    continue
                if iv.lower_kind is not OPEN or iv.upper_kind is not OPEN:
                    raise InstanceError(
                        f"minimum instance needs open or trivial intervals, "
                        f"element {eid} is {iv.text()}"
                    )


@dataclass(frozen=True)
class Realization:
    """Exact value for every element, consistent with its interval."""

    values: Mapping[int, Fraction]

    def value(self, eid: int) -> Fraction:
        return self.values[eid]

    def validate(self, instance: Instance) -> "TruthRecord":
        """The record of this realization for `instance`, unless an element
        has no value or one outside its interval, on the record's keys, or
        a value is given for an id the instance lacks."""
        for eid in instance.ids():
            if eid not in self.values:
                raise InstanceError(f"realization misses element {eid}")
        if len(self.values) != instance.n:  # every id is there, so some key is not an id
            extra = next(eid for eid in self.values if eid not in instance.ids())
            raise InstanceError(f"value for unknown element {extra}")
        _, lowers, uppers, values = interval_keys(instance.elements, map(self.values.__getitem__, instance.ids()))
        for eid, iv, lo, hi, v in zip(instance.ids(), instance.elements, lowers, uppers, values):
            if not iv.contains_keyed(lo, hi, v):
                raise InstanceError(f"value {self.values[eid]} outside interval {iv.text()} of element {eid}")
        return TruthRecord(instance, self, lowers, uppers, values)


@dataclass(frozen=True)
class TruthRecord:
    """A realization for `instance`, the keys of each element's endpoints
    and value in id order from one `interval_keys` call, and `holders`.

    `holders` are the ids that hold what the kind asks of the realization:
    a member of least value of each set (minimum) or the true i-th value
    (both selection kinds); the realization gives their values.  They are
    found when first read, not when the record is built, so validating a
    realization builds no left order.  A set's minimum is found by a walk
    of its `Instance.left_orders` from the head, on the record's keys,
    which keeps the least value seen and stops at the first member whose
    lower endpoint is at or above it, as every later one's is too.  Values
    lie in their intervals, so no member left unwalked holds a smaller one.
    """

    instance: Instance = field(repr=False, compare=False)
    realization: Realization
    lowers: List[int]
    uppers: List[int]
    values: List[int]

    @cached_property
    def holders(self) -> Tuple[int, ...]:
        instance, values = self.instance, self.values
        if instance.problem.kind is MINIMUM:
            lowers, holders = self.lowers, []
            for order in instance.left_orders(lowers):
                holder = order[0]
                for eid in order:
                    if lowers[eid - 1] >= values[holder - 1]:
                        break
                    if values[eid - 1] < values[holder - 1]:
                        holder = eid
                holders.append(holder)
            return tuple(holders)
        if instance.problem.is_selection:
            return (sorted(instance.ids(), key=lambda eid: values[eid - 1])[instance.problem.rank - 1],)
        return ()


def truth_record(instance: Instance, realization: Union[Realization, TruthRecord]) -> TruthRecord:
    """A record as it is, and a bare `Realization` through its `validate`:
    the audits' walks are exact only for values inside their intervals,
    and a value outside one is refused in one line."""
    return realization if isinstance(realization, TruthRecord) else realization.validate(instance)


def make_instance(
    elements: Sequence[UncertainInterval],
    family: Sequence[Sequence[int]],
    problem: ProblemKind,
    k: int,
) -> Instance:
    inst = Instance(
        elements=tuple(elements),
        family=tuple(frozenset(s) for s in family),
        problem=problem,
        k=int(k),
    )
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# text format


def _fail(line_no: int, line: str, token: str, message: str) -> None:
    col = line.find(token) + 1 if token and token in line else 1
    raise ParseError(line_no, col, message)


def _is_id(token: str) -> bool:
    """ASCII decimal digits only: `isdigit` alone admits superscripts,
    which `int` then rejects."""
    return token.isascii() and token.isdigit()


def parse_instance_record(text: str) -> Tuple[Instance, Optional[TruthRecord]]:
    """The instance of an instance file and its realization, as the
    `TruthRecord` that validating it built, so a caller that audits or
    answers from it keys it once; None without `value` lines."""
    k: Optional[int] = None
    problem: Optional[ProblemKind] = None
    intervals: Dict[int, UncertainInterval] = {}
    family: List[List[int]] = []  # the sets' members; their names are not kept
    values: Dict[int, Fraction] = {}
    value_lines: Dict[int, Tuple[int, str, str]] = {}  # id -> its value line's number, text and id token

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "k":
            if k is not None:
                _fail(line_no, raw, head, "duplicate 'k' directive")
            if len(tokens) != 2 or not _is_id(tokens[1]):
                _fail(line_no, raw, tokens[-1], "expected 'k <positive int>'")
            k = int(tokens[1])
        elif head == "problem":
            if problem is not None:
                _fail(line_no, raw, head, "duplicate 'problem' directive")
            if len(tokens) not in (2, 3):
                _fail(line_no, raw, head, "expected 'problem <kind> [i=<int>]'")
            try:
                fam = ProblemFamily(tokens[1])
            except ValueError:
                _fail(line_no, raw, tokens[1], f"unknown problem kind {tokens[1]!r}")
            rank = None
            if len(tokens) == 3:
                if not tokens[2].startswith("i=") or not _is_id(tokens[2][2:]):
                    _fail(line_no, raw, tokens[2], "expected i=<positive int>")
                rank = int(tokens[2][2:])
            try:
                problem = ProblemKind(fam, rank)
            except InstanceError as exc:
                _fail(line_no, raw, tokens[1], str(exc))
        elif head == "interval":
            if len(tokens) != 3:
                _fail(line_no, raw, head, "expected 'interval <id> <interval>'")
            if not _is_id(tokens[1]):
                _fail(line_no, raw, tokens[1], "element id must be a positive integer")
            eid = int(tokens[1])
            if eid in intervals:
                _fail(line_no, raw, tokens[1], f"duplicate interval id {eid}")
            try:
                intervals[eid] = UncertainInterval.parse(tokens[2])
            except IntervalError as exc:
                _fail(line_no, raw, tokens[2], str(exc))
        elif head == "set":
            if len(tokens) < 3:
                _fail(line_no, raw, head, "expected 'set <name> <id> <id> ...'")
            members = []
            for tok in tokens[2:]:
                if not _is_id(tok):
                    _fail(line_no, raw, tok, "set members must be element ids")
                members.append(int(tok))
            family.append(members)
        elif head == "value":
            if len(tokens) != 3 or not _is_id(tokens[1]):
                _fail(line_no, raw, head, "expected 'value <id> <rational>'")
            eid = int(tokens[1])
            if eid in values:
                _fail(line_no, raw, tokens[1], f"duplicate value for element {eid}")
            try:
                values[eid] = parse_rational(tokens[2])
            except IntervalError as exc:
                _fail(line_no, raw, tokens[2], str(exc))
            value_lines[eid] = (line_no, raw, tokens[1])
        else:
            _fail(line_no, raw, head, f"unknown directive {head!r}")

    if k is None:
        raise InstanceError("missing 'k' directive")
    if problem is None:
        raise InstanceError("missing 'problem' directive")
    n = len(intervals)
    if sorted(intervals) != list(range(1, n + 1)):
        raise InstanceError("interval ids must be contiguous 1..n")
    for eid, (line_no, raw, token) in value_lines.items():
        if eid not in intervals:
            _fail(line_no, raw, token, f"value for unknown element {eid}")
    elements = tuple(intervals[eid] for eid in range(1, n + 1))
    instance = make_instance(elements, family or [list(range(1, n + 1))], problem, k)

    if not values:
        return instance, None
    for eid, iv in enumerate(instance.elements, 1):
        if eid not in values:
            if iv.trivial:
                values[eid] = iv.value
            else:
                raise InstanceError(f"realization misses non-trivial element {eid}")
    return instance, Realization(values).validate(instance)


def serialize_instance(instance: Instance, realization: Optional[Realization] = None) -> str:
    lines = [f"k {instance.k}", f"problem {instance.problem.text()}"]
    for eid, iv in enumerate(instance.elements, 1):
        lines.append(f"interval {eid} {iv.text()}")
    for idx, members in enumerate(instance.family, 1):
        ids = " ".join(str(eid) for eid in sorted(members))
        lines.append(f"set S{idx} {ids}")
    if realization is not None:
        # Trivial values are implied, except in an all-trivial instance,
        # whose realization would otherwise read back as none.
        shown = [e for e, iv in enumerate(instance.elements, 1) if not iv.trivial]
        for eid in shown or instance.ids():
            lines.append(f"value {eid} {realization.value(eid)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixed benchmark families


def gen_fig2_bal_instance() -> Tuple[Instance, Realization]:
    """Three disjoint sets (sizes 6, 6, 5) with optimal prefixes 3, 3, 5.

    Set s holds consecutive ids, and its j-th element gets the open
    interval (100*s + j, 100*s + j + 10); the minimum sits at position
    `need` just above its lower endpoint and everything else realizes high,
    so the set is solved exactly after its first `need` queries.  k = 5;
    the optimum queries 11 intervals, so opt_k = 3.  The balanced
    algorithm needs 3 rounds and wastes exactly 2 queries on it.
    """
    elements: List[UncertainInterval] = []
    values: Dict[int, Fraction] = {}
    family: List[range] = []
    for set_idx, (size, need) in enumerate(zip((6, 6, 5), (3, 3, 5))):
        family.append(range(len(elements) + 1, len(elements) + size + 1))
        for j in range(1, size + 1):
            lo = Fraction(100 * set_idx + j)
            elements.append(UncertainInterval.open(lo, lo + 10))
            values[len(elements)] = lo + (Fraction(1, 2) if j == need else Fraction(19, 2))
    instance = make_instance(elements, family, ProblemKind(MINIMUM), 5)
    return instance, Realization(values)


def gen_fig3_overlap_instance(k: int = 3, c: int = 3) -> Tuple[Instance, Realization]:
    """Nested-sharing family on which the balanced algorithm is badly off.

    m = c*(k-1) sets in c groups; the sets in groups i..c share the chain
    elements C_1..C_i, and each set carries one unique tail element.  Each
    group-i set is solved after its first i queries, and the c chain
    elements alone solve everything, so opt_1 = c.

    The drawn endpoints are presentation-only; this generator keeps the
    combinatorial structure and picks rational coordinates so that the
    unique tail of a group-i set stays undiscardable until the chain value
    of round i-1 is known.
    """
    if k < 2 or c < 1:
        raise InstanceError("need k >= 2 and c >= 1")
    m = c * (k - 1)
    delta = Fraction(1, 4 * m)
    mu = Fraction(1, 4 * (c + 1))

    def chain_value(j: int) -> Fraction:
        return Fraction(1, 2) + (c - j) * mu

    elements: List[UncertainInterval] = []
    values: Dict[int, Fraction] = {}
    family: List[List[int]] = []
    chain_ids: List[int] = []
    next_id = 1
    unique_ordinal = 0
    for group in range(1, c + 1):
        lo = group * delta
        elements.append(UncertainInterval.open(lo, 1 + lo))
        values[next_id] = chain_value(group)
        chain_ids.append(next_id)
        next_id += 1
        # unique tails sit between this group's chain value and the previous
        # one, so earlier answers never discard them prematurely
        upper_bound = chain_value(group - 1) if group > 1 else chain_value(1) + mu
        tail_lo = (chain_value(group) + upper_bound) / 2
        for _ in range(k - 1):
            unique_ordinal += 1
            elements.append(UncertainInterval.open(tail_lo, tail_lo + 1))
            values[next_id] = tail_lo + Fraction(1, 2) + Fraction(unique_ordinal, 4 * (m + 1))
            family.append(chain_ids[:group] + [next_id])
            next_id += 1
    return make_instance(elements, family, ProblemKind(MINIMUM), k), Realization(values)


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class RandomParams:
    n: int
    m: int
    k: int
    problem: ProblemKind
    overlap: str = "disjoint"  # disjoint | overlap | single
    trivial_prob: float = 0.15

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise InstanceError("n, m, k must be positive")
        if not 0 <= self.trivial_prob <= 1:
            raise InstanceError(f"trivial_prob {self.trivial_prob} outside [0, 1]")
        if self.overlap not in ("disjoint", "overlap", "single"):
            raise InstanceError(f"unknown overlap mode {self.overlap!r}")
        if self.overlap == "single" and self.m != 1:
            raise InstanceError("single mode implies m = 1")
        if self.problem.is_selection and self.m != 1:
            raise InstanceError("selection instances take a single set")
        if self.overlap == "disjoint" and self.m > self.n:
            raise InstanceError("cannot split n elements into more than n disjoint sets")


def gen_random(seed: int, params: RandomParams) -> Tuple[Instance, Realization]:
    """Deterministic random instance plus a consistent realization, which
    its users validate (a `FixedOracle` does, on every run path).

    An element is a point at an integer in [0, 3n] with probability
    `trivial_prob`, else an integer lower endpoint in [0, 3n-1] plus an
    integer width of at most max(2, n), its value on an eighth of the
    interval, strictly inside an open end; a digest test pins the draws.
    """
    rng = random.Random(("roundquery", seed, params.n, params.m, params.k,
                         params.problem.kind.value, params.problem.rank,
                         params.overlap).__repr__())
    open_only = params.problem.kind in (MINIMUM, SELECTION_VALUE)
    span = 3 * params.n
    elements: List[UncertainInterval] = []
    for _ in range(params.n):
        if rng.random() < params.trivial_prob:
            elements.append(UncertainInterval.point(Fraction(rng.randint(0, span))))
            continue
        lo = rng.randint(0, span - 1)
        hi = lo + rng.randint(1, max(2, span // 3))
        if open_only:
            lk = uk = OPEN
        else:
            lk = OPEN if rng.random() < 0.5 else CLOSED
            uk = OPEN if rng.random() < 0.5 else CLOSED
        elements.append(UncertainInterval(Fraction(lo), lk, Fraction(hi), uk))

    ids = list(range(1, params.n + 1))
    if params.problem.is_selection or params.overlap == "single" or params.m == 1:
        family: List[List[int]] = [ids]
    elif params.overlap == "disjoint":
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, params.n), params.m - 1))
        family = []
        prev = 0
        for cut in cuts + [params.n]:
            family.append(ids[prev:cut])
            prev = cut
    else:
        family = []
        for _ in range(params.m):
            size = rng.randint(2, max(2, params.n // 2 + 1))
            family.append(rng.sample(ids, min(size, params.n)))

    instance = make_instance(elements, family, params.problem, params.k)
    values = {}
    for eid, iv in enumerate(elements, 1):
        if iv.trivial:  # a point's value is its one Fraction, shared as in the interval
            values[eid] = iv.lower
        else:  # t eighths of the way up, on the integer endpoints; strictly inside an open end
            t = rng.randint(1 if iv.lower_kind is OPEN else 0, 7 if iv.upper_kind is OPEN else 8)
            values[eid] = Fraction((8 - t) * iv.lower.numerator + t * iv.upper.numerator, 8)
    return instance, Realization(values)
