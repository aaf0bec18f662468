"""Query-answering oracles: fixed realizations and the adaptive adversaries.

Every oracle answers a whole round at once (it may inspect how the round's
queries are distributed before committing any value) and can finalize into
a realization that agrees with everything it has answered, assigning
admissible values to the elements never queried.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .instances import (
    Instance,
    InstanceError,
    MINIMUM,
    ProblemKind,
    Realization,
    SELECTION_FULL,
    SELECTION_VALUE,
    SORTING,
    make_instance,
)
from .intervals import UncertainInterval


class OracleError(RuntimeError):
    """Oracle asked to behave inconsistently."""


class ValueOracle:
    """Round-batched answering with a committed-value log.

    Subclasses implement `_commit_fresh`, which must store a value for
    every not-yet-committed id of the round and for no other id; repeated
    queries always see the first committed value, so `committed` holds
    each answer once.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.committed: Dict[int, Fraction] = {}

    def answer_round(self, ids: Sequence[int]) -> Dict[int, Fraction]:
        ids = tuple(ids)
        # looked up before anything is committed, so an unknown id is
        # rejected as such rather than answered
        intervals = [self.instance.interval(e) for e in ids]
        fresh = [e for e in ids if e not in self.committed]
        self._commit_fresh(fresh)
        answers = {}
        for e, iv in zip(ids, intervals):
            if e not in self.committed:
                raise OracleError(f"no value committed for element {e}")
            v = self.committed[e]
            if not iv.contains(v):
                raise OracleError(f"committed value {v} outside interval of element {e}")
            answers[e] = v
        return answers

    def _commit_fresh(self, ids: Sequence[int]) -> None:
        raise NotImplementedError

    def finalize(self) -> Realization:
        raise NotImplementedError

    def check_finalize(self) -> Realization:
        """Finalize and re-verify agreement with every committed answer."""
        realization = self._finalize_valid()
        for e, v in self.committed.items():
            if realization.value(e) != v:
                raise OracleError(f"finalize contradicts logged answer for element {e}")
        return realization

    def _finalize_valid(self) -> Realization:
        """`finalize`, checked to give every element a value inside its interval."""
        realization = self.finalize()
        realization.validate(self.instance)
        return realization


class FixedOracle(ValueOracle):
    """Answers from one realization, validated once, at construction, on a
    private copy of its values, so a caller's later edit to the dict it
    passed changes neither the answers nor the finalized realization."""

    def __init__(self, instance: Instance, realization: Realization):
        super().__init__(instance)
        self.realization = Realization(dict(realization.values))
        self.realization.validate(instance)

    def _commit_fresh(self, ids: Sequence[int]) -> None:
        for e in ids:
            self.committed[e] = self.realization.value(e)

    def finalize(self) -> Realization:
        return self.realization

    def _finalize_valid(self) -> Realization:
        return self.realization  # validated in __init__, and nothing writes it since


# ---------------------------------------------------------------------------
# sorting: pairs of dependent intervals


class SortingPairAdversary(ValueOracle):
    """k*c copies of two dependent intervals within one sorting problem.

    Whichever element of a pair is queried first answers inside the
    overlap, forcing its partner to be queried as well; the partner then
    answers outside the overlap, so a single (second) query per pair would
    have sufficed.  Querying both halves of a pair in the same round earns
    the both-inside configuration instead, which also needs both queries
    from the optimum.
    """

    def __init__(self, c: int, k: int):
        if c < 1 or k < 1:
            raise InstanceError("need c >= 1 and k >= 1")
        elements = []
        for p in range(c * k):
            base = Fraction(4 * p)
            elements.append(UncertainInterval.closed(base, base + 2))
            elements.append(UncertainInterval.closed(base + 1, base + 3))
        instance = make_instance(
            elements, [list(range(1, 2 * c * k + 1))], ProblemKind(SORTING), k
        )
        super().__init__(instance)

    @staticmethod
    def _pair(eid: int) -> Tuple[int, int, bool]:
        p = (eid - 1) // 2
        return p, (eid - 1) % 2, eid % 2 == 1  # pair index, side, is_left

    def _inside(self, eid: int) -> Fraction:
        p, side, _ = self._pair(eid)
        return Fraction(4 * p) + Fraction(17, 12) + side * Fraction(2, 12)

    def _outside(self, eid: int) -> Fraction:
        p, _, is_left = self._pair(eid)
        base = Fraction(4 * p)
        return base + Fraction(1, 2) if is_left else base + Fraction(5, 2)

    def _commit_fresh(self, ids: Sequence[int]) -> None:
        fresh = set(ids)
        for e in sorted(fresh):
            partner = e + 1 if e % 2 == 1 else e - 1
            if partner in fresh:
                self.committed[e] = self._inside(e)  # both halves this round
            elif partner in self.committed:
                self.committed[e] = self._outside(e)
            else:
                self.committed[e] = self._inside(e)

    def finalize(self) -> Realization:
        values = dict(self.committed)
        for e in self.instance.ids():
            values.setdefault(e, self._outside(e))  # every unanswered element: outside
        return Realization(values)


# ---------------------------------------------------------------------------
# minimum: disjoint-set lower bounds


class _PrefixSetAdversary(ValueOracle):
    """Shared machinery for the disjoint-set minimum adversaries.

    m disjoint sets carry the same ladder of open intervals (1 + i*eps,
    100 + i*eps), eps = 1/m, on rungs i = 1..per_set; set idx holds ids
    idx*per_set + 1 to (idx+1)*per_set, so `divmod(eid - 1, per_set)`
    gives an id's set and rung.  Answers are "high" until the adversary
    decides to solve a set, which pins the minimum at the leftmost rung
    queried in the current round (one query of that round would have
    sufficed).
    """

    def __init__(self, m: int, k: int, per_set: int):
        self.eps = eps = Fraction(1, m)
        ladder = [UncertainInterval.open(1 + i * eps, 100 + i * eps) for i in range(1, per_set + 1)]
        family = [range(idx * per_set + 1, (idx + 1) * per_set + 1) for idx in range(m)]
        super().__init__(make_instance(ladder * m, family, ProblemKind(MINIMUM), k))
        self.per_set = per_set
        self.active = set(range(m))
        self.rounds_seen = 0
        self.decision_log: List[str] = []

    def _rung(self, eid: int) -> Tuple[int, int]:
        """(set index, position from 1) of an id."""
        idx, offset = divmod(eid - 1, self.per_set)
        return idx, offset + 1

    def _high(self, eid: int) -> Fraction:
        i = self._rung(eid)[1]
        return 100 + (2 * i - 1) * self.eps / 2

    def _min_at(self, position: int) -> Fraction:
        return 1 + (2 * position + 1) * self.eps / 2

    def _queried_positions(self, set_idx: int) -> set:
        first = set_idx * self.per_set
        return {p for p in range(1, self.per_set + 1) if first + p in self.committed}

    def _solve_set(self, set_idx: int, round_positions: Sequence[int]) -> bool:
        """Re-pin the set's minimum at the leftmost this-round position whose
        prefix is fully queried; returns False if the algorithm left holes."""
        queried = self._queried_positions(set_idx)
        for pos in sorted(round_positions):
            if all(p in queried for p in range(1, pos)):
                self.committed[set_idx * self.per_set + pos] = self._min_at(pos)
                self.active.discard(set_idx)
                return True
        return False

    def _commit_fresh(self, ids: Sequence[int]) -> None:
        self.rounds_seen += 1
        candidates: Dict[int, List[int]] = {}
        # high answers first; a chosen minimum overwrites its own entry
        for e in ids:
            self.committed[e] = self._high(e)
            idx, pos = self._rung(e)
            if idx in self.active:
                candidates.setdefault(idx, []).append(pos)
        for positions in candidates.values():
            positions.sort()
        self._react(candidates)

    def _react(self, candidates: Dict[int, List[int]]) -> None:
        raise NotImplementedError

    def finalize(self) -> Realization:
        values = dict(self.committed)
        for idx in sorted(self.active):
            queried = self._queried_positions(idx)
            # an active set whose every rung was answered keeps its answers:
            # all are high, and rung 1 holds its minimum
            pos = next((p for p in range(1, self.per_set + 1) if p not in queried), None)
            if pos is not None:
                values[idx * self.per_set + pos] = self._min_at(pos)
        for e in self.instance.ids():
            values.setdefault(e, self._high(e))
        return Realization(values)


class MinimumWlbAdversary(_PrefixSetAdversary):
    """m = M^M sets, k = M^{M+1}: any algorithm needs M rounds while opt_k = 1.

    Each round the heaviest-queried active sets are solved until they
    account for (M-1)k/M of the round's queries; at least a 1/M fraction of
    the active sets survives.  Round M solves everything that was queried.
    """

    def __init__(self, M: int):
        if M < 2:
            raise InstanceError("need M >= 2")
        k = M ** (M + 1)
        # full ladders have M*k rungs, but a round with a active sets puts at
        # most ceil(k/a) queries into one set and at least a/M sets survive,
        # so k/m * (M^M - 1)/(M - 1) rungs per set are ever reachable; capping
        # there keeps M = 3 at desk scale
        reach = M * (M**M - 1) // (M - 1)
        super().__init__(M**M, k, min(M * k, reach + M))
        self.M = M

    def _react(self, candidates: Dict[int, List[int]]) -> None:
        if self.rounds_seen >= self.M:
            for idx, positions in sorted(candidates.items()):
                self._solve_set(idx, positions)
            return
        threshold = Fraction((self.M - 1) * self.instance.k, self.M)
        order = sorted(candidates, key=lambda idx: (-len(candidates[idx]), idx))
        covered = 0
        chosen: List[int] = []
        for idx in order:
            if covered >= threshold:
                break
            chosen.append(idx)
            covered += len(candidates[idx])
        for idx in chosen:
            if self._solve_set(idx, candidates[idx]):
                self.decision_log.append(f"round {self.rounds_seen}: solved set {idx + 1}")


class MinimumAdditiveLbAdversary(_PrefixSetAdversary):
    """k = m sets: solving only the heaviest-queried set each round wastes
    at least k*(H(m) - 1) queries for any algorithm."""

    def __init__(self, m: int):
        if m < 2:
            raise InstanceError("need m >= 2")
        super().__init__(m, m, m * m)

    def _react(self, candidates: Dict[int, List[int]]) -> None:
        if not candidates:
            return
        idx = min(candidates, key=lambda i: (-len(candidates[i]), i))
        if self._solve_set(idx, candidates[idx]):
            self.decision_log.append(f"round {self.rounds_seen}: solved set {idx + 1}")


# ---------------------------------------------------------------------------
# selection lower bounds


class SelectionFullLbAdversary(ValueOracle):
    """i-1 copies of [0,3], i-1 copies of [5,8], one middle interval [2,6].

    The middle value depends on the first round: 4 if the middle was not
    queried there; otherwise 11/2 when more left-side than right-side
    intervals were queried, else 5/2.
    """

    def __init__(self, i: int):
        if i < 2:
            raise InstanceError("need i >= 2")
        elements = (
            [UncertainInterval.closed(0, 3) for _ in range(i - 1)]
            + [UncertainInterval.closed(2, 6)]
            + [UncertainInterval.closed(5, 8) for _ in range(i - 1)]
        )
        instance = make_instance(
            elements,
            [list(range(1, 2 * i))],
            ProblemKind(SELECTION_FULL, rank=i),
            i,
        )
        super().__init__(instance)
        self.middle = i
        self.middle_value: Optional[Fraction] = None

    def _decide_middle(self, first_round: Sequence[int]) -> None:
        if self.middle not in first_round:
            self.middle_value = Fraction(4)
            return
        lefts = sum(1 for e in first_round if e < self.middle)
        rights = sum(1 for e in first_round if e > self.middle)
        self.middle_value = Fraction(11, 2) if lefts > rights else Fraction(5, 2)

    def _value(self, eid: int) -> Fraction:
        """1 left of the middle, 7 right of it, the middle value at it."""
        if eid == self.middle:
            return self.middle_value
        return Fraction(1) if eid < self.middle else Fraction(7)

    def _commit_fresh(self, ids: Sequence[int]) -> None:
        if self.middle_value is None:
            self._decide_middle(ids)
        for e in ids:
            self.committed[e] = self._value(e)

    def finalize(self) -> Realization:
        if self.middle_value is None:
            self.middle_value = Fraction(4)
        return Realization({e: self._value(e) for e in self.instance.ids()})


class SelectionValueLbAdversary(ValueOracle):
    """i copies of (0,5) plus i copies of {3}; rank i.

    The first i-1 wide intervals answered get 1, the i-th gets 4, so any
    algorithm needs all i wide queries while a single query (the one that
    answers 4) already pins the i-th smallest value to 3.  `finalize`
    continues the same count over the wide intervals never answered.
    """

    def __init__(self, i: int, k: Optional[int] = None):
        if i < 1:
            raise InstanceError("need i >= 1")
        k = i if k is None else k
        elements = [UncertainInterval.open(0, 5) for _ in range(i)] + [
            UncertainInterval.point(3) for _ in range(i)
        ]
        instance = make_instance(
            elements, [list(range(1, 2 * i + 1))], ProblemKind(SELECTION_VALUE, rank=i), k
        )
        super().__init__(instance)
        self.i = i
        self.wide_answered = 0

    def _answer(self, values: Dict[int, Fraction], ids: Sequence[int], wide: int) -> int:
        """Store the answer of each id in id order: 3 for a point, 4 for the
        i-th wide interval answered, 1 for the others; returns how many wide
        intervals are answered after, given `wide` before."""
        for e in sorted(ids):
            if e > self.i:
                values[e] = Fraction(3)
                continue
            wide += 1
            values[e] = Fraction(4) if wide == self.i else Fraction(1)
        return wide

    def _commit_fresh(self, ids: Sequence[int]) -> None:
        self.wide_answered = self._answer(self.committed, ids, self.wide_answered)

    def finalize(self) -> Realization:
        values = dict(self.committed)
        self._answer(values, [e for e in self.instance.ids() if e not in values], self.wide_answered)
        return Realization(values)
