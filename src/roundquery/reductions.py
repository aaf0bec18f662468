"""Adapters between the k-per-round model and the bounded-batch model.

A batch algorithm may ask arbitrarily many queries per batch but only a
fixed number r of batches; the adapters split batches into rounds of k and
conversely schedule a round algorithm at growing k values.  All arithmetic
is exact; `_ceil_pow` starts from a floating-point root estimate and
corrects it with integer powers.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Callable, List

from .algorithms import AlgorithmError, OpenSets
from .instances import Instance, SORTING
from .intervals import KnowledgeState
from .solving import forced_queries, greedy_matching_cover


class QueryAllBatch:
    """Non-adaptive single batch: everything still uncertain."""

    def next_batch(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        return sorted(knowledge.unqueried_nontrivial(instance.ids()))


class TwoBatchSorting:
    """Matching batch, then the intervals pinned by the revealed points.

    Batch one queries the matched vertices of a greedy maximal matching of
    the dependency graph, taken from the sweep's partner lists by
    `solving.greedy_matching_cover`, so no edge list is built; batch two
    queries every remaining interval that strictly contains a known co-set
    point.  No third batch can be needed: values revealed in batch two
    cannot land strictly inside an interval that was independent of
    everything queried before.  With no dependent pair at all, batch one
    is the forced set instead, and no revealed value can then fall
    strictly inside a co-set interval.  Run in rounds of k by
    `BatchesToRounds`, it is the round algorithm `sorting-matching`.
    """

    def __init__(self) -> None:
        self._stage = 0

    def next_batch(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        if instance.problem.kind is not SORTING:
            raise AlgorithmError("two-batch algorithm handles sorting instances only")
        self._stage += 1
        if self._stage == 1:
            cover = greedy_matching_cover(instance, knowledge)
            if cover:
                return sorted(cover)
            self._stage = 2
        forced = forced_queries(instance, knowledge)
        if self._stage > 2 and forced:
            raise AlgorithmError("two-batch sorting required a third batch")
        return forced


class BatchesToRounds:
    """Round algorithm that replays a batch algorithm in chunks of k.

    The wrapped algorithm is consulted only at batch boundaries, so its
    query multiset is preserved exactly; an alpha-competitive r-batch
    algorithm yields at most alpha*opt_k + r - 1 rounds.
    """

    def __init__(self, batch_alg) -> None:
        self.batch_alg = batch_alg
        self.batches_used = 0
        self._queue: List[int] = []

    def next_round(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        if not self._queue:
            self._queue = list(self.batch_alg.next_batch(instance, knowledge, open_sets))
            self.batches_used += 1
        chunk = self._queue[: instance.k]
        del self._queue[: instance.k]
        return chunk


def _ceil_pow(n: int, num: int, den: int) -> int:
    """ceil(n ** (num/den)) in exact integer arithmetic."""
    if num == 0 or n <= 1:
        return 1
    target = n**num
    root = round(target ** (1.0 / den))
    while root**den > target:
        root -= 1
    while (root + 1) ** den <= target:
        root += 1
    return root if root**den == target else root + 1


class RoundsToBatches:
    """Batch algorithm running a round algorithm at geometrically growing k.

    With r = floor(alpha)*x + 1 batches available, sequence i runs the
    wrapped algorithm for floor(alpha) rounds at k = ceil(n^{(i-1)/x});
    one final batch queries everything left.  Non-integer powers round up:
    a larger round only strengthens a batch.
    """

    def __init__(self, make_round_alg: Callable[[Instance], object], alpha: Fraction, r: int, n: int):
        self.floor_alpha = int(alpha)
        if self.floor_alpha < 1:
            raise AlgorithmError("alpha must be at least 1")
        self.x = (r - 1) // self.floor_alpha
        if self.x < 1:
            raise AlgorithmError("need r >= floor(alpha) + 1 batches")
        self.make_round_alg = make_round_alg
        self.n = n
        self.batches_used = 0
        self._seq = 1
        self._round_in_seq = 0
        self._alg = None
        self.k_schedule = [_ceil_pow(n, i - 1, self.x) for i in range(1, self.x + 1)]

    def next_batch(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        self.batches_used += 1
        if self._seq > self.x:
            return sorted(knowledge.unqueried_nontrivial(instance.ids()))
        sized = replace(instance, k=self.k_schedule[self._seq - 1])
        if self._round_in_seq == 0:
            self._alg = self.make_round_alg(sized)
        self._round_in_seq += 1
        if self._round_in_seq >= self.floor_alpha:
            self._seq += 1
            self._round_in_seq = 0
        return list(self._alg.next_round(sized, knowledge, open_sets))
