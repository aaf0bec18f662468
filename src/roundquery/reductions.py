"""Adapters between the k-per-round model and the bounded-batch model.

A batch algorithm may ask arbitrarily many queries per batch but only a
fixed number r of batches; the adapters split batches into rounds of k and
conversely schedule a round algorithm at growing k values.  All arithmetic
is exact: the k values are integer roots found by bisection.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Callable, FrozenSet, List

from .instances import Instance, SORTING
from .intervals import KnowledgeState
from .solving import AlgorithmError, OpenSets, forced_queries, greedy_matching_cover


class QueryAllBatch:
    """Non-adaptive single batch: everything still uncertain."""

    def next_batch(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        return knowledge.unqueried_nontrivial(instance.ids())


class TwoBatchSorting:
    """Vertex-cover batch, then the intervals pinned by the revealed points.

    Batch one queries `cover(instance, knowledge)`, a vertex cover of the
    dependency graph: by default the matched vertices of a greedy maximal
    matching, taken from the sweep's partner lists by
    `solving.greedy_matching_cover`, so no edge list is built.  Batch two
    queries every remaining interval that strictly contains a known co-set
    point.  No third batch can be needed, whatever the cover: the
    intervals it leaves are pairwise independent within each set, so no
    value revealed in batch two lands strictly inside one of them.  With
    no dependent pair at all, the cover is empty and batch one is the
    forced set instead.  Run in rounds of k by `BatchesToRounds`, it is
    the round algorithm `sorting-matching`, and with a minimum cover
    `sorting-vc`.
    """

    def __init__(
        self, cover: Callable[[Instance, KnowledgeState], FrozenSet[int]] = greedy_matching_cover
    ) -> None:
        self.cover = cover
        self._stage = 0

    def next_batch(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        if instance.problem.kind is not SORTING:
            raise AlgorithmError("two-batch algorithm handles sorting instances only")
        self._stage += 1
        if self._stage == 1:
            cover = self.cover(instance, knowledge)
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


class RoundsToBatches:
    """Batch algorithm running a round algorithm at geometrically growing k.

    With r = floor(alpha)*x + 1 batches available, sequence i runs the
    wrapped algorithm for floor(alpha) rounds at k_i = ceil(n^{(i-1)/x}),
    the least integer k with k^x >= n^{i-1}, computed when sequence i
    starts; one final batch queries everything left.  Non-integer powers
    round up: a larger round only strengthens a batch.
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
        self._sized = self._alg = None

    def _k(self, i: int) -> int:
        """k_i, the round size of sequence i counted from 1: the least
        integer k >= 1 with k^x >= n^{i-1}, by an integer bisection.  Its
        upper bound 2^ceil(b/x), b the bit length of n^{i-1}, is such a k,
        since its x-th power is at least 2^b > n^{i-1}."""
        target = self.n ** (i - 1)
        lo, hi = 1, 1 << -(-target.bit_length() // self.x)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**self.x >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def next_batch(self, instance: Instance, knowledge: KnowledgeState, open_sets: OpenSets) -> List[int]:
        seq, step = divmod(self.batches_used, self.floor_alpha)
        self.batches_used += 1
        if seq >= self.x:
            # QueryAllBatch's batch, inline: perfbench's tracer spans every
            # next_batch, so a nested call would count this batch twice
            return knowledge.unqueried_nontrivial(instance.ids())
        if step == 0:
            self._sized = replace(instance, k=self._k(seq + 1))
            self._alg = self.make_round_alg(self._sized)
        return list(self._alg.next_round(self._sized, knowledge, open_sets))
