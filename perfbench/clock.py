"""Wall-clock timing normalised by a fixed pure-Python reference loop.

The speed of a shared vCPU drifts by tens of percent within seconds, so raw
seconds from two runs do not compare.  Work is therefore timed in blocks
with the reference loop run between blocks, and each block's raw seconds
are scaled by NOMINAL_REF_S / (mean of the reference times just before and
just after it).  A normalised second is a second on a machine where the
reference loop takes NOMINAL_REF_S.  Raw seconds and every reference time
are kept, so each normalised number can be traced back to raw data.

The loop imitates the package's own kind of work: sorting Fractions,
hashing them into a dict of small objects, membership tests.  On a
contended host such code slows down about twice as much as a bare integer
loop does, and in trials of both small and large instances a loop like
this one tracked the drift best (per-block spread of trial time over
reference time 0.16-0.18, against 0.29-0.31 for an integer loop and
0.46-0.52 raw).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Tuple

NOMINAL_REF_S = 0.1  # about what ReferenceLoop takes on a 2-vCPU x86 sandbox


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        self.lo, self.hi = lo, hi


class ReferenceLoop:
    ROUNDS = 6

    def __init__(self) -> None:
        self.values = [Fraction(i * 7919 % 1013, 1 + i % 7) for i in range(3000)]

    def __call__(self) -> float:
        """Raw seconds of one fixed pass."""
        start = perf_counter()
        for r in range(self.ROUNDS):
            ordered = sorted(self.values[r % 2::2])
            boxes = {v: _Box(v, v + 1) for v in ordered[:500]}
            sum(1 for v in ordered if v in boxes)
        return perf_counter() - start


class BlockTimer:
    """Times keyed pieces of work; closes a block, and runs the reference
    loop, once the open block holds at least `block_s` raw seconds.  Work
    that raises is not timed."""

    def __init__(self, block_s: float) -> None:
        self.block_s = block_s
        self.reference_loop = ReferenceLoop()
        self.refs: List[float] = [self.reference_loop()]
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.norm: Dict[str, List[float]] = defaultdict(list)
        self._open: List[Tuple[str, float]] = []
        self._open_s = 0.0

    def time(self, key: str, fn: Callable):
        start = perf_counter()
        result = fn()
        took = perf_counter() - start
        self._open.append((key, took))
        self._open_s += took
        if self._open_s >= self.block_s:
            self.close_block()
        return result

    def close_block(self) -> None:
        if not self._open:
            return
        before = self.refs[-1]
        after = self.reference_loop()
        self.refs.append(after)
        scale = NOMINAL_REF_S / ((before + after) / 2)
        for key, took in self._open:
            self.raw[key].append(took)
            self.norm[key].append(took * scale)
        self._open = []
        self._open_s = 0.0

    def medians(self) -> Dict[str, float]:
        """Normalised median per key."""
        return {key: statistics.median(values) for key, values in self.norm.items()}
