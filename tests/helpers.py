"""Shared test machinery: an algorithm wrapper that lets a test watch
every round of a `harness.run`, and the exact round bound of the budget
algorithm's guarantee."""

from fractions import Fraction
from functools import lru_cache
from math import isqrt


class Probed:
    """Wraps a round algorithm so that `probe(knowledge, picked)` sees each
    round it emits, before the round is answered.

    Hand it to `harness.run` in place of the algorithm: the run loop and
    its audits stay the harness's own.
    """

    def __init__(self, alg, probe):
        self.alg = alg
        self.probe = probe

    def next_round(self, instance, knowledge):
        picked = self.alg.next_round(instance, knowledge)
        self.probe(knowledge, picked)
        return picked


@lru_cache(maxsize=None)
def budget_round_bound(opt_k: int, m: int) -> Fraction:
    """Certified lower estimate of the budget algorithm's round guarantee,
    minimized over the epsilon grid 0.1 .. 0.9.

    bound(eps) = (2 + eps) * opt_k + (5/eps) * ceil(log_{r/(r-1)} m) with
    r = (2(1+eps) + sqrt(2 eps^2 + 4 eps + 4)) / eps.  The square root is
    bracketed in exact rationals and the smaller ceil is used, so any run
    satisfying the returned value satisfies the true bound as well.
    """
    best = None
    scale = 10**30
    for num in range(1, 10):
        eps = Fraction(num, 10)
        s = 2 * eps * eps + 4 * eps + 4
        root = isqrt(s.numerator * scale * scale // s.denominator)
        r_lo = (2 * (1 + eps) + Fraction(root, scale)) / eps
        # the log term shrinks as the base grows; the largest admissible
        # base comes from the smallest r
        base_hi = r_lo / (r_lo - 1)
        t = 0
        power = Fraction(1)
        while power < m:
            power *= base_hi
            t += 1
        bound = (2 + eps) * opt_k + Fraction(5) / eps * t
        if best is None or bound < best:
            best = bound
    return best
