"""Slow references for the tests: each reads what a fast path reads, one step at a time."""

from typing import Iterator

from cantorlearn.cantor import Bits
from cantorlearn.randomness import INFINITE_DEFICIENCY, ComplexityEstimator


def prefix_deficiencies(table, est: ComplexityEstimator, e: int, x: Bits) -> Iterator:
    """The deficiency of each prefix of x at stage |x|, empty prefix first;
    the estimate is read at every prefix of positive sup."""
    stage = max(1, len(x))
    tracker, handed = est.tracker(), 0
    for i, k in enumerate(table.prefix_sup_bits(e, x, stage)):
        if k == INFINITE_DEFICIENCY:
            yield k
        else:
            tracker.push(x[handed:i])
            handed = i
            yield k - tracker.upper(stage)
