"""Slow references for the tests: each reads what a fast path reads, one step at a time,
from the exact values (``Fraction`` masses, whole-prefix estimates) rather than from counts."""

import math
from typing import Iterator

from cantorlearn.cantor import Bits
from cantorlearn.measures import Measure, ceil_neg_log2
from cantorlearn.randomness import INFINITE_DEFICIENCY, ComplexityEstimator


def mass_bits(mu: Measure, word: Bits) -> list:
    """ceil(-log2) of the exact mass of "" and of each prefix of word, ``math.inf`` at a zero
    mass: one ``Measure.mass`` per prefix, so a rule read past a source's end raises there."""
    return [ceil_neg_log2(m) if (m := mu.mass(word[:n])) else math.inf for n in range(len(word) + 1)]


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
