"""Compressor-backed surrogate for prefix-free complexity and the
measure-relative randomness deficiency used by every learner.

The estimate is a min over a fixed codec family (literal first, so the
|word| + header ceiling always holds) plus per-codec id penalties.  Learners
consume deficiencies through comparisons and thresholds only; nothing here
claims calibration against a universal machine.

A prefix walk takes O(1) steps per bit.  Every codec costs O(1) amortised
per pushed bit, and the masses of an exact measure come from
``ProgramTable.prefix_sups`` as a running product, one ``Fraction`` multiply
per bit.  The KT codec keeps only its two counts and reads its exact length
from a closed form, through a float fast path that is used only when it is
certified and an exact integer fallback otherwise.  The zlib codec feeds one
shared compressor per tracker, block by block, and reads the length of a
copy flushed at each block boundary.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from .cantor import BadWordError, Bits, check_bits
from .measures import MeasureBall

INFINITE_DEFICIENCY = math.inf

LITERAL_HEADER = 32
CODEC_HEADER = 8
ZLIB_BLOCK_BITS = 256
# KT lengths come from floats only when more than this times (n + 1) bits
# from an integer; see KTCodec
KT_FLOAT_MARGIN = 1e-12
_LN2 = math.log(2)


def _ceil_log2_ratio(num: int, den: int) -> int:
    """Smallest k >= 0 with num * 2^k >= den, for positive integers."""
    k = max(0, den.bit_length() - num.bit_length() - 1)
    while (num << k) < den:
        k += 1
    return k


def ceil_neg_log2(u: Fraction) -> int:
    """Exact ceil(-log2 u) for rational u in (0, 1]; 0 for u >= 1."""
    if u <= 0:
        raise ValueError("u must be positive")
    return _ceil_log2_ratio(u.numerator, u.denominator)


def elias_gamma_bits(n: int) -> int:
    """Bit cost of Elias-gamma coding a positive integer."""
    return 2 * (n.bit_length() - 1) + 1


def pack_bits(word: Bits) -> bytes:
    out = bytearray()
    for i in range(0, len(word), 8):
        out.append(int(word[i : i + 8].ljust(8, "0"), 2))
    return bytes(out)


class Codec:
    """An incremental coder: ``push`` bits one at a time and read ``cost()``
    at any point; ``cost(word)`` codes a word from a fresh start instead."""

    name = "codec"

    def tracker(self) -> "Codec":
        """A fresh codec of the same kind, with nothing pushed yet."""
        return type(self)()

    def push(self, ch: str) -> None:
        raise NotImplementedError

    def cost(self, word: Optional[Bits] = None) -> int:
        if word is None:
            return self._length()
        fresh = self.tracker()
        for ch in word:
            fresh.push(ch)
        return fresh._length()

    def _length(self) -> int:
        """Code length of the bits pushed so far."""
        raise NotImplementedError


class LiteralCodec(Codec):
    name = "literal"

    def __init__(self):
        self.n = 0

    def push(self, ch):
        self.n += 1

    def _length(self):
        return self.n + LITERAL_HEADER


class RunLengthCodec(Codec):
    name = "run-length"

    def __init__(self):
        self.n = 0
        self.last = None
        self.run = 0
        self.done = 0  # gamma bits of completed runs

    def push(self, ch):
        self.n += 1
        if ch == self.last:
            self.run += 1
        else:
            if self.last is not None:
                self.done += elias_gamma_bits(self.run)
            self.last = ch
            self.run = 1

    def _length(self):
        if self.n == 0:
            return CODEC_HEADER
        return 1 + self.done + elias_gamma_bits(self.run) + CODEC_HEADER


class PatternCodec(Codec):
    """Smallest-period coder: period bits verbatim plus two gamma lengths."""

    name = "pattern"

    def __init__(self):
        self.word: list[str] = []
        self.border = [0]  # KMP failure function

    def push(self, ch):
        w = self.word
        k = self.border[len(w)] if w else 0
        while k and w[k] != ch:
            k = self.border[k]
        if w and w[k] == ch:
            k += 1
        elif not w:
            k = 0
        w.append(ch)
        self.border.append(k)

    def _length(self):
        n = len(self.word)
        if n == 0:
            return CODEC_HEADER
        period = n - self.border[n]
        reps = -(-n // period)
        return elias_gamma_bits(period) + period + elias_gamma_bits(reps) + CODEC_HEADER


class KTCodec(Codec):
    """Order-0 adaptive coder with the Krichevsky-Trofimov estimator, exact.

    The KT probability of a word with a zeros and b ones, n = a + b, does not
    depend on their order: P = (2a)! (2b)! / (4^n n! a! b!).  So the tracker
    keeps only the counts, and the length is ceil(L) + header with
    L = log2(1/P).

    Fast path: L is computed in floats from five ``math.lgamma`` values.
    Their arguments are at most 2n + 1, so each value is at most
    M = (2n+1) ln(2n+1) nats.  Assuming each lgamma is within 2 ulps, and
    with half an ulp for each of the four sums and the division by ln 2, the
    error is below
    10 * 2^-52 * M / ln 2, about 6.4e-15 (n+1) ln(2n+1) bits.  Measured
    against a 60-digit value of L on 272 (a, b) pairs with n up to 131072,
    the worst error was 7.2e-15 (n+1) bits.  ceil(L) is returned only when L
    lies more than KT_FLOAT_MARGIN * (n + 1) = 1e-12 (n + 1) from every
    integer: over 100 times the measured worst case, and above the bound
    while ln(2n+1) < 150, that is for every n a word can have.  Otherwise
    the length comes exactly from ``_ceil_log2_ratio`` on the factorial
    products.
    """

    name = "kt"

    def __init__(self):
        self.t = 0
        self.zeros = 0

    def push(self, ch):
        self.t += 1
        if ch == "0":
            self.zeros += 1

    def _length(self):
        n, a = self.t, self.zeros
        if n == 0:
            return CODEC_HEADER
        b = n - a
        lg = math.lgamma
        bits = 2 * n + (lg(n + 1) + lg(a + 1) + lg(b + 1) - lg(2 * a + 1) - lg(2 * b + 1)) / _LN2
        if abs(bits - round(bits)) > KT_FLOAT_MARGIN * (n + 1):
            return math.ceil(bits) + CODEC_HEADER
        f = math.factorial
        den = (f(n) * f(a) * f(b)) << (2 * n)
        return _ceil_log2_ratio(f(2 * a) * f(2 * b), den) + CODEC_HEADER


class ZlibBlockCodec(Codec):
    """zlib over complete bit blocks plus a literal tail, so pushes stay cheap.

    Each tracker feeds one ``zlib.compressobj(9)`` (the level, window and
    memory level of ``zlib.compress(..., 9)``) with every completed block as
    packed bytes.  At a block boundary the block cost is 8 times the bytes
    emitted so far plus those a flushed copy of the compressor emits, which
    is the length of ``zlib.compress`` on the whole packed prefix.
    """

    name = "zlib-block"

    def __init__(self):
        self.block: list[str] = []
        self.compressor = zlib.compressobj(9)
        self.emitted = 0
        self.block_cost = 0

    def push(self, ch):
        self.block.append(ch)
        if len(self.block) == ZLIB_BLOCK_BITS:
            self.emitted += len(self.compressor.compress(pack_bits("".join(self.block))))
            self.block = []
            self.block_cost = 8 * (self.emitted + len(self.compressor.copy().flush()))

    def _length(self):
        return self.block_cost + len(self.block) + CODEC_HEADER


DEFAULT_CODECS: tuple[Codec, ...] = (
    LiteralCodec(),
    RunLengthCodec(),
    PatternCodec(),
    KTCodec(),
    ZlibBlockCodec(),
)


class ComplexityEstimator:
    """min over the stage-available codec prefix of (code length + id penalty 2i)."""

    def __init__(self, codecs: Sequence[Codec] = DEFAULT_CODECS):
        if not codecs or codecs[0].name != "literal":
            raise ValueError("codec family must lead with the literal codec")
        self.codecs = tuple(codecs)

    def upper(self, word: Bits, stage: int) -> int:
        if stage < 1:
            raise ValueError("stage must be >= 1")
        check_bits(word)
        avail = min(stage, len(self.codecs))
        return min(self.codecs[i].cost(word) + 2 * i for i in range(avail))

    def tracker(self) -> "EstimatorTracker":
        return EstimatorTracker(self)


class EstimatorTracker:
    """Incremental estimate along a growing word."""

    def __init__(self, est: ComplexityEstimator):
        self.trackers = [c.tracker() for c in est.codecs]

    def push(self, ch: str) -> None:
        if ch != "0" and ch != "1":
            raise BadWordError(f"not a bit: {ch!r}")
        for t in self.trackers:
            t.push(ch)

    def upper(self, stage: int) -> int:
        if stage < 1:
            raise ValueError("stage must be >= 1")
        avail = min(stage, len(self.trackers))
        return min(self.trackers[i].cost() + 2 * i for i in range(avail))


def _deficiency(u: Fraction, upper: Callable[[], int]):
    """ceil(-log2 u) minus the estimate, which is read only when u > 0."""
    if u == 0:
        return INFINITE_DEFICIENCY
    return ceil_neg_log2(u) - upper()


def deficiency(table, est: ComplexityEstimator, e: int, word: Bits, stage: int):
    """ceil(-log2 of the stage-knowledge sup of the entry's mass) minus the estimate."""
    u = table.eval_measure(e, word, stage).hi
    return _deficiency(u, partial(est.upper, word, max(1, stage)))


def deficiency_ball(ball: MeasureBall, est: ComplexityEstimator, word: Bits, stage: int):
    """Deficiency against the sup of the mass over all measures in a ball."""
    return _deficiency(ball.sup_mass(word), partial(est.upper, word, max(1, stage)))


def prefix_deficiencies(table, est: ComplexityEstimator, e: int, x: Bits) -> Iterator:
    """The deficiency of each prefix of x at stage |x|, empty prefix first.

    One incremental estimator and one ``table.prefix_sups`` walk x together,
    so each bit costs one push and, on exact measures, one mass step.
    """
    stage = max(1, len(x))
    tracker = est.tracker()
    upper = partial(tracker.upper, stage)
    sups = table.prefix_sups(e, x, stage)
    yield _deficiency(next(sups), upper)
    for ch, u in zip(x, sups):
        tracker.push(ch)
        yield _deficiency(u, upper)


def random_verdict(table, est: ComplexityEstimator, e: int, x: Bits, c) -> bool:
    """Finite-horizon randomness surrogate: every prefix deficiency stays <= c."""
    check_bits(x)
    if c == INFINITE_DEFICIENCY:
        return True
    return all(d <= c for d in prefix_deficiencies(table, est, e, x))


def max_prefix_deficiency(table, est: ComplexityEstimator, e: int, x: Bits):
    """Largest prefix deficiency along x at stage |x| (reporting helper)."""
    return max(prefix_deficiencies(table, est, e, x))
