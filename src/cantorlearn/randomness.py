"""Compressor-backed surrogate for prefix-free complexity and the
measure-relative randomness deficiency used by every learner.

The estimate is a min over a fixed codec family (literal first, so the
|word| + header ceiling always holds) plus per-codec id penalties.  Learners
consume deficiencies through comparisons and thresholds only; nothing here
claims calibration against a universal machine.

A prefix walk takes O(1) steps per bit.  A codec's ``push`` takes a word of
any length and consumes it in one call, at C speed (``len``, ``str.count``,
``lstrip``, ``int(..., 2)``) where it can; only the pattern codec still steps
through the word bit by bit, in one local loop.  ``EstimatorTracker`` checks
each bit as it is pushed and buffers it, and hands the buffer to every codec
once, when the estimate is read (or when it is full), so a walk that reads
every k bits makes one codec push per read, not k.  The masses of an exact measure come from
``ProgramTable.prefix_sups`` as a running product, one ``Fraction`` multiply
per bit.  The KT codec keeps only its two counts and reads its exact length
from a closed form, through a float fast path that is used only when it is
certified and an exact integer fallback otherwise.  The zlib codec feeds one
shared compressor per tracker with the complete blocks of each push, and
reads the length of a copy flushed after them.
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
# bits an EstimatorTracker buffers, at most, before the codecs see them: the
# buffer is an immutable string copied on every push, so an unread tracker
# would otherwise copy quadratically many characters
TRACKER_BUFFER_BITS = 4096
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
    """The bits as bytes, most significant bit first, the last byte padded with 0s."""
    size = -(-len(word) // 8)
    if not size:
        return b""
    return (int(word, 2) << (8 * size - len(word))).to_bytes(size, "big")


def _gamma_sum_of_runs(word: Bits) -> int:
    """Elias-gamma bits of the runs after the first bit of word, each taken as
    complete: a run of length r costs 2 * floor(log2 r) + 1.

    Each such run of r bits b is preceded by the other bit, and for every
    2^k <= r exactly one match of (other bit + 2^k copies of b) starts on that
    bit and ends inside the run, so ``str.count`` finds it once.  The counts
    over k = 0, 1, ... add floor(log2 r) + 1 per run; the k = 0 term is the
    number of runs.  Once no run reaches 2^k, none reaches 2^(k+1), so the
    counts stop there.
    """
    runs = word.count("01") + word.count("10")
    total, width, longer = runs, 2, runs
    while longer and width < len(word):
        longer = word.count("1" + "0" * width) + word.count("0" + "1" * width)
        total += longer
        width *= 2
    return 2 * total - runs


class Codec:
    """An incremental coder: ``push`` a word of any length and read ``cost()``
    at any point; ``cost(word)`` codes a word from a fresh start instead, with
    one push.  Pushing a word in pieces gives the same cost as pushing it whole.

    Each push consumes its word in one call; only the pattern codec still steps
    through it bit by bit.  ``EstimatorTracker`` buffers single bits and pushes
    them to its codecs when its estimate is read.
    """

    name = "codec"

    def tracker(self) -> "Codec":
        """A fresh codec of the same kind, with nothing pushed yet."""
        return type(self)()

    def push(self, bits: Bits) -> None:
        raise NotImplementedError

    def cost(self, word: Optional[Bits] = None) -> int:
        if word is None:
            return self._length()
        fresh = self.tracker()
        fresh.push(word)
        return fresh._length()

    def _length(self) -> int:
        """Code length of the bits pushed so far."""
        raise NotImplementedError


class LiteralCodec(Codec):
    name = "literal"

    def __init__(self):
        self.n = 0

    def push(self, bits):
        self.n += len(bits)

    def _length(self):
        return self.n + LITERAL_HEADER


class RunLengthCodec(Codec):
    """First bit, then the Elias-gamma length of every run."""

    name = "run-length"

    def __init__(self):
        self.last = None  # the bit of the current run, None before any push
        self.run = 0
        self.done = 0  # gamma bits of completed runs

    def push(self, bits):
        if not bits:
            return
        first = bits[0]
        if first != self.last:  # the current run ended before bits
            if self.last is not None:
                self.done += elias_gamma_bits(self.run)
            self.last = first
            self.run = 0
        head = len(bits) - len(bits.lstrip(first))
        self.run += head
        if head == len(bits):
            return
        # the current run ends inside bits; every run up to the last one does too
        self.done += elias_gamma_bits(self.run)
        self.last = bits[-1]
        body = bits.rstrip(self.last)
        self.run = len(bits) - len(body)
        self.done += _gamma_sum_of_runs(body[head - 1 :])

    def _length(self):
        if self.last is None:
            return CODEC_HEADER
        return 1 + self.done + elias_gamma_bits(self.run) + CODEC_HEADER


class PatternCodec(Codec):
    """Smallest-period coder: period bits verbatim plus two gamma lengths."""

    name = "pattern"

    def __init__(self):
        self.word: list[str] = []
        self.border = [0]  # KMP failure function

    def push(self, bits):
        w, border = self.word, self.border
        k = border[-1]
        for ch in bits:
            while k and w[k] != ch:
                k = border[k]
            if w and w[k] == ch:
                k += 1
            w.append(ch)
            border.append(k)

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

    def push(self, bits):
        self.t += len(bits)
        self.zeros += bits.count("0")

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
    memory level of ``zlib.compress(..., 9)``) with the complete blocks of
    each push as packed bytes, in one call.  The block cost is then 8 times
    the bytes emitted so far plus those a flushed copy of the compressor
    emits, which is the length of ``zlib.compress`` on the whole packed
    prefix up to the last block boundary.
    """

    name = "zlib-block"

    def __init__(self):
        self.block = ""  # bits after the last block boundary
        self.compressor = zlib.compressobj(9)
        self.emitted = 0
        self.block_cost = 0

    def push(self, bits):
        pending = self.block + bits
        if len(pending) >= ZLIB_BLOCK_BITS:
            whole = len(pending) - len(pending) % ZLIB_BLOCK_BITS
            self.emitted += len(self.compressor.compress(pack_bits(pending[:whole])))
            self.block_cost = 8 * (self.emitted + len(self.compressor.copy().flush()))
            pending = pending[whole:]
        self.block = pending

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
    """Incremental estimate along a growing word.

    ``push`` checks one bit and buffers it; ``upper`` first hands the buffer
    to every codec in one push.  The buffer is also handed over once it holds
    TRACKER_BUFFER_BITS bits.
    """

    def __init__(self, est: ComplexityEstimator):
        self.trackers = [c.tracker() for c in est.codecs]
        self._pending = ""

    def push(self, ch: str) -> None:
        if ch != "0" and ch != "1":
            raise BadWordError(f"not a bit: {ch!r}")
        self._pending += ch
        if len(self._pending) >= TRACKER_BUFFER_BITS:
            self._flush()

    def _flush(self) -> None:
        for t in self.trackers:
            t.push(self._pending)
        self._pending = ""

    def upper(self, stage: int) -> int:
        if stage < 1:
            raise ValueError("stage must be >= 1")
        if self._pending:
            self._flush()
        avail = min(stage, len(self.trackers))
        return min([self.trackers[i]._length() + 2 * i for i in range(avail)])


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
