"""Compressor-backed surrogate for prefix-free complexity and the
measure-relative randomness deficiency used by every learner.

The estimate is a min over a fixed codec family (literal first, so the
|word| + header ceiling always holds) plus per-codec id penalties.  Learners
consume deficiencies through comparisons and thresholds only; nothing here
claims calibration against a universal machine.

A codec's ``push`` consumes a word of any length in a few calls at C speed
(``len``, ``str.count``, ``lstrip``, ``str.find``, bit operations on
``int(..., 2)``), never bit by bit.  Each codec also states a floor, a lower
bound on its length after any further pushes (the zlib codec's only until
its open block completes), proved in one line in its docstring, as is the
zlib codec's exact length from a 24 KB compressor up to 1024 packed bytes.
``EstimatorTracker`` hands a codec the bits it has not seen only at a read
whose estimate its floor could beat, and the minimum of its floors, with the
id penalties, taken when asked, bounds every later estimate.

So ``random_verdict`` and ``max_prefix_deficiency`` (which starts from the
whole word's deficiency) read the estimate only at the prefixes where k =
ceil(-log2 sup) minus that bound leaves their answer open, and still give
exactly the answer a read at every prefix would.  On a ``SupWalk`` (an exact
uniform, Bernoulli or interleave entry, unless a literal z ends within the
known bits, or a param lift over Bernoulli balls, as every Bernoulli lift is), k of any
prefix comes from its zero count or length and rises at most a fixed step per
bit (inf where k can reach inf), so the walk visits only the prefixes where a
read could happen and jumps over the rest; other entries yield k per prefix.
"""

from __future__ import annotations

import math
import zlib
from fractions import Fraction
from typing import Optional

from .cantor import _DROP_BITS, BadWordError, Bits, check_bits
from .measures import MeasureBall, SupWalk, _ceil_log2_ratio, ceil_neg_log2

INFINITE_DEFICIENCY = math.inf

LITERAL_HEADER = 32
CODEC_HEADER = 8
ZLIB_BLOCK_BITS = 256
ZLIB_SMALL_BYTES = 0 if "zlib-ng" in zlib.ZLIB_RUNTIME_VERSION else 1024
# KT lengths come from floats only when more than this times (n + 1) bits
# from an integer; see KTCodec
KT_FLOAT_MARGIN = 1e-12
_LN2 = math.log(2)


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

    In x = int(word, 2), bit i of e = ~(x ^ (x >> 1)) is set when bits i and
    i + 1 are equal, so a run of r bits after the first leaves a block of
    r - 1 set bits in e, and blocks are apart.  ANDing windows of e that
    double leaves, in round k, one block of set bits for each run of 2^k or
    more bits, and block ends count them: they add floor(log2 r) per run.
    """
    x = int(word, 2)
    mask = (1 << len(word) - 1) - 1
    change = (x ^ (x >> 1)) & mask
    runs = change.bit_count()
    same = window = change ^ mask  # window: bits i whose next 2^k - 1 bits are all set in same
    total, width = runs, 1
    while window:
        total += 2 * (window & ~(window >> 1)).bit_count()
        window &= (window >> width + 1) & (same >> width)
        width = 2 * width + 1
    return total


class Codec:
    """An incremental coder: ``push`` a word of any length and read ``cost()``
    at any point; ``cost(word)`` checks a word (``BadWordError`` unless it is
    a 0/1 string) and codes it from a fresh start instead, with one push.
    Pushing a word in pieces gives the same cost as pushing it whole.

    Each push consumes its word in a few calls at C speed; none steps through
    it bit by bit.  ``EstimatorTracker`` pushes a codec only at a read whose
    minimum its far floor could beat, with every bit it has not seen yet.

    ``_floors(length)``, given the current length, returns ``(near, room, far)``:
    whatever bits are pushed next, the length stays at least ``near`` while
    fewer than ``room`` of them have been pushed, and at least ``far`` after
    any number.  Each codec proves its own in its docstring.
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
        return self._cost(check_bits(word))

    def _cost(self, word: Bits) -> int:
        """``cost`` of a word already checked."""
        fresh = self.tracker()
        fresh.push(word)
        return fresh._length()

    def _length(self) -> int:
        """Code length of the bits pushed so far."""
        raise NotImplementedError

    def _floors(self, length: int) -> tuple[int, float, int]:
        raise NotImplementedError


def _lasting(length: int) -> tuple[int, float, int]:
    """Floors of a codec whose length never falls as bits are pushed."""
    return length, math.inf, length


class LiteralCodec(Codec):
    """The word verbatim after a fixed header.

    Floor: the current length, since the length is exactly n + header.
    """

    name = "literal"

    def __init__(self):
        self.n = 0

    def push(self, bits):
        self.n += len(bits)

    def _length(self):
        return self.n + LITERAL_HEADER

    _floors = staticmethod(_lasting)


class RunLengthCodec(Codec):
    """First bit, then the Elias-gamma length of every run.

    Floor: the current length, since extending the open run never lowers its
    gamma length and starting a run adds one.
    """

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

    _floors = staticmethod(_lasting)


def _break(w: Bits, j: int, h: int) -> int:
    """The first t >= h with w[t] != w[t - j], or len(w), in O(t - h) time:
    the slices compared double from 64 bits."""
    step = 64
    while h < len(w):
        a = w[h : h + step]
        b = w[h - j : h - j + len(a)]
        if a != b:
            return h + len(a) - (int(a, 2) ^ int(b, 2)).bit_length()
        h, step = h + step, 2 * step
    return len(w)


def _period(w: Bits, j: int) -> int:
    """The smallest period of w, given that w has none below j.
    ``PatternCodec`` proves each skip."""
    m = len(w)
    while j < m:
        k = 256 if m - j >= 256 else 1 << (m - j).bit_length() - 1
        i = w.find(w[:k], j)
        if i < 0:
            j = m - k + 1
        elif m - i <= 64:
            if w.startswith(w[i:]):
                return i
            j = i + 1
        else:
            t = _break(w, i, i + k)
            if t == m:
                return i
            f = t - i
            r = w.find(w[: f // 2], 1, f)
            if r < 1 or w[r:f] != w[: f - r]:
                skip = i + f // 2 + 1
            elif w[f] == w[f - r]:
                skip = t - r + 1
            else:
                skip = min(_break(w, r, t + 1) - f, t - r + 1)
            j = max(skip, t + 2 - i)
    return m


class PatternCodec(Codec):
    """Smallest-period coder: period bits verbatim plus two gamma lengths.

    The word w is kept as one string with its smallest period p, which never
    shrinks as w grows: a period of w is one of each prefix, or longer.  A
    push checks that p holds on the new bits.  If not, ``_period`` searches
    from p + 1 (from 1 on the first push), skipping only shifts proved not
    to be periods, so w has no period below the shift j it tries.  That
    shift is the next one where w[:k] recurs, found by ``str.find``, with k
    the largest power of two up to 256 with k <= m - j, m = len(w): a
    period q <= m - k has w[q:q+k] == w[:k].  Where w[:k] does not recur,
    the search moves to m - k + 1.  A shift with at most 64 bits left is
    checked whole, a longer one by ``_break``.  One that breaks at t, with
    f = t - j (so w[j:t] == w[:f], w[t] != w[f]), gives the skips below, by
    Fine and Wilf's lemma: if j and q are periods of a word at least
    j + q - gcd(j, q) long, so is gcd(j, q).

    - As w has no period <= j, it has none below t + 2 - j: a smaller one q
      has t >= j + q - 1, so g = gcd(j, q) is a period of w[:t], so of w[:q]
      and, as g divides q, of w; but g <= j.
    - A period q of w in (j, t) makes d = q - j a period of w[:f] with
      w[f - d] == w[t].  Let r be the smallest period of w[:f]; by the
      lemma, r divides every period d <= f - r.  The lemma also makes
      r <= f // 2 exactly when the first recurrence of w[:f // 2] in w[:f]
      is a period of w[:f], and then that recurrence is r.  If r > f // 2,
      then q > j + f // 2.  If w[f] == w[f - r], each multiple d of r has
      w[f - d] == w[f], so q > t - r.  If not, w[t] == w[t - r] (two
      letters), w[j:T] has period r up to the first T > t with
      w[T] != w[T - r], and a multiple d needs w[q + f] == w[f], so
      q + f >= T: q >= min(T - f, t - r + 1).

    Floor: gamma(p) + p + 1 + header, since p never shrinks and a repeat
    count costs at least 1 (only the header before any bit).
    """

    name = "pattern"

    def __init__(self):
        self.word = ""
        self.period = 1  # the smallest period; 1 also before any bit

    def push(self, bits):
        n, j = len(self.word), self.period
        w, self.word = self.word, ""
        w += bits  # with its other reference gone, CPython extends w in place
        self.word = w
        # whether j still holds; at n = 0 (j = 1) this reads w[-1:], which
        # starts with bits only when they are at most one bit
        if w.startswith(bits, n - j):
            return
        self.period = _period(w, j + 1 if n else 1)

    def _length(self):
        n, period = len(self.word), self.period
        if n == 0:
            return CODEC_HEADER
        # gamma(period) + period + gamma(repeats) + header, with the gamma
        # lengths inline: a read follows every short push
        return 2 * (period.bit_length() + (-(-n // period)).bit_length()) + period + CODEC_HEADER - 2

    def _floors(self, length):
        period = self.period
        floor = elias_gamma_bits(period) + period + 1 + CODEC_HEADER if self.word else CODEC_HEADER
        return floor, math.inf, floor


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

    Floor: the current length, since each further bit multiplies P by its
    KT conditional probability, which is below 1.
    """

    name = "kt"

    def __init__(self):
        self.t = 0
        self.zeros = 0

    def push(self, bits):
        self.t += len(bits)
        self.zeros += len(bits) - int(bits or "0", 2).bit_count()

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

    _floors = staticmethod(_lasting)


class ZlibBlockCodec(Codec):
    """zlib over complete bit blocks plus a literal tail, so pushes stay cheap.

    Each tracker feeds one compressor, built at its first completed block,
    the complete blocks of each push as packed bytes, in one call; the block
    cost, 8 times the bytes emitted plus those a flushed copy emits, is then
    8 * ``len(zlib.compress(packed, 9))`` up to the last block boundary.  Up
    to ``ZLIB_SMALL_BYTES`` packed bytes the compressor is ``compressobj(9,
    DEFLATED, 11, 5)`` (a copy moves 24 KB, not 256 KB); a push past them
    hands them all to a ``compressobj(9)``.  For n <= 1024 bytes on classic
    zlib the lengths agree: n <= 2^11 - 262, so the window never slides and
    no match is too far; n symbols do not fill the 2^(5+6) - 1 symbol
    buffer, so the final block is the only one, as at memory level 8; a hash
    chain holds under 1024 earlier positions and level 9 walks at least 1024
    (4096, quartered past length 32), so none is cut, and a colliding one
    fails on its first two bytes (with 8 or more hash bits, an equal hash and
    those fix the third), so the longest match and its most recent tie-break
    do not depend on the hash size; the header is 2 bytes whatever its
    window field.  zlib-ng, whose match finder differs, gets only the default.

    Floor: the current length until the open block completes, since until
    then only the literal tail grows; the header after that, since a longer
    input can compress to fewer bytes.
    """

    name = "zlib-block"

    def __init__(self):
        self.block = ""  # bits after the last block boundary
        self.packed = b""  # the packed blocks while the small compressor codes them, then None
        self.compressor = None  # built at the first completed block
        self.emitted = 0
        self.block_cost = 0

    def push(self, bits):
        pending = self.block + bits
        if len(pending) >= ZLIB_BLOCK_BITS:
            whole = len(pending) - len(pending) % ZLIB_BLOCK_BITS
            data = pack_bits(pending[:whole])
            if self.packed is not None:
                self.packed += data
                if len(self.packed) > ZLIB_SMALL_BYTES:  # the default compressor codes every block from the first
                    self.compressor, self.emitted, data, self.packed = zlib.compressobj(9), 0, self.packed, None
                elif self.compressor is None:
                    self.compressor = zlib.compressobj(9, zlib.DEFLATED, 11, 5)
            self.emitted += len(self.compressor.compress(data))
            self.block_cost = 8 * (self.emitted + len(self.compressor.copy().flush()))
            pending = pending[whole:]
        self.block = pending

    def _length(self):
        return self.block_cost + len(self.block) + CODEC_HEADER

    def _floors(self, length):
        return length, ZLIB_BLOCK_BITS - len(self.block), CODEC_HEADER


DEFAULT_CODECS: tuple[Codec, ...] = (
    LiteralCodec(),
    RunLengthCodec(),
    PatternCodec(),
    KTCodec(),
    ZlibBlockCodec(),
)


class ComplexityEstimator:
    """min over the stage-available codec prefix of (code length + id penalty 2i)."""

    codecs = DEFAULT_CODECS

    def upper(self, word: Bits, stage: int) -> int:
        return self._upper(check_bits(word), stage)

    def _upper(self, word: Bits, stage: int) -> int:  # of a word already checked
        if stage < 1:
            raise ValueError("stage must be >= 1")
        avail = min(stage, len(self.codecs))
        return min(self.codecs[i]._cost(word) + 2 * i for i in range(avail))

    def tracker(self) -> "EstimatorTracker":
        return EstimatorTracker(self)


class EstimatorTracker:
    """Incremental estimate along a growing word, read lazily.

    ``push`` checks a word of any length and appends it to a list of parts.
    ``upper(stage)`` joins the parts onto the word and reads the codecs below
    the stage: the last read's winner first, then the others in codec order.
    A codec is read only when its far floor from its own last read, plus its
    id penalty, is below the smallest estimate read so far; it is then pushed,
    in one push, the bits it has not seen.  Skipping is exact: a far floor
    holds after any further pushes, so a skipped codec's estimate is at least
    the minimum already read.  Each ``upper`` also keeps every codec's floors
    from its own last read, and ``floor`` takes their minimum when asked, a
    bound on every later estimate that reads no codec.
    """

    def __init__(self, est: ComplexityEstimator):
        self.trackers = [c.tracker() for c in est.codecs]
        self._parts: list[Bits] = []
        self._word = ""  # the bits joined from the parts so far
        self._seen = [0] * len(self.trackers)  # bits pushed to each codec
        self._lead = 0  # the codec that won the last read
        # (near + penalty, bits until near lapses, far + penalty) of each
        # codec's last read; trivial before it, so the first read reads all
        self._codec_floors = [(0, 0, 0)] * len(self.trackers)
        self._read(range(len(self.trackers)), "")

    def push(self, bits: Bits) -> None:
        # one bit takes the comparisons alone
        if bits != "0" and bits != "1" and (not isinstance(bits, str) or bits.translate(_DROP_BITS)):
            raise BadWordError(f"not a 0/1 word: {bits!r}")
        self._parts.append(bits)

    def _join(self) -> Bits:
        """The word pushed so far, with the parts joined onto it."""
        if self._parts:
            word, self._word = self._word, ""
            word += "".join(self._parts)  # with its other reference gone, CPython extends word in place
            self._word, self._parts = word, []
        return self._word

    def _read(self, order, word: Bits) -> int:
        """The smallest estimate of the codecs in order, reading each, caught up
        on word, only if its far floor is below the smallest so far; the near
        floors hold until ``_horizon`` bits."""
        n, floors, seen, best = len(word), self._codec_floors, self._seen, math.inf
        for i in order:
            if floors[i][2] < best:
                t = self.trackers[i]
                if seen[i] < n:
                    t.push(word[seen[i] :])
                    seen[i] = n
                length = t._length()
                near, room, far = t._floors(length)
                floors[i] = (near + 2 * i, n + room, far + 2 * i)
                if length + 2 * i < best:
                    best, self._lead = length + 2 * i, i
        self._horizon = min(until for _, until, _ in floors)
        return best

    def upper(self, stage: int) -> int:
        if stage < 1:
            raise ValueError("stage must be >= 1")
        avail = min(stage, len(self.trackers))
        lead = self._lead if self._lead < avail else 0
        return self._read((lead, *range(lead), *range(lead + 1, avail)), self._join())

    def floor(self, stage: int) -> int:
        """A lower bound on ``upper(stage)``, now and after any further pushes,
        from the floors of each codec's latest read."""
        if stage < 1:
            raise ValueError("stage must be >= 1")
        which = 0 if len(self._join()) < self._horizon else 2  # near, or far
        return min(f[which] for f in self._codec_floors[:stage])


def _deficiency(u: Fraction, est: ComplexityEstimator, word: Bits, stage: int):
    """ceil(-log2 u) minus the estimate of a word already checked, read only when u > 0."""
    if u == 0:
        return INFINITE_DEFICIENCY
    return ceil_neg_log2(u) - est._upper(word, max(1, stage))


def deficiency(table, est: ComplexityEstimator, e: int, word: Bits, stage: int):
    """ceil(-log2 of the stage-knowledge sup of the entry's mass) minus the estimate."""
    u = table.eval_measure(e, word, stage).hi  # checks the word
    return _deficiency(u, est, word, stage)


def deficiency_ball(ball: MeasureBall, est: ComplexityEstimator, word: Bits, stage: int):
    """Deficiency against the sup of the mass over all measures in a ball."""
    return _deficiency(ball.sup_mass(check_bits(word)), est, word, stage)


def _largest_read(est, x: Bits, sups, stage: int, best, stop):
    """max(best, the deficiencies read along x), returned as soon as it
    exceeds stop.  The estimate is read only where k = ceil(-log2 sup) minus
    the tracker's floor, a bound on the deficiency, exceeds the running maximum.
    The tracker is handed the bits walked since its last hand-over only where
    the floor is refreshed: at a read, and where the last read's floors lapse
    (``_horizon``).  A ``SupWalk``'s k, held past a ball's level, rises at most
    ``step`` per bit, so from prefix i no prefix up to i + (best + floor - k_i)
    // step can read: the walk jumps past them, never past the horizon, and so
    reads and refreshes exactly where a visit to every prefix would, with the same tracker state."""
    tracker, handed = est.tracker(), 0
    floor, horizon = tracker.floor(stage), tracker._horizon

    def jumps(step):
        i = 0
        while i <= len(x):
            yield i, (k := sups[i])
            i += 1  # best, floor and horizon are as the visit to the last i left them
            gap = best + floor - k
            if gap >= step and i < horizon:
                i = min(horizon, i + int(gap // step))

    for i, k in jumps(sups.step) if isinstance(sups, SupWalk) else enumerate(sups):
        if i >= horizon:
            tracker.push(x[handed:i])
            handed, floor, horizon = i, tracker.floor(stage), math.inf
        if k - floor > best:
            tracker.push(x[handed:i])
            handed = i
            best = max(best, k - tracker.upper(stage))
            if best > stop or best == INFINITE_DEFICIENCY:  # nothing exceeds an infinite maximum
                return best
            floor, horizon = tracker.floor(stage), tracker._horizon
    return best


def random_verdict(table, est: ComplexityEstimator, e: int, x: Bits, c) -> bool:
    """Finite-horizon randomness surrogate: every prefix deficiency stays <= c.

    The walk reads the estimate only where its floor leaves that open, and
    stops at the first deficiency above c; the answer is ``all(d <= c for d
    in prefix_deficiencies(...))`` exactly, with the test reference of
    ``tests/reference.py``, False for a NaN c too, which no comparison
    passes, once e is known to be a measure."""
    check_bits(x)
    stage = max(1, len(x))
    sups = table.prefix_sup_bits(e, x, stage)
    if not c < INFINITE_DEFICIENCY:  # every prefix passes an infinite c, none a NaN
        return c == INFINITE_DEFICIENCY
    return _largest_read(est, x, sups, stage, c, c) <= c


def max_prefix_deficiency(table, est: ComplexityEstimator, e: int, x: Bits):
    """Largest prefix deficiency along x at stage |x| (reporting helper).

    The whole word's deficiency comes first, from one whole-word estimate,
    then the walk reads the estimate only where its floor leaves a larger
    deficiency open; the answer is ``max(prefix_deficiencies(...))`` exactly,
    with the test reference of ``tests/reference.py``."""
    stage = max(1, len(x))
    sups = table.prefix_sup_bits(e, x, stage)
    sups = sups if isinstance(sups, SupWalk) else list(sups)  # a SupWalk reads only the items asked
    if (whole := sups[len(x)]) == INFINITE_DEFICIENCY:
        return INFINITE_DEFICIENCY
    return _largest_read(est, x, sups, stage, whole - est._upper(x, stage), INFINITE_DEFICIENCY)
