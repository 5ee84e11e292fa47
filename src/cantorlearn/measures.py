"""Exact measures on Cantor space, their stage-bounded knowledge, and basic open balls.

All masses are ``fractions.Fraction`` values, so additivity and every ball
computation are exact.  Mass walks take ceil(-log2) of masses from integers,
sup walks of Bernoulli balls from floats where an error bound, assuming
``math.log2`` within 2 ulps, certifies it, and from integers otherwise.
Sampling needs no bound: a draw meets one double cut per rule value, exact for every double.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cantor import BitSource, Bits, check_bits

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
_FORCED = (ONE, ZERO)  # p0 of a bit forced to 0 or to 1

PRNG_NAME = "python-random-mt19937-v1"


class MalformedMeasureError(ValueError):
    """An enumeration asserted disjoint intervals for the same string."""


class InconsistentBallError(ValueError):
    """No measure satisfies the ball's constraints."""


class BudgetExceeded(RuntimeError):
    """A computation hit its resource limit before it could decide."""


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


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


def _neg_log2(num: int, den: int) -> Optional[tuple[int, float, float]]:
    """-log2(num/den) for 0 <= num <= den as (exact integer, float, bound on
    the float's error), None at 0.  Each log2 of L is within 2^-51 L + 2^-52
    (2 ulps and the int's rounding), so log2 den - log2 num is within
    (log2 den + log2 num + 1) 2^-50; the bound is twice that, to spare."""
    if not num:
        return None
    if not (num & (num - 1) or den & (den - 1)):
        return den.bit_length() - num.bit_length(), 0.0, 0.0
    high, low = math.log2(den), math.log2(num)
    return 0, high - low, (high + low + 1) * 2**-49


@dataclass(frozen=True, init=False)
class Interval:
    """A nonempty rational subinterval of [0,1], with open/closed endpoints.

    The ends are ``Fraction``s, also kept as the integer pairs lo = _ln/_ld and
    hi = _hn/_hd (positive denominators), which are not fields, so ==, hash
    and repr never read them.  Every comparison is the sign of an integer
    cross-product; construction sets all of it in one step."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __init__(self, lo, hi, lo_open: bool = False, hi_open: bool = False):
        lo = lo if isinstance(lo, Fraction) else Fraction(lo)
        hi = hi if isinstance(hi, Fraction) else Fraction(hi)
        d = self.__dict__
        d["lo"], d["hi"], d["lo_open"], d["hi_open"] = lo, hi, lo_open, hi_open
        (d["_ln"], d["_ld"]), (d["_hn"], d["_hd"]) = lo.as_integer_ratio(), hi.as_integer_ratio()
        self.__post_init__()

    def __post_init__(self):  # once per construction, where perfbench counts them
        gap = self._hn * self._ld - self._ln * self._hd  # the sign of hi - lo
        if gap < 0 or (not gap and (self.lo_open or self.hi_open)):
            raise InconsistentBallError(f"empty interval {self!r}")

    @classmethod
    def exact(cls, v) -> "Interval":
        return cls(v, v)

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls(lo, hi)

    @classmethod
    def open(cls, lo, hi) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def unit(cls) -> "Interval":
        """The closed unit interval, one shared instance (intervals are frozen)."""
        return _UNIT

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        xn, xd = Fraction(x).as_integer_ratio()
        lo, hi = xn * self._ld - self._ln * xd, self._hn * xd - xn * self._hd  # signs of x - lo, hi - x
        return (lo > 0 or (not lo and not self.lo_open)) and (hi > 0 or (not hi and not self.hi_open))

    def contains_interval(self, other: "Interval") -> bool:
        lo = other._ln * self._ld - self._ln * other._ld  # the sign of other.lo - self.lo
        hi = self._hn * other._hd - other._hn * self._hd  # the sign of self.hi - other.hi
        return (lo > 0 or (not lo and (not self.lo_open or other.lo_open))) and (
            hi > 0 or (not hi and (not self.hi_open or other.hi_open))
        )

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = self._ln * other._ld - other._ln * self._ld  # the sign of self.lo - other.lo
        a = self if lo > 0 or (not lo and self.lo_open) else other  # owns the later lo
        hi = other._hn * self._hd - self._hn * other._hd  # the sign of other.hi - self.hi
        b = self if hi > 0 or (not hi and self.hi_open) else other  # owns the earlier hi
        gap = b._hn * a._ld - a._ln * b._hd
        if gap < 0 or (not gap and (a.lo_open or b.hi_open)):
            return None
        return Interval(a.lo, b.hi, a.lo_open, b.hi_open)

    def disjoint(self, other: "Interval") -> bool:
        """No common point: one interval ends at or before the other starts."""
        a = other._ln * self._hd - self._hn * other._ld  # the sign of other.lo - self.hi
        b = self._ln * other._hd - other._hn * self._ld  # the sign of self.lo - other.hi
        return (a > 0 or (not a and (self.hi_open or other.lo_open))) or (
            b > 0 or (not b and (other.hi_open or self.lo_open))
        )


_UNIT = Interval(ZERO, ONE)


class MeasureView:
    """What a ball checks membership against: stage-bounded value knowledge.

    ``param_interval`` reports a Bernoulli parameter interval when the viewed
    measure is known to be a product measure, enabling per-level checks.
    ``screen(stage)`` is the non-unit knowledge of the words of levels 1 to 3,
    as (zeros, ones, knowledge), read through ``knowledge``; a view may keep it.
    """

    def knowledge(self, word: Bits, stage: int) -> Interval:
        raise NotImplementedError

    def param_interval(self, stage: int) -> Optional[Interval]:
        return None

    def screen(self, stage: int) -> tuple[tuple[int, int, Interval], ...]:
        return tuple((a, b, iv) for w, a, b in _SCREEN_WORDS if (iv := self.knowledge(w, stage)) != _UNIT)


class Measure(MeasureView):
    """A measure on Cantor space: exact product rule or stage-indexed enumeration.

    An exact measure is one rule, ``p0(j)``: the probability that bit j is 0
    after any prefix of positive mass.  ``mass`` is the product of its
    factors along a word, one ``Fraction``; ``mass_bits`` walks ceil(-log2)
    of the mass of every prefix of a word, one integer step per bit.
    An enumerated measure (``p0`` None) only reveals interval knowledge per stage.
    Both answer ``knowledge(word, stage)``, a Bernoulli measure also its
    exact ``param_interval``, and a measure is its own view for ball
    membership (``ball.contains(mu, stage)``).
    """

    def __init__(
        self,
        spec: dict,
        p0: Optional[Callable[[int], Fraction]] = None,
        tuples: Optional[Sequence[tuple[Bits, Interval, int]]] = None,
    ):
        if (p0 is None) == (tuples is None):
            raise ValueError("exactly one of p0 / tuples required")
        self.spec = spec
        self.p0 = p0
        self._tuples = tuple(tuples) if tuples is not None else None

    def mass(self, word: Bits) -> Fraction:
        if (rule := self.p0) is None:
            raise MalformedMeasureError("enumerated measure has no exact evaluator")
        num = den = 1
        for j, ch in enumerate(word):
            if not num:  # the rule is not read once the product is 0
                break
            p = rule(j)
            num *= p.numerator if ch == "0" else p.denominator - p.numerator
            den *= p.denominator
        return Fraction(num, den)

    def mass_bits(self, word: Bits) -> Iterator:
        """ceil(-log2) of the mass of "" and of each prefix of word, ``math.inf``
        from a zero mass on, with no more rule reads.  The mass so far is
        2^-k num/den: a factor p or 1 - p, p = p0(j), whose numerator and
        denominator are powers of two adds its exponent to k, and any other
        multiplies num/den, whose ceiling is taken once it is not 1/1."""
        if (rule := self.p0) is None:
            raise MalformedMeasureError("enumerated measure has no exact evaluator")
        k, num, den = 0, 1, 1
        yield 0
        for j, ch in enumerate(word):
            p = rule(j)
            d = p.denominator
            n = p.numerator if ch == "0" else d - p.numerator
            if not n:
                yield from repeat(math.inf, len(word) - j)
                return
            if n & (n - 1) or d & (d - 1):
                num, den = num * n, den * d
            else:
                k += d.bit_length() - n.bit_length()
            yield k if den == 1 else k + _ceil_log2_ratio(num, den)

    def knowledge(self, word: Bits, stage: int) -> Interval:
        """Stage-bounded knowledge interval for mu(word): the exact mass, or the
        unit interval cut by the enumeration's intervals revealed by the stage."""
        check_bits(word)
        if self.p0 is not None:
            return Interval.exact(self.mass(word))
        out = Interval.unit()
        for w, iv, s in self._tuples:
            if w == word and s <= stage:
                out = out.intersect(iv)
                if out is None:
                    raise MalformedMeasureError(f"enumeration inconsistent at {word!r} by stage {stage}")
        return out

    @cached_property
    def constant(self) -> Optional[Interval]:  # a uniform or Bernoulli rule's one value, read once
        q = {"uniform": HALF, "bernoulli": self.spec.get("q")}.get(self.spec.get("kind"))
        return None if q is None else Interval.exact(q)

    def param_interval(self, stage: int) -> Optional[Interval]:
        return self.constant if self.spec.get("kind") == "bernoulli" else None

    @cached_property
    def _sups(self) -> Optional[BernoulliSups]:
        return BernoulliSups(q) if (q := self.constant) else None

    def sup_walk(self, word: Bits, known: int) -> Optional[SupWalk]:
        """``mass_bits(word[:known])`` then 0s (a sup of 1) as a ``SupWalk``, from zero counts
        under a uniform or Bernoulli rule; None under other rules, which ``mass_bits`` walks."""
        return self._sups and SupWalk(self._sups.bits, self._sups.step, word, known)


class _Interleave(Measure):
    """``interleave_measure`` over a source with a one-step prefix.  x[:n] has mass 2^-floor(n/2)
    up to ``leave``, the first even position where x leaves z (found by one comparison of x's even
    bits with z's prefix), and 0 past it, so k is n // 2 and then inf: its step is 1 where x never
    leaves z, else inf, so no jump passes the first inf."""

    def __init__(self, spec: dict, p0: Callable[[int], Fraction], z: BitSource):
        super().__init__(spec, p0=p0)
        self._z = z

    def sup_walk(self, word: Bits, known: int) -> SupWalk:
        forced = word[: max(known, 0)][0::2]
        diff = int(forced, 2) ^ int(self._z.prefix(len(forced)), 2) if forced else 0
        leave = 2 * (len(forced) - diff.bit_length()) if diff else math.inf
        return SupWalk(lambda a, n: n >> 1 if n <= leave else math.inf, math.inf if diff else 1, word, known)


def uniform() -> Measure:
    return Measure({"kind": "uniform"}, p0=lambda j: HALF)


def bernoulli(q) -> Measure:
    q = Fraction(q)
    if not ZERO <= q <= ONE:
        raise ValueError(f"parameter must be in [0,1], got {q}")
    return Measure({"kind": "bernoulli", "q": f"{q.numerator}/{q.denominator}"}, p0=lambda j: q)


def interleave_measure(z: BitSource) -> Measure:
    """The measure that forces bit z(n) at even-length prefixes and splits at odd ones.  Its rule
    reads z one bit at a time; over a source with a one-step prefix it walks as a ``SupWalk``."""
    spec = {"kind": "interleave", "z": z.spec}

    def rule(j: int) -> Fraction:
        return HALF if j % 2 else _FORCED[z.bit(j // 2)]

    return _Interleave(spec, rule, z) if z.one_step_prefix else Measure(spec, p0=rule)


def dirac(z: BitSource) -> Measure:
    """Point mass on the single real produced by the source."""
    return Measure({"kind": "dirac", "z": z.spec}, p0=lambda j: _FORCED[z.bit(j)])


def enumerated(tuples: Iterable[tuple[Bits, Interval, int]]) -> Measure:
    """A measure revealing interval knowledge (w, I) at stage s.

    Its spec stores one row per tuple: ``[w, lo, hi, s]`` for a closed
    interval, with ``lo_open, hi_open`` appended when an end is open.
    """
    tups = [(check_bits(w), iv, int(s)) for (w, iv, s) in tuples]
    rows = [
        [w, str(iv.lo), str(iv.hi), s] + ([iv.lo_open, iv.hi_open] if iv.lo_open or iv.hi_open else [])
        for (w, iv, s) in tups
    ]
    return Measure({"kind": "enumerated", "tuples": rows}, tuples=tups)


def enumerated_from_rows(tuples: Iterable[list]) -> Measure:
    """Inverse of the spec rows written by :func:`enumerated`."""
    return enumerated((w, Interval(lo, hi, *flags), s) for (w, lo, hi, s, *flags) in tuples)


def _words(n: int) -> Iterator[Bits]:
    for k in range(1 << n):
        yield format(k, f"0{n}b") if n else ""


# ---------------------------------------------------------------------------
# balls


class MeasureBall:
    """A basic open set of the measure space: constraints (word, interval).

    A ball answers two queries: ``sup_mass(word)``, an upper bound on the
    mass of a word over the ball, and ``contains``.

    ``contains(view, stage)`` reads the view only through ``knowledge(word,
    stage)``, ``param_interval(stage)`` and ``screen(stage)``, passing on the
    stage it was given, and its verdict is a function of the answers alone: a
    view that gives the same answers under another stage argument gets the same
    verdict (the inverse lift's records with an UNKNOWN rest on this).  Yes/no
    verdicts are stable as the stage grows, since the knowledge they read only
    shrinks.  NO comes only from revealed knowledge, so a view whose every word
    is known to [0, 1], with no parameter, never gets NO: inverse lifts rely on it.
    """

    def sup_mass(self, word: Bits) -> Fraction:
        """Upper bound on mu(word) over measures consistent with the ball."""
        raise NotImplementedError

    def contains(self, view: MeasureView, stage: int) -> Verdict:
        raise NotImplementedError


# most nodes ExplicitBall propagation may allocate
NODE_BUDGET = 1 << 15


@dataclass(frozen=True)
class ExplicitBall(MeasureBall):
    """Ball given by (word, interval) constraints, bounded through a box: one
    closed interval per word down to the deepest constraint (open ends are
    dropped; the closed hull is enough for bounds).

    The words form a binary tree coupled only by mu(w) = mu(w0) + mu(w1), so
    two passes make the box exact.  Upward, each word keeps what its
    children's subtrees can sum to.  Downward from the root, pinned at 1, each
    child keeps what its parent allows less some value of its sibling's
    subtree; so a value survives iff some measure in the ball gives it."""

    constraint_list: tuple[tuple[Bits, Interval], ...]

    @property
    def _depth(self) -> int:
        return max((len(w) for w, _ in self.constraint_list), default=0)

    def _propagate(self) -> dict[Bits, Interval]:
        depth = self._depth
        if (1 << (depth + 1)) > NODE_BUDGET:
            raise BudgetExceeded(f"propagation to depth {depth} exceeds the node budget")
        box = {w: _UNIT if w else Interval.exact(ONE) for n in range(depth + 1) for w in _words(n)}

        def clip(w: Bits, lo: Fraction, hi: Fraction) -> None:
            cur = box[w]
            lo, hi = max(cur.lo, lo), min(cur.hi, hi)
            if lo > hi:
                raise InconsistentBallError(f"constraints incompatible at {w!r}")
            box[w] = Interval(lo, hi)

        for w, iv in self.constraint_list:
            clip(w, iv.lo, iv.hi)
        for n in range(depth - 1, -1, -1):  # upward: what the children can sum to
            for w in _words(n):
                c0, c1 = box[w + "0"], box[w + "1"]
                clip(w, c0.lo + c1.lo, c0.hi + c1.hi)
        for n in range(depth):  # downward: the parent less the sibling
            for w in _words(n):
                p, c0, c1 = box[w], box[w + "0"], box[w + "1"]
                clip(w + "0", p.lo - c1.hi, p.hi - c1.lo)
                clip(w + "1", p.lo - c0.hi, p.hi - c0.lo)
        return box

    @cached_property
    def _box(self) -> dict[Bits, Interval]:  # kept on the frozen ball: k reads propagate once
        return self._propagate()

    def sup_mass(self, word: Bits) -> Fraction:
        return self._box[word[: self._depth]].hi

    def contains(self, view: MeasureView, stage: int) -> Verdict:
        verdict = Verdict.YES
        for w, iv in self.constraint_list:
            known = view.knowledge(w, stage)
            if iv.disjoint(known):
                return Verdict.NO
            if not iv.contains_interval(known):
                verdict = Verdict.UNKNOWN
        return verdict


def ball(constraints: Iterable[tuple[Bits, Interval]]) -> ExplicitBall:
    return ExplicitBall(tuple((check_bits(w), iv) for w, iv in constraints))


# the words of levels 1 to 3 that a view's screen reads, in level order, each with its zero and one counts
_SCREEN_WORDS = tuple((w, w.count("0"), n - w.count("0")) for n in (1, 2, 3) for w in _words(n))


def bernoulli_image(param: Interval, zeros: int, ones: int) -> Interval:
    """Tight image of q^zeros (1-q)^ones over a parameter interval (closed hull)."""
    lo, hi = param.lo, param.hi

    def f(q: Fraction) -> Fraction:
        return q**zeros * (ONE - q) ** ones

    vals = [f(lo), f(hi)]
    if zeros + ones > 0:
        crit = Fraction(zeros, zeros + ones)
        if lo < crit < hi:
            vals.append(f(crit))
    return Interval(min(vals), max(vals))


class BernoulliSups:
    """ceil(-log2 bernoulli_image(param, a, n - a).hi) from the counts alone: a
    zeros among n bits, in O(1) float operations, ``math.inf`` where the sup is
    0 (a point parameter 0 or 1 and a bit it never gives); the point q gives
    the Bernoulli(q) mass.  q^a (1-q)^b rises up to q = a/n and falls after it,
    so its sup is at lo when a/n <= lo, at hi when a/n >= hi, and else at a/n.
    ``step`` bounds the rise per bit by ceil(-log2 m), m = min(lo, 1 - hi), inf
    at m = 0: a bit multiplies the value at the sup's maximiser q* by q* or
    1 - q* >= m, and ceil(s + t) <= ceil(s) + ceil(t)."""

    def __init__(self, param: Interval):
        # a zero factor's term has error 1, so a positive power of it takes the exact product, 0: inf
        ends, nil = ((param._ln, param._ld), (param._hn, param._hd)), (0, 0.0, 1.0)
        self.terms = lo, hi = [(n, d, _neg_log2(n, d) or nil, _neg_log2(d - n, d) or nil) for n, d in ends]
        bounded = lo[0] and hi[0] < hi[1]  # m > 0; its ceil(-log2) is the larger of lo's and 1 - hi's
        self.step = max(_power_bits(*lo, 1, 0), _power_bits(*hi, 0, 1)) if bounded else math.inf

    def bits(self, a: int, n: int) -> int:
        lo, hi = self.terms
        if a * lo[1] <= lo[0] * n:
            return _power_bits(*lo, a, n - a)
        if a * hi[1] >= hi[0] * n:
            return _power_bits(*hi, a, n - a)
        return _power_bits(a, n, _neg_log2(a, n), _neg_log2(n - a, n), a, n - a)


class SupWalk:
    """k = ceil(-log2 sup) along a word, read lazily: item n in 0..len(word) is ``bits(a, n)`` (from
    ``BernoulliSups``, or an interleave's length rule) for the n-bit prefix with a zeros, counted on
    from the last read, held from ``level`` on, 0 past ``known``; it rises at most ``step`` per bit."""

    def __init__(self, bits: Callable, step: float, word: Bits, known: int, level: float = math.inf):
        self.bits, self.step, self.word, self.known, self.level = bits, step, word, known, level
        self._edge, self._n, self._zeros = min(known, level, len(word)), 0, 0

    def __iter__(self) -> Iterator:
        return map(self.__getitem__, range(len(self.word) + 1))

    def __getitem__(self, n: int) -> int:
        if n > self._edge:  # 0 past the stage cut, else held at the level
            if not 0 <= n <= len(self.word):
                raise IndexError(f"no {n}-bit prefix of a {len(self.word)}-bit word")
            return 0 if n > self.known else self[self.level]
        last, word = self._n, self.word
        if n < last:  # a backward read counts from the start
            if n < 0:
                raise IndexError(f"no {n}-bit prefix of a {len(word)}-bit word")
            last = self._zeros = 0
        a = self._zeros + word.count("0", last, n)
        self._n, self._zeros = n, a
        return self.bits(a, n)


def _power_bits(num: int, den: int, zero: tuple, one: tuple, a: int, b: int) -> int:
    """ceil(-log2 q^a (1-q)^b) for q = num/den, given the ``_neg_log2`` terms
    of q and 1 - q.  The float a t0 + b t1 is within a e0 + b e1, plus 2^-52 s
    for its rounding and 2^-53 (s + err) for the check's; where the bound
    leaves the ceiling open, it comes from pow in O(log n) multiplications, inf at 0."""
    s = a * zero[1] + b * one[1]
    err = a * zero[2] + b * one[2] + s * 2**-50
    c = math.ceil(s + err)
    if s - err > c - 1:  # [s - err, s + err] lies in (c - 1, c]
        return a * zero[0] + b * one[0] + c
    return _ceil_log2_ratio(mass, den ** (a + b)) if (mass := num**a * (den - num) ** b) else math.inf


@dataclass(frozen=True, init=False)
class BernoulliCylinderBall(MeasureBall):
    """Ball of all measures pinned, on every string down to a level, to the
    image of a Bernoulli parameter interval under the product formula.
    Its own constructor, cheaper than the generated one, checks the parameter
    and fills the fields."""

    param: Interval
    level: int

    def __init__(self, param: Interval, level: int):
        if param._ln < 0 or param._hn > param._hd:
            raise ValueError(f"parameter interval must lie in [0,1], got {param}")
        d = self.__dict__
        d["param"], d["level"] = param, level

    def sup_mass(self, word: Bits) -> Fraction:
        probe = word[: self.level]
        a = probe.count("0")
        return bernoulli_image(self.param, a, len(probe) - a).hi

    @cached_property
    def sups(self) -> BernoulliSups:  # kept on the frozen ball: a stage's walks build it once
        return BernoulliSups(self.param)

    def contains(self, view: MeasureView, stage: int) -> Verdict:
        p = view.param_interval(stage)
        if p is not None:
            # exact on parameter intervals: any shared parameter q realizes a
            # product measure inside both (so never disjoint deeper), and the
            # level-1 constraint is the parameter interval itself (so YES
            # requires containment there)
            if p.disjoint(self.param):
                return Verdict.NO
            if self.param.contains_interval(p):
                return Verdict.YES
            return Verdict.UNKNOWN
        # generic fallback: the view's screen of levels 1 to 3, to depth min(level, 3); sound, but YES
        # only to level 3. A word it leaves out has unit knowledge, which no image misses and only an
        # image of [0,1] contains: a one-letter word's under the parameter [0,1], never a mixed word's
        # (its sup is below 1). So YES needs every other word screened: of the 2^(depth+1) - 2 words of
        # levels 1 to depth, 2 * depth are one-letter
        unit_param = self.param._ln == 0 and self.param._hn == self.param._hd
        depth, screened = min(self.level, 3), 0
        verdict = Verdict.YES if self.level <= 3 else Verdict.UNKNOWN
        for zeros, ones, known in view.screen(stage):  # in level order
            if zeros + ones > depth:
                break
            img = bernoulli_image(self.param, zeros, ones)
            if img.disjoint(known):
                return Verdict.NO
            if not img.contains_interval(known):
                verdict = Verdict.UNKNOWN
            screened += not unit_param or zeros * ones > 0
        return verdict if screened == (2 << depth) - 2 - 2 * depth * unit_param else Verdict.UNKNOWN


@dataclass(frozen=True)
class InterleaveCylinderBall(MeasureBall):
    """Ball of the interleaving measures whose forced stream extends a pattern."""

    pattern: Bits

    def __post_init__(self):
        check_bits(self.pattern)

    def _value_range(self, word: Bits) -> Interval:
        """Range of mu(word) over the ball: 0 where an even bit leaves the
        pattern, else 2^-(|word|//2), down to 0 once the even bits outrun it."""
        forced, k = word[0::2], len(self.pattern)
        if forced[:k] != self.pattern[: len(forced)]:
            return Interval.exact(ZERO)
        hi = Fraction(1, 1 << (len(word) // 2))
        return Interval(ZERO if len(forced) > k else hi, hi)

    def sup_mass(self, word: Bits) -> Fraction:
        return self._value_range(word).hi

    def contains(self, view: MeasureView, stage: int) -> Verdict:
        verdict = Verdict.YES
        nodes = 0
        frontier: list[Bits] = [""]
        # walk only the ball's own support plus its dead single-step exits
        for n in range(2 * len(self.pattern)):
            nxt: list[Bits] = []
            for w in frontier:
                for ch in "01":
                    child = w + ch
                    nodes += 1
                    if nodes > 4096:
                        return Verdict.UNKNOWN
                    iv = self._value_range(child)
                    known = view.knowledge(child, stage)
                    if iv.disjoint(known):
                        return Verdict.NO
                    if not iv.contains_interval(known):
                        verdict = Verdict.UNKNOWN
                    if iv.hi > 0:
                        nxt.append(child)
            frontier = nxt
        return verdict


# ---------------------------------------------------------------------------
# sampling


def _cut(p0: Fraction):
    """p0's cut for ``sample_stream``: the forced bit "0" at p0 = 1, "1" at p0 = 0, else a double."""
    num, den = p0.numerator, p0.denominator
    if den == 1:
        return "0" if num else "1"
    f = num / den
    a, b = f.as_integer_ratio()
    return f if a * den >= num * b else math.nextafter(f, math.inf)


def sample_stream(mu: Measure, seed: int, n: int) -> Bits:
    """Deterministic stream of n bits sampled from an exact measure.

    Bit j is 0 with probability ``mu.p0(j)``, the exact conditional given the
    prefix so far, so each bit costs one read of the rule.  Each rule value
    object gets one ``_cut``, and a draw r gives 0 when r < cut, which holds
    exactly when r < p0.  The cut starts from f = num / den, p0 correctly
    rounded (int division, no libm).  If f >= p0, the cut is f: no double
    lies in [p0, f).  Else it is the next double above f: none lies in
    (f, p0).  Either would be nearer p0 than f.  This holds for every double
    r, so no draw needs an exact fallback.  Forced bits (p0 of 0 or 1)
    consume no randomness, so streams from interleaving measures carry the
    forced bits exactly.
    """
    if (rule := mu.p0) is None:
        raise MalformedMeasureError("sampling needs an exact measure")
    if n < 0:
        raise ValueError(f"stream length must be >= 0, got {n}")
    draw = random.Random(seed).random
    cuts: dict[int, tuple] = {}  # id(p0) -> (p0, cut); p0 is held, so its id is not reused
    last = cut = None  # the last value read and its cut
    out: list[str] = []
    for j in range(n):
        p0 = rule(j)
        if p0 is not last:
            got = cuts.get(id(p0))
            if got is None:
                got = cuts[id(p0)] = (p0, _cut(p0))
            last, cut = got
        out.append(cut if cut.__class__ is str else "0" if draw() < cut else "1")
    return "".join(out)


def sampled_source(mu: Measure, seed: int) -> BitSource:
    """A BitSource replaying sample_stream(mu, seed): a prefix in one call, and bits from one
    prefix read again at twice the length (4 bits at least) when a read passes its end."""
    read = partial(sample_stream, mu, seed)
    held = ""

    def bit(i: int) -> int:
        nonlocal held
        if i >= len(held):
            held = read(1 << max(3, i + 1).bit_length())
        return int(held[i])

    spec = {"kind": "sampled", "measure": mu.spec, "seed": seed, "prng": PRNG_NAME}
    return BitSource(spec, bit, read)

