"""Interval validation and comparisons, and the Bernoulli-ball screen, against their plain definitions."""

from dataclasses import fields
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlearn.cantor import BitSource
from cantorlearn.measures import (
    BernoulliCylinderBall,
    InconsistentBallError,
    Interval,
    Verdict,
    bernoulli_image,
    dirac,
    enumerated,
    interleave_measure,
    uniform,
)
from cantorlearn.programs import EnumeratedMeasureEntry, ExactMeasureEntry, ProgramTable, StubEntry

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# a coarse grid, so that touching and shared ends are common
grid = st.sampled_from([F(k, 4) for k in range(5)])


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(grid), draw(grid)))
    if lo == hi:
        return Interval.exact(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def full_screen(ball: BernoulliCylinderBall, view, stage: int) -> Verdict:
    """Every word of the first three levels against its own image, decided by intersect."""
    screen = min(ball.level, 3)
    verdict = Verdict.YES if screen == ball.level else Verdict.UNKNOWN
    for n in range(1, screen + 1):
        for w in map("".join, product("01", repeat=n)):
            img = bernoulli_image(ball.param, w.count("0"), n - w.count("0"))
            known = view.knowledge(w, stage)
            if img.intersect(known) is None:
                return Verdict.NO
            if not img.contains_interval(known):
                verdict = Verdict.UNKNOWN
    return verdict


WORDS = ["".join(w) for n in (1, 2, 3) for w in product("01", repeat=n)]

# per word: nothing revealed (unit knowledge), or one interval revealed at some stage
revealed = st.one_of(
    st.none(),
    st.just(Interval.unit()),
    st.just(Interval.open(0, 1)),
    grid.map(Interval.exact),
    intervals(),
)


# every word's knowledge is the unit interval, "01"'s revealed as such
UNIT_VIEW = enumerated([("01", Interval.unit(), 0)])


@st.composite
def enumerated_views(draw):
    tuples = []
    for w in WORDS:
        iv = draw(revealed)
        if iv is not None:
            tuples.append((w, iv, draw(st.integers(0, 2))))
    return enumerated(tuples)


@st.composite
def screened_entries(draw):
    """A table and a measure entry in it with no parameter interval, so that balls screen it:
    enumerated, exact with a delay, or a stub."""
    t = ProgramTable()
    kind = draw(st.sampled_from(("enumerated", "exact", "stub")))
    if kind == "enumerated":
        return t, t.add(EnumeratedMeasureEntry(draw(enumerated_views())))
    if kind == "stub":
        return t, t.add(StubEntry("measure"))
    mus = (uniform(), interleave_measure(BitSource.hat_rational(F(1, 3))), dirac(BitSource.rational(F(2, 5))))
    return t, t.add(ExactMeasureEntry(draw(st.sampled_from(mus)), draw(st.integers(0, 3))))


# int, float and Fraction ends, some of them outside [0,1]
ends = st.one_of(st.integers(-1, 2), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), grid)


class TestIntervalValidation:
    @PROPERTY
    @given(ends, ends, st.booleans(), st.booleans())
    def test_empty_exactly_when_the_reference_is(self, lo, hi, lo_open, hi_open):
        a, b = F(lo), F(hi)
        if a > b or (a == b and (lo_open or hi_open)):
            with pytest.raises(InconsistentBallError):
                Interval(lo, hi, lo_open, hi_open)
        else:
            iv = Interval(lo, hi, lo_open, hi_open)
            assert (type(iv.lo), type(iv.hi)) == (F, F)
            assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open) == (a, b, lo_open, hi_open)


class TestDisjoint:
    @PROPERTY
    @given(intervals(), intervals())
    def test_matches_empty_intersection(self, a, b):
        assert a.disjoint(b) == (a.intersect(b) is None) == b.disjoint(a)


# the comparisons written with Fraction comparisons, as plain definitions


def contains_ref(a, x):
    return (a.lo < x or (a.lo == x and not a.lo_open)) and (x < a.hi or (x == a.hi and not a.hi_open))


def contains_interval_ref(a, b):
    lo_ok = b.lo > a.lo or (b.lo == a.lo and (not a.lo_open or b.lo_open))
    hi_ok = b.hi < a.hi or (b.hi == a.hi and (not a.hi_open or b.hi_open))
    return lo_ok and hi_ok


def intersect_ref(a, b):
    if a.lo > b.lo or (a.lo == b.lo and a.lo_open):
        lo, lo_open = a.lo, a.lo_open
    else:
        lo, lo_open = b.lo, b.lo_open
    if a.hi < b.hi or (a.hi == b.hi and a.hi_open):
        hi, hi_open = a.hi, a.hi_open
    else:
        hi, hi_open = b.hi, b.hi_open
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        return None
    return lo, hi, lo_open, hi_open


def disjoint_ref(a, b):
    return (a.hi < b.lo or (a.hi == b.lo and (a.hi_open or b.lo_open))) or (
        b.hi < a.lo or (b.hi == a.lo and (b.hi_open or a.lo_open))
    )


# any rational in [0,1], the ends of 0.w for 96-bit words w among them
rationals = st.one_of(
    grid,
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.integers(0, 1 << 96).map(lambda k: F(k, 1 << 96)),
)


@st.composite
def shared_ends(draw):
    """Two intervals and a point drawn from one pool of at most three rationals, so that equal
    ends are common, with either flag on each end wherever the ends differ."""
    pool = st.sampled_from(draw(st.lists(rationals, min_size=1, max_size=3)))

    def interval():
        lo, hi = sorted((draw(pool), draw(pool)))
        return Interval(lo, hi, *((draw(st.booleans()), draw(st.booleans())) if lo < hi else (False, False)))

    return interval(), interval(), draw(pool)


class TestIntegerComparisons:
    @settings(PROPERTY, max_examples=500)
    @given(shared_ends())
    def test_match_the_fraction_comparisons(self, case):
        a, b, x = case
        assert a.contains(x) == contains_ref(a, x)
        assert a.contains_interval(b) == contains_interval_ref(a, b)
        assert a.disjoint(b) == disjoint_ref(a, b)
        got = a.intersect(b)
        assert (got and (got.lo, got.hi, got.lo_open, got.hi_open)) == intersect_ref(a, b)

    @PROPERTY
    @given(rationals, rationals, st.booleans(), st.booleans())
    def test_equal_intervals_compare_hash_and_print_by_their_fields(self, lo, hi, lo_open, hi_open):
        lo, hi = sorted((lo, hi))
        flags = (lo_open, hi_open) if lo < hi else (False, False)
        a = Interval(lo, hi, *flags)
        b = Interval(str(lo), str(hi), *flags)  # the same ends, spelled as strings
        assert [f.name for f in fields(Interval)] == ["lo", "hi", "lo_open", "hi_open"]
        assert a == b and hash(a) == hash(b) == hash((lo, hi, *flags))
        assert repr(a) == repr(b) == f"Interval(lo={lo!r}, hi={hi!r}, lo_open={flags[0]}, hi_open={flags[1]})"


class TestBernoulliScreen:
    @settings(PROPERTY, max_examples=100)
    @given(intervals(), st.integers(0, 5), enumerated_views(), st.integers(0, 2))
    # level 4 starts UNKNOWN: the unit word "0" is skipped, and "1" still decides NO
    @example(Interval.closed(F(1, 4), F(1, 2)), 4, enumerated([("1", Interval.exact(0), 0)]), 0)
    # an open unit is not skipped: the image [0,0] of q = 0 misses it
    @example(Interval.exact(0), 4, enumerated([("0", Interval.open(0, 1), 0)]), 0)
    # unit views: only a parameter with ends 0 and 1 has a word whose image is all of [0,1]
    @example(Interval.unit(), 1, UNIT_VIEW, 0)
    @example(Interval.unit(), 2, UNIT_VIEW, 0)
    @example(Interval.unit(), 3, UNIT_VIEW, 0)
    @example(Interval.closed(0, F(1, 2)), 1, UNIT_VIEW, 0)
    @example(Interval.closed(0, F(1, 2)), 2, UNIT_VIEW, 0)
    @example(Interval.closed(0, F(1, 2)), 3, UNIT_VIEW, 0)
    def test_matches_full_screen(self, param, level, view, stage):
        ball = BernoulliCylinderBall(param, level)
        assert ball.contains(view, stage) == full_screen(ball, view, stage)

    def test_unit_views_pinned(self):
        # under [0,1] the one-letter words' images are [0,1], so level 1 stays YES, and "01" (image
        # [0, 1/4]) is the first word whose unit knowledge the image misses; under [0, 1/2] every
        # word's image misses it, so a unit word decides UNKNOWN with no image built
        yes, unknown = Verdict.YES, Verdict.UNKNOWN
        pins = ((Interval.unit(), [yes, unknown, unknown]), (Interval.closed(0, F(1, 2)), [unknown] * 3))
        for param, want in pins:
            balls = [BernoulliCylinderBall(param, level) for level in (1, 2, 3)]
            assert [b.contains(UNIT_VIEW, 0) for b in balls] == want
            assert [full_screen(b, UNIT_VIEW, 0) for b in balls] == want

    @settings(PROPERTY, max_examples=100)
    @given(intervals(), st.integers(0, 5), screened_entries(), st.integers(0, 4), st.integers(0, 4))
    def test_matches_full_screen_through_views(self, param, level, table_entry, stage, other):
        # one view asked at two stages, and again at the first, answers each from its memo
        t, e = table_entry
        ball = BernoulliCylinderBall(param, level)
        view = t.view(e)
        for s in (stage, other, stage):
            assert ball.contains(view, s) == full_screen(ball, t.view(e), s)
