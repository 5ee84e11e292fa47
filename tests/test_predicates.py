"""Interval validation and disjointness, and the Bernoulli-ball screen, against their plain definitions."""

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
        # one view asked at two stages, and again at the first, keeps one screen per stage
        t, e = table_entry
        ball = BernoulliCylinderBall(param, level)
        view = t.view(e)
        for s in (stage, other, stage):
            assert ball.contains(view, s) == full_screen(ball, t.view(e), s)
