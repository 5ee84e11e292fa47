"""Interval disjointness and the Bernoulli-ball screen against their plain definitions."""

from fractions import Fraction as F
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlearn.measures import BernoulliCylinderBall, Interval, Verdict, bernoulli_image, enumerated

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


@st.composite
def enumerated_views(draw):
    tuples = []
    for w in WORDS:
        iv = draw(revealed)
        if iv is not None:
            tuples.append((w, iv, draw(st.integers(0, 2))))
    return enumerated(tuples)


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
    def test_matches_full_screen(self, param, level, view, stage):
        ball = BernoulliCylinderBall(param, level)
        assert ball.contains(view, stage) == full_screen(ball, view, stage)
