import math
import os
import random
from fractions import Fraction as F
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlearn import measures
from cantorlearn.cantor import BitSource, ClosedClass, EndOfWordError
from cantorlearn.measures import (
    BernoulliCylinderBall,
    InterleaveCylinderBall,
    Interval,
    MalformedMeasureError,
    MeasureView,
    SupWalk,
    Verdict,
    ball as explicit_ball,
    bernoulli,
    ceil_neg_log2,
    dirac,
    enumerated,
    interleave_measure,
    sampled_source,
    uniform,
)
from cantorlearn.programs import (
    INVERSE_DEPTH_CAP,
    INVERSE_FRONTIER_CAP,
    PAD_BASE,
    AliasEntry,
    BernoulliLiftEntry,
    Entry,
    EntryView,
    EnumeratedMeasureEntry,
    ExactMeasureEntry,
    InverseLiftEntry,
    ParamLiftEntry,
    ProgramTable,
    RealEntry,
    StubEntry,
    WrongKindError,
    table_from_manifest,
)
from reference import mass_bits


class FbMap:
    """Parameter interval [0.w, 0.w + 2^-|w|] pinned to level |w|//3."""

    name = "fb-hat"

    def star(self, word):
        lo = F(int(word, 2) if word else 0, 1 << len(word)) if word else F(0)
        return BernoulliCylinderBall(
            Interval(lo, min(F(1), lo + F(1, 1 << len(word)))), level=len(word) // 3
        )


class CountingMap(FbMap):
    """FbMap counting the balls it builds, one per candidate a search tests."""

    def __init__(self):
        self.built = 0

    def star(self, word):
        self.built += 1
        return super().star(word)


def counting_domain(domain):
    """The domain with a list whose length counts its ``forbid_time`` reads; every inverse-lift
    walk reads at least one word ("" when it starts there), and a search that takes the last
    walk's answer reads nothing."""
    reads = []
    return ClosedClass(domain.name, lambda w: reads.append(w) or domain.forbid_time(w)), reads


def stub(t):
    return t.add(StubEntry("measure"))


def wide(t):
    """A measure entry revealing mu("0") in [1/4, 3/4] from stage 0: not blank and parameterless,
    yet over the hat image its walks meet the candidates a stub's walks meet, building their balls."""
    return t.add(EnumeratedMeasureEntry(enumerated([("0", Interval.closed(F(1, 4), F(3, 4)), 0)])))


def read_or_end(read):
    """A read's result, or EndOfWordError where it reads a literal source past its end."""
    try:
        return read()
    except EndOfWordError:
        return EndOfWordError


@pytest.fixture
def bit_calls(monkeypatch):
    """A list whose length counts the ``BitSource.bit`` calls made while the test runs."""
    calls = []
    bit = BitSource.bit
    monkeypatch.setattr(BitSource, "bit", lambda self, i: calls.append(i) or bit(self, i))
    return calls


def bit_loop(entry, n, stage):
    """A real entry's first n bits read one ``source.bit`` at a time: bit j is defined when
    j <= stage - delay and j < diverge_from, and the prefix stops at the first undefined bit;
    a literal source read past its end raises EndOfWordError."""
    bits = []
    for j in range(n):
        if j > stage - entry.delay or (entry.diverge_from is not None and j >= entry.diverge_from):
            break
        bits.append(str(entry.source.bit(j)))
    return "".join(bits)


def sup_bits(sup):
    """What a prefix walk yields for a knowledge sup: ceil(-log2 sup), infinite at 0."""
    return ceil_neg_log2(sup) if sup else math.inf


def basic_table():
    t = ProgramTable()
    t.add(ExactMeasureEntry(bernoulli(F(1, 2))))  # 0
    t.add(ExactMeasureEntry(bernoulli(F(1, 3))))  # 1
    t.add(ExactMeasureEntry(bernoulli(F(2, 3))))  # 2
    t.add(StubEntry("measure"))  # 3
    t.add(RealEntry(BitSource.rational(F(1, 3))))  # 4
    t.add(StubEntry("real"))  # 5
    t.add(AliasEntry(base=1))  # 6
    return t


class TestEvaluation:
    def test_exact_entry(self):
        t = basic_table()
        iv = t.eval_measure(0, "0", 100)
        assert iv.lo == iv.hi == F(1, 2)
        assert t.eval_measure(0, "0" * 50, 10) == Interval.unit()

    def test_stub_never_defines(self):
        t = basic_table()
        for s in (0, 10, 1 << 12):
            assert t.eval_measure(3, "01", s) == Interval.unit()
            assert t.eval_real(5, 0, s) is None

    def test_wrong_kind(self):
        t = basic_table()
        with pytest.raises(WrongKindError):
            t.eval_real(0, 0, 10)
        with pytest.raises(WrongKindError):
            t.eval_measure(4, "0", 10)

    def test_real_prefix_edges(self):
        # every real kind gives "" for n <= 0; the inverse lift slices its common prefix, which is
        # nonempty here; a measure index raises whatever n is; aliases read the base entry's bits
        t = basic_table()
        inverse = t.inverse_lift(FbMap(), ClosedClass.hat_image(), 1)  # 7, over bernoulli(1/3)
        third = BitSource.rational(F(1, 3)).prefix(12)  # 0.0101..., in the hat image
        assert t.real_prefix(inverse, 12, 64) == third
        for e in (4, 5, inverse):
            assert [t.real_prefix(e, n, 64) for n in (0, -1, -12)] == ["", "", ""]
        for e in (0, 3, 6, t.pad(1, 2)):
            for n in (0, 4):
                with pytest.raises(WrongKindError):
                    t.real_prefix(e, n, 64)
        for e, want in ((4, third), (5, ""), (inverse, third)):
            for alias in (t.pad(e, 3), t.add(AliasEntry(e)), t.pad(t.add(AliasEntry(e)), 1)):
                assert t.real_prefix(alias, 12, 64) == want

    def test_negative_position_raises(self):
        # every real kind raises IndexError for j < 0, at every stage and through padding; a
        # measure index fails the kind check first
        t = basic_table()
        delayed = t.add(RealEntry(BitSource.rational(F(1, 3)), delay=5))
        inverse = t.inverse_lift(FbMap(), ClosedClass.hat_image(), 1)  # over bernoulli(1/3)
        for e in (4, delayed, 5, inverse, t.pad(delayed, 2), t.pad(inverse, 1)):
            for j in (-1, -7):
                for stage in (0, 20):
                    with pytest.raises(IndexError, match="negative position"):
                        t.eval_real(e, j, stage)
        for e in (0, 3, t.pad(1, 2)):
            with pytest.raises(WrongKindError):
                t.eval_real(e, -1, 20)

    def test_real_expansion(self):
        t = basic_table()
        assert [t.eval_real(4, j, 100) for j in range(4)] == [0, 1, 0, 1]

    def test_real_stage_monotone(self):
        t = basic_table()
        t.add(RealEntry(BitSource.rational(F(2, 5)), delay=3))
        e = len(t) - 1
        for j in range(6):
            defined_at = None
            for s in range(0, 20):
                b = t.eval_real(e, j, s)
                if defined_at is None and b is not None:
                    defined_at = (s, b)
                if defined_at is not None:
                    assert b == defined_at[1]

    def test_exact_prefix_sups_match_knowledge(self):
        # the running product against each prefix's knowledge, around the
        # delay boundary and past the support (literal "01" ends at bit 2)
        t = ProgramTable()
        t.add(ExactMeasureEntry(interleave_measure(BitSource.rational(F(1, 3))), delay=3))
        t.add(ExactMeasureEntry(dirac(BitSource.literal("01"))))
        for e, x in ((0, "0111100110"), (1, "1000")):
            for stage in range(16):
                want = [sup_bits(t.eval_measure(e, x[:n], stage).hi) for n in range(len(x) + 1)]
                assert list(t.prefix_sup_bits(e, x, stage)) == want

    def test_negative_delays_raise(self):
        # a negative delay would reveal exact masses beyond the stage
        with pytest.raises(ValueError):
            ExactMeasureEntry(bernoulli(F(1, 3)), delay=-2)
        with pytest.raises(ValueError):
            RealEntry(BitSource.rational(F(1, 3)), delay=-1)

    def test_diverging_real(self):
        t = basic_table()
        t.add(RealEntry(BitSource.rational(F(1, 3)), diverge_from=5))
        e = len(t) - 1
        assert t.eval_real(e, 4, 1000) is not None
        assert t.eval_real(e, 5, 10**6) is None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(
            [
                BitSource.rational(F(1, 3)),
                BitSource.hat_rational(F(2, 5)),
                BitSource.periodic("110", head="0"),
                BitSource.constant(1),
                BitSource.literal("0110100"),
                sampled_source(bernoulli(F(1, 3)), 4),
            ]
        ),
        st.integers(0, 6),
        st.one_of(st.none(), st.integers(0, 40)),
        st.integers(-3, 48),
        st.lists(st.integers(-2, 60), min_size=1, max_size=5),
    )
    def test_real_prefix_is_the_bit_loop(self, source, delay, diverge_from, n, stages):
        # the source's one prefix read, cut to the defined length, is what a loop over
        # source.bit reads, under a delay, a divergence point, n <= 0 and n past the defined length
        t = ProgramTable()
        e = t.add(RealEntry(source, delay, diverge_from))
        entry, prev = t.entry(e), ""
        for stage in sorted(stages):
            got = read_or_end(lambda: t.real_prefix(e, n, stage))
            assert got == read_or_end(lambda: bit_loop(entry, n, stage))
            if got is not EndOfWordError:
                assert got.startswith(prev)  # only grows as the stage rises
                prev = got

    def test_lift_sweeps_read_no_single_bits(self, bit_calls):
        # both lifts read their real's prefix in one step per stage; bit by bit, the param lift's
        # sweep under this inverse lift made 720 BitSource.bit calls, and the Bernoulli lift's 1776
        t = ProgramTable()
        real = t.add(RealEntry(BitSource.hat_rational(F(1, 3))))
        back = t.inverse_lift(FbMap(), ClosedClass.hat_image(), t.param_lift(FbMap(), real))
        got = [t.real_prefix(back, 32, s) for s in range(8, 193, 8)]
        assert got[-1] == BitSource.hat_rational(F(1, 3)).prefix(32)
        assert len(bit_calls) == 0
        third = t.add(RealEntry(BitSource.rational(F(1, 3))))
        known = [t.eval_measure(t.bernoulli_lift(third), "0", s) for s in range(8, 193, 8)]
        assert known[-1].contains(F(1, 3)) and known[-1].width < F(1, 1 << 90)
        assert len(bit_calls) == 0
        # the count sees a bit loop's reads
        assert bit_loop(t.entry(third), 8, 8) == "01010101"
        assert len(bit_calls) == 8


class TestPadding:
    def test_strictly_increasing(self):
        t = basic_table()
        assert t.pad(1, 0) < t.pad(1, 1) < t.pad(1, 2)

    def test_distinct_from_bases(self):
        t = basic_table()
        for j in range(5):
            assert t.pad(0, j) >= PAD_BASE > len(t)

    def test_registry_fills_every_index_below_the_padding(self):
        t = ProgramTable([StubEntry("real")] * (PAD_BASE - 1))  # a list of references: cheap
        assert t.add(StubEntry("real")) == PAD_BASE - 1 == t.resolve(PAD_BASE - 1)
        with pytest.raises(OverflowError):
            t.add(StubEntry("real"))

    def test_constructor_rejects_entries_in_the_padding(self):
        with pytest.raises(OverflowError):
            ProgramTable([StubEntry("real")] * (PAD_BASE + 1))

    def test_alias_evaluates_like_base(self):
        t = basic_table()
        rng = random.Random(0)
        for _ in range(20):
            i = rng.randint(0, 2)
            j = rng.randint(0, 6)
            w = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            s = rng.randint(0, 64)
            assert t.eval_measure(t.pad(i, j), w, s) == t.eval_measure(i, w, s)

    def test_registry_alias(self):
        t = basic_table()
        assert t.eval_measure(6, "0", 50) == t.eval_measure(1, "0", 50)

    def test_nested_pads_resolve(self):
        t = basic_table()
        p = t.pad(t.pad(2, 3), 1)
        assert t.resolve(p) == 2
        # far beyond float range: the pairing inverse must stay exact
        assert t.resolve(t.pad(t.pad(1, 10**200), 10**300)) == 1

    def test_alias_cycle_raises(self):
        t = ProgramTable()
        t.add(AliasEntry(base=0))  # 0 -> 0
        t.add(AliasEntry(base=t.pad(2, 1)))  # 1 -> pad(2, 1) -> 2
        t.add(AliasEntry(base=1))  # 2 -> 1
        for e in (0, 1, 2, t.pad(1, 4)):
            with pytest.raises(ValueError, match="alias cycle"):
                t.resolve(e)
            with pytest.raises(ValueError, match="alias cycle"):
                t.eval_measure(e, "0", 8)


def late_measures():
    """Adders of measure entries for inverse lifts: the hat lifts' parameter narrows at every
    stage, the delayed interleave measures (which FbMap balls read word by word) reveal words
    as the stage grows, the enumerated one reveals "0" at stage 9 and "11" at stage 20, and the stub
    and bernoulli(2/5) give FbMap balls the same answers at every stage."""

    def hat_lift(t, delay):
        return t.param_lift(FbMap(), t.add(RealEntry(BitSource.hat_rational(F(1, 3)), delay)))

    def interleave(t, delay):
        return t.add(ExactMeasureEntry(interleave_measure(BitSource.hat_rational(F(1, 3))), delay))

    late = enumerated([("0", Interval.closed(F(1, 4), F(1, 2)), 9), ("11", Interval.exact(F(1, 4)), 20)])
    return [
        partial(hat_lift, delay=0),
        partial(hat_lift, delay=4),
        lambda t: t.add(StubEntry("measure")),
        lambda t: t.add(ExactMeasureEntry(bernoulli(F(2, 5)))),
        *(partial(interleave, delay=delay) for delay in (0, 3, 6)),
        lambda t: t.add(EnumeratedMeasureEntry(late)),
    ]


class TestIndexTypes:
    """A table's reads take an entry index only as an int: a bool would read as entry 0 or 1, and a
    float would reach the list lookup. An int out of range still raises IndexError."""

    READS = {
        "eval_measure": lambda t, e: t.eval_measure(e, "0", 1),
        "real_prefix": lambda t, e: t.real_prefix(e, 4, 4),
        "resolve": lambda t, e: t.resolve(e),
        "view": lambda t, e: t.view(e),
        "pad-first": lambda t, e: t.pad(e, 0),
        "pad-second": lambda t, e: t.pad(0, e),
    }

    @staticmethod
    def table():
        entries = [ExactMeasureEntry(uniform()), ExactMeasureEntry(bernoulli(F(1, 3)))]
        return ProgramTable(entries + [RealEntry(BitSource.rational(F(1, 3)))])

    @pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
    @pytest.mark.parametrize("read", list(READS.values()), ids=list(READS))
    def test_a_non_int_index_raises_type_error(self, read, bad):
        with pytest.raises(TypeError, match=f"must be (an int|ints), got .*{bad!r}") as caught:
            read(self.table(), bad)
        assert caught.type is TypeError

    def test_an_int_out_of_range_keeps_its_index_error(self):
        t = self.table()
        for read in (lambda: t.resolve(3), lambda: t.eval_measure(-1, "0", 1), lambda: t.pad(0, -1)):
            with pytest.raises(IndexError):
                read()
        assert t.eval_measure(1, "0", 1) == Interval.exact(F(1, 3)) and t.resolve(t.pad(2, 1)) == 2


class TestLifts:
    def test_bernoulli_lift_converges(self):
        t = basic_table()
        t.add(RealEntry(BitSource.rational(F(1, 2))))
        e = t.bernoulli_lift(len(t) - 1)
        iv = t.eval_measure(e, "0", 200)
        assert iv.contains(F(1, 2))
        assert iv.width <= F(1, 1 << 90)
        early = t.eval_measure(e, "0", 3)
        assert early.width > iv.width  # knowledge tightens with the stage

    def test_bernoulli_lift_stalls_on_divergence(self):
        t = basic_table()
        t.add(RealEntry(BitSource.rational(F(1, 3)), diverge_from=5))
        e = t.bernoulli_lift(len(t) - 1)
        w1 = t.eval_measure(e, "0" * 12, 100).width
        w2 = t.eval_measure(e, "0" * 12, 10_000).width
        assert w1 == w2 > 0

    def test_lift_memoized(self):
        t = basic_table()
        assert t.bernoulli_lift(4) == t.bernoulli_lift(4)

    def test_param_lift_nesting(self):
        t = basic_table()
        t.add(RealEntry(BitSource.hat_rational(F(1, 3))))
        e = t.param_lift(FbMap(), len(t) - 1)
        prev = None
        for s in (3, 9, 18, 36):
            iv = t.eval_measure(e, "0", s)
            if prev is not None:
                assert prev.contains_interval(iv)
            prev = iv
        # knowledge closes on the hat-real's parameter value 2/5
        assert iv.contains(F(2, 5))

    def test_param_lift_agrees_with_bernoulli_lift(self):
        # fb on the hat-real against the plain lift of the same expansion
        t = basic_table()
        t.add(RealEntry(BitSource.hat_rational(F(1, 3))))  # hat real: param 2/5
        hat_e = len(t) - 1
        t.add(RealEntry(BitSource.rational(F(2, 5))))
        plain_e = len(t) - 1
        lifted = t.param_lift(FbMap(), hat_e)
        direct = t.bernoulli_lift(plain_e)
        s = 120
        for w in ("0", "1", "00", "01"):
            a = t.eval_measure(lifted, w, s)
            b = t.eval_measure(direct, w, s)
            assert a.intersect(b) is not None
            assert a.width <= F(1, 1 << 20) and b.width <= F(1, 1 << 20)

    def test_inverse_lift_recovers_hat_real(self):
        t = basic_table()
        t.add(ExactMeasureEntry(bernoulli(F(2, 5))))
        e = t.inverse_lift(FbMap(), ClosedClass.hat_image(), len(t) - 1)
        got = t.real_prefix(e, 12, stage=64)
        assert got == BitSource.hat_rational(F(1, 3)).prefix(12)

    def test_inverse_lift_stub_never_extends(self):
        t = basic_table()
        e = t.inverse_lift(FbMap(), ClosedClass.hat_image(), 3)
        assert t.eval_real(e, 0, 500) is None

    def test_inverse_lift_respects_the_domain(self):
        # hat real of 1/3 starts 011001100110; answers recorded with whole-word liveness checks.
        # Both domains share one table and one measure, so each needs a lift of its own
        pinned = {"": ["", "", "", ""], "011001": ["01", "01100", "01100", "01100"]}
        t = ProgramTable()
        m = t.add(ExactMeasureEntry(bernoulli(F(2, 5))))
        for word, want in pinned.items():
            e = t.inverse_lift(FbMap(), ClosedClass.from_stage_sets({0: {word}}), m)
            assert [t.real_prefix(e, 12, s) for s in (2, 8, 16, 64)] == want

    def test_inverse_lift_stalls_on_ambiguity(self):
        t = basic_table()
        t.add(EnumeratedMeasureEntry(enumerated([("0", Interval.closed(F(0), F(1)), 0)])))
        e = t.inverse_lift(FbMap(), ClosedClass.hat_image(), len(t) - 1)
        assert t.eval_real(e, 0, 200) is None  # both 01... and 10... survive
        # survivors that differ at the first bit: ambiguity at stage 8, the frontier cap by stage 200
        assert [t.entry(e).stop_reason(t, s) for s in (8, 200)] == ["ambiguous", "frontier-cap"]

    def test_round_trip_24_bits(self):
        t = basic_table()
        for v in (F(1, 3), F(2, 5), F(2, 3)):
            t.add(RealEntry(BitSource.hat_rational(v)))
            e = len(t) - 1
            lifted = t.param_lift(FbMap(), e)
            back = t.inverse_lift(FbMap(), ClosedClass.hat_image(), lifted)
            want = BitSource.hat_rational(v).prefix(24)
            assert t.real_prefix(back, 24, stage=160) == want

    def test_transfer_pins(self):
        # lengths recorded before the lifts were memoised per stage
        pinned = [6, 14, 22, 30] + [32] * 20
        for v in (F(1, 3), F(5, 7)):
            t = ProgramTable()
            real = t.add(RealEntry(BitSource.hat_rational(v)))
            back = t.inverse_lift(FbMap(), ClosedClass.hat_image(), t.param_lift(FbMap(), real))
            got = [t.real_prefix(back, 32, s) for s in range(8, 193, 8)]
            assert [len(p) for p in got] == pinned
            assert all(p == BitSource.hat_rational(v).prefix(len(p)) for p in got)
        t = ProgramTable()
        stalled = t.inverse_lift(FbMap(), ClosedClass.hat_image(), t.add(StubEntry("measure")))
        assert [t.eval_real(stalled, 0, s) for s in (64, 300, 511)] == [None, None, None]

    @staticmethod
    def lift_table():
        t = ProgramTable()
        real = t.add(RealEntry(BitSource.hat_rational(F(1, 3))))
        plain = t.add(RealEntry(BitSource.rational(F(2, 5))))
        param = t.param_lift(FbMap(), real)
        lifts = {
            "bernoulli": t.bernoulli_lift(plain),
            "param": param,
            "inverse": t.inverse_lift(FbMap(), ClosedClass.hat_image(), param),
        }
        return t, lifts

    @staticmethod
    def lift_answers(t, lifts, s):
        return (
            t.eval_measure(lifts["bernoulli"], "0110", s),
            t.eval_measure(lifts["param"], "10", s),
            t.real_prefix(lifts["inverse"], 32, s),
        )

    def test_memos_keep_the_latest_stage(self):
        t, lifts = self.lift_table()
        for s in range(1, 301):
            self.lift_answers(t, lifts, s)
        for e in lifts.values():
            assert t.entry(e)._at == (t, 300)
        for s in (300, 1, 57, 192):
            assert self.lift_answers(t, lifts, s) == self.lift_answers(*self.lift_table(), s)

    @staticmethod
    def value_table(v, lifts=None):
        """Hat and plain expansions of v, then a Bernoulli lift of the plain one, an FbMap lift of the
        hat one and an inverse lift of that: ``lifts``, the same three entry objects, when given."""
        t = ProgramTable([RealEntry(BitSource.hat_rational(v)), RealEntry(BitSource.rational(v))])
        hat = ClosedClass.hat_image()
        t.entries += lifts or [BernoulliLiftEntry(1), ParamLiftEntry(FbMap(), 0), InverseLiftEntry(FbMap(), hat, 3)]
        return t

    @staticmethod
    def value_answers(t, s):
        measures = t.eval_measure(2, "0110", s), t.eval_measure(3, "10", s)
        return measures, t.real_prefix(4, 32, s), t.entry(4).stop_reason(t, s)

    SHARED_STAGES = st.sampled_from((0, 3, 8, 16, 24, 40, 64, 96, 150))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.sampled_from((F(1, 3), F(2, 5), F(5, 7), F(1, 2), F(0))), min_size=2, max_size=2, unique=True),
        st.lists(st.tuples(st.integers(0, 1), SHARED_STAGES), min_size=2, max_size=8),
    )
    def test_lifts_shared_by_two_tables_answer_each_as_a_fresh_table(self, values, reads):
        # one entry of each lift kind in two tables over different reals, read in any interleaving of
        # tables and stages: each memo is stamped with the table it answers, so neither table gets
        # the other's ball or walk
        first = self.value_table(values[0])
        tables = [first, self.value_table(values[1], first.entries[2:])]
        for i, s in reads:
            assert self.value_answers(tables[i], s) == self.value_answers(self.value_table(values[i]), s)

    def test_a_walk_that_raises_raises_again(self):
        # a walk that raises leaves its records unstamped, so each later search at that stage walks
        # and raises again: from "", or from the records of the stage-4 walk in between
        def read(e, s):
            try:
                return t.real_prefix(e, 8, s)
            except (WrongKindError, MalformedMeasureError) as error:
                return type(error)

        t = ProgramTable()
        real = t.inverse_lift(FbMap(), ClosedClass.full(), t.add(RealEntry(BitSource.rational(F(1, 3)))))
        torn = enumerated([("0", Interval.closed(F(0), F(1, 4)), 0), ("0", Interval.closed(F(1, 2), F(1)), 5)])
        m = t.add(EnumeratedMeasureEntry(torn))
        late = t.inverse_lift(FbMap(), ClosedClass.full(), m)
        want = t.real_prefix(t.add(InverseLiftEntry(FbMap(), ClosedClass.full(), m)), 8, 4)
        assert [read(real, 8) for _ in range(3)] == [WrongKindError] * 3
        torn_reads = [MalformedMeasureError] * 2
        assert [read(late, s) for s in (5, 5, 4, 5, 5)] == torn_reads + [want] + torn_reads

    def test_a_repeat_read_builds_no_view(self, monkeypatch):
        # at the stamped (table, stage) an inverse lift answers from its records with no view. The
        # stub's stage-300 and stage-100 searches take its stage-64 walk's answer, each building one
        # view for its replay: a stamp moved on to 300 still lets the stage-100 search take it
        views = []
        view = ProgramTable.view
        monkeypatch.setattr(ProgramTable, "view", lambda self, e: views.append(e) or view(self, e))
        t, lifts = self.lift_table()
        counting, reads = counting_domain(ClosedClass.hat_image())
        stalled = t.inverse_lift(FbMap(), counting, stub(t))
        for e, s in ((lifts["inverse"], 96), (stalled, 64), (stalled, 300), (stalled, 100)):
            views.clear()
            answer = (t.real_prefix(e, 32, s), t.entry(e).stop_reason(t, s))
            assert len(views) == 1
            for _ in range(3):
                assert (t.real_prefix(e, 32, s), t.entry(e).stop_reason(t, s)) == answer
            assert len(views) == 1
        assert len(reads) == 3580  # the stage-64 walk's reads only

    @staticmethod
    def domain_table(sets):
        t = ProgramTable()
        d = ClosedClass.from_stage_sets(sets)
        return t, t.inverse_lift(FbMap(), d, t.add(ExactMeasureEntry(bernoulli(F(2, 5)))))

    RECORD_BOUND = 2 * INVERSE_DEPTH_CAP * (INVERSE_FRONTIER_CAP + 1)

    @staticmethod
    def measure_table(add_measure, domain):
        t = ProgramTable()
        return t, t.inverse_lift(FbMap(), domain, add_measure(t))

    def test_resumed_search_equals_a_fresh_one(self):
        # each search takes the last walk's answer or walks on from its deepest level whose record
        # holds, skipping the balls of the YES and NO verdicts that walk met, or walks from "" when
        # the stage falls; an UNKNOWN holds only while the measure answers the logged reads as before
        builds = [
            partial(self.measure_table, add, domain)
            for add in late_measures()
            for domain in (ClosedClass.full(), ClosedClass.hat_image())
        ]
        builds += [partial(self.domain_table, {at: {word}}) for at in (0, 10) for word in ("", "011001")]
        for build in builds:
            t, e = build()
            for s in (2, 8, 9, 16, 12, 20, 21, 64, 66, 3, 30, 192, 70):
                fresh, f = build()
                assert t.real_prefix(e, INVERSE_DEPTH_CAP, s) == fresh.real_prefix(f, INVERSE_DEPTH_CAP, s)
                assert t.entry(e).stop_reason(t, s) == fresh.entry(f).stop_reason(fresh, s)
                memo = t.entry(e)._memo
                assert len(memo) <= self.RECORD_BOUND and Verdict.UNKNOWN not in memo.values()

    def test_rising_sweep_builds_each_ball_once(self):
        # 121 of the sweep's candidates ever need a test; walking on without the YES/NO memo builds
        # 137 balls, and walking each search from "" 2000
        f = CountingMap()
        t = ProgramTable()
        real = t.add(RealEntry(BitSource.hat_rational(F(1, 3))))
        back = t.inverse_lift(f, ClosedClass.hat_image(), t.param_lift(f, real))
        got = [t.real_prefix(back, 32, s) for s in range(8, 193, 8)]
        assert got[-1] == BitSource.hat_rational(F(1, 3)).prefix(32)
        assert f.built <= 200
        # past depth 2 the candidates stay UNKNOWN, the knowledge never changes, and the hat image
        # forbids each word from stage 0 or never, so the stage-64 walk's frontier-cap stop holds and
        # the later stalls take its answer: they build no ball and read no forbid_time. The stub
        # reveals nothing, so its walk builds no ball at all; its twin keeps the ball path pinned.
        # The counting domain takes the generic level read: the stub's walk reads each capped level
        # up to its cap, the twin's reads that level whole before its balls are judged (3580 before)
        for add, balls, read in ((stub, 0, 3580), (wide, 2557, 4091)):
            f = CountingMap()
            counting, reads = counting_domain(ClosedClass.hat_image())
            t = ProgramTable()
            stalled = t.inverse_lift(f, counting, add(t))
            counts = []
            for s in (64, 300, 511):
                assert t.eval_real(stalled, 0, s) is None
                assert t.entry(stalled).stop_reason(t, s) == "frontier-cap"
                assert len(t.entry(stalled)._memo) <= self.RECORD_BOUND
                counts.append((f.built, len(reads)))
            assert counts == [(balls, read)] * 3

    def test_rising_sweep_walks_on_from_the_deepest_holding_level(self):
        # the param lift narrows at every stage, so only the levels with no UNKNOWN hold; below the
        # last two levels each holds one YES and one NO or forbidden word, so each walk goes on from
        # the last one's deepest such level without reading "" (restarting from "" read 2664, and
        # reading "" in each walk 185). The stage-72 walk meets no UNKNOWN and stops at the depth
        # cap, so the 15 searches from stage 80 on take its answer and read nothing
        f = CountingMap()
        counting, reads = counting_domain(ClosedClass.hat_image())
        t = ProgramTable()
        real = t.add(RealEntry(BitSource.hat_rational(F(1, 3))))
        back = t.inverse_lift(f, counting, t.param_lift(f, real))
        got = [t.real_prefix(back, 32, s) for s in range(8, 193, 8)]
        assert [len(p) for p in got] == [6, 14, 22, 30] + [32] * 20
        assert (f.built, len(reads)) == (121, 177)

    def test_deepening_stall_walks_on_from_its_last_level(self, monkeypatch):
        # the UNKNOWNs replay, so each "depth" stop's last level holds and the next walk goes on from
        # it, asking replays once (re-walking from level 2 with recorded UNKNOWNs built the same balls
        # but read 379/1525/3574/0 words). The stage-20 walk stops at the frontier cap, so the
        # stage-64 search takes its answer. The stub reveals nothing, so its walks build no ball; its
        # stage-20 walk reads its capped level up to the cap, the twin's reads it whole (2049 before)
        replays = []
        replay = EntryView.replays
        monkeypatch.setattr(EntryView, "replays", lambda self, log, s: replays.append(s) or replay(self, log, s))
        for add, balls, capped in ((stub, (0, 0, 0), 2049), (wide, (252, 768, 1537), 2560)):
            f = CountingMap()
            counting, reads = counting_domain(ClosedClass.hat_image())
            t = ProgramTable()
            stalled = t.inverse_lift(f, counting, add(t))
            counts = []
            for s in (12, 16, 20, 64):
                built, read, asked = f.built, len(reads), len(replays)
                assert t.eval_real(stalled, 0, s) is None
                counts.append((f.built - built, len(reads) - read, len(replays) - asked))
            assert counts == [(balls[0], 379, 0), (balls[1], 1152, 1), (balls[2], capped, 1), (0, 0, 1)]
            assert t.entry(stalled).stop_reason(t, 64) == "frontier-cap"

    # each condition under which a search walks again instead of taking the last walk's answer
    @staticmethod
    def reuse_case(sets, stages):
        """Ask an inverse lift of bernoulli(2/5) under a domain forbidding ``sets`` at each stage,
        each answer checked against a fresh lift's; each search's answer and forbid_time reads."""
        counting, reads = counting_domain(ClosedClass.from_stage_sets(sets))
        t = ProgramTable()
        m = t.add(ExactMeasureEntry(bernoulli(F(2, 5))))
        e = t.inverse_lift(FbMap(), counting, m)
        got = []
        for s in stages:
            reads.clear()
            fresh = t.add(InverseLiftEntry(FbMap(), ClosedClass.from_stage_sets(sets), m))
            answer = (t.real_prefix(e, INVERSE_DEPTH_CAP, s), t.entry(e).stop_reason(t, s))
            assert answer == (t.real_prefix(fresh, INVERSE_DEPTH_CAP, s), t.entry(fresh).stop_reason(t, s))
            got.append((answer, len(reads)))
        return got

    def test_reuse_refused_when_a_met_word_is_forbidden(self):
        # the stage-64 walk stops at the depth cap and meets only YES and NO verdicts, the real being
        # 0.0110 0110...; "0110" (YES) and "0111" (NO) are met there and forbidden at stage 70, "1111"
        # (under the NO word "1") is never met
        for word, want in (("0110", ("011", "no-survivors")), ("0111", None)):
            (first, _), (second, reads) = self.reuse_case({70: {word}}, (64, 72))
            assert reads > 0 and second == (want or first)
        (first, _), (second, reads) = self.reuse_case({70: {"1111"}}, (64, 72))
        assert reads == 0 and second == first

    def test_reuse_refused_when_a_depth_stop_can_go_deeper(self):
        (first, _), (second, reads), (third, more) = self.reuse_case({}, (20, 30, 64))
        assert first[1] == second[1] == third[1] == "depth"
        assert reads > 0 and len(second[0]) == 30 and more > 0 and len(third[0]) == INVERSE_DEPTH_CAP
        # past the depth cap the stop no longer moves, so the stage-64 answer holds
        assert self.reuse_case({}, (64, 200))[1] == (third, 0)

    def test_first_stall_evaluates_each_word_once(self, monkeypatch):
        # the balls read the parameterless view word by word, 35230 reads for these 2557 candidates,
        # and the view's (word, stage) memo evaluates each word once: the table's evaluations (memo
        # misses) stay fewer than the balls. Over the stub, which reveals nothing, the stall builds
        # no ball and reads no knowledge
        calls = [0]
        eval_measure = ProgramTable.eval_measure

        def counting_eval(self, e, word, stage):
            calls[0] += 1
            return eval_measure(self, e, word, stage)

        monkeypatch.setattr(ProgramTable, "eval_measure", counting_eval)
        for add, balls in ((stub, 0), (wide, 2557)):
            calls[0] = 0
            f = CountingMap()
            t = ProgramTable()
            stalled = t.inverse_lift(f, ClosedClass.hat_image(), add(t))
            assert t.eval_real(stalled, 0, 64) is None
            assert f.built == balls
            assert calls[0] < f.built or calls[0] == f.built == 0

    def test_unknowns_are_dropped_once_the_first_words_narrow(self):
        # every ball is past level 3, so the search reads the measure only on the words of levels 1
        # to 3, and "0" is pinned to 1/3 at stage 11; the stage-10 search stops at the frontier cap
        # after meeting 513 UNKNOWNs at depth 10; its stop would hold at stage 11 if they replayed,
        # and they do not
        class DeepMap(FbMap):
            def star(self, word):
                return BernoulliCylinderBall(super().star(word).param, 4)

        counting, reads = counting_domain(ClosedClass.full())

        def build(domain=ClosedClass.full()):
            t = ProgramTable()
            m = t.add(EnumeratedMeasureEntry(enumerated([("0", Interval.exact(F(1, 3)), 11)])))
            return t, m, t.inverse_lift(DeepMap(), domain, m)

        t, m, e = build(counting)
        assert t.real_prefix(e, 16, 10) == ""
        assert t.entry(e).stop_reason(t, 10) == "frontier-cap"
        log = t.entry(e)._log
        assert t.view(m).replays(log, 10) and not t.view(m).replays(log, 11)
        want = BitSource.rational(F(1, 3)).prefix(11)
        reads.clear()
        assert t.real_prefix(e, 16, 11) == want
        assert reads  # the frontier-cap stop would hold, but the UNKNOWNs do not replay: a walk ran
        assert t.entry(e).stop_reason(t, 11) == "depth"
        fresh, _, f = build()
        assert fresh.real_prefix(f, 16, 11) == want

    def test_stop_reasons(self):
        t = ProgramTable()
        stalled = t.inverse_lift(FbMap(), ClosedClass.hat_image(), t.add(StubEntry("measure")))
        assert t.entry(stalled).stop_reason(t, 64) == "frontier-cap"
        t, lifts = self.lift_table()
        # the hat real's lift keeps two survivors that part before the depth until stage 72
        assert [t.entry(lifts["inverse"]).stop_reason(t, s) for s in (64, 72, 192)] == ["ambiguous", "depth", "depth"]
        t, e = self.domain_table({0: {""}})
        assert t.entry(e).stop_reason(t, 16) == "dead-domain"
        t, e = self.domain_table({10: {"011001"}})
        assert t.entry(e).stop_reason(t, 16) == "no-survivors"
        # the reason comes from the same search as the bits, which it leaves as they are
        assert t.real_prefix(e, 12, 16) == "01100"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.text("01", max_size=48),
        st.integers(-1, 120),
        st.sampled_from([F(1, 3), F(1, 2), F(2, 5), F(0), F(1)]),
        st.one_of(st.none(), st.integers(0, 12)),
    )
    def test_bernoulli_lift_prefix_sups_match_knowledge(self, x, stage, q, diverge_from):
        t = ProgramTable()
        lift = t.bernoulli_lift(t.add(RealEntry(BitSource.rational(q), diverge_from=diverge_from)))
        want = [sup_bits(t.eval_measure(lift, x[:n], stage).hi) for n in range(len(x) + 1)]
        assert list(t.prefix_sup_bits(lift, x, stage)) == want


@st.composite
def near_dyadic(draw):
    """A parameter q in (0, 1) with -log2 q or -log2(1 - q) within about
    2^-(m+j) of an integer, so that prefix walks meet near-integer sums."""
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        q = F(1 << m, (1 << m) + 1)  # -log2 q is about 1.44 * 2^-m
    else:
        i = draw(st.integers(0, m - 1))
        k = 1 << i if draw(st.booleans()) else (1 << m) - (1 << i)
        q = F(k, 1 << m) + draw(st.sampled_from([-1, 1])) * F(1, 1 << (m + draw(st.integers(1, 60))))
    return 1 - q if draw(st.booleans()) else q


# words of one repeated bit keep the near-integer terms together
WALK_WORDS = st.one_of(
    st.text("01", max_size=64),
    st.builds(lambda ch, n: ch * n, st.sampled_from("01"), st.integers(0, 64)),
)


class TestCertifiedSupBits:
    """Exact Bernoulli measures and Bernoulli lifts yield ceil(-log2 sup) from
    floats only where an error bound certifies it, and exactly otherwise.
    Exact measures over interleave and dirac rules walk prefix lengths, and
    a dyadic rule's walk never takes an integer ratio."""

    def test_certified_equals_exact(self, monkeypatch):
        fallbacks = []

        def counted(num, den, real=measures._ceil_log2_ratio):
            fallbacks.append((num, den))
            return real(num, den)

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(near_dyadic(), WALK_WORDS, st.booleans(), st.data())
        def certified_equals_exact(q, x, lift, data):
            t = ProgramTable()
            if lift:
                e = t.bernoulli_lift(t.add(RealEntry(BitSource.rational(q))))
                # from the stage where q's binary digits are all read, q is the lower end
                stage = data.draw(st.integers(-1, 120) | st.integers(q.denominator.bit_length(), 120))
            else:
                e = t.add(ExactMeasureEntry(bernoulli(q)))
                stage = data.draw(st.integers(-1, 80))
            want = [sup_bits(t.eval_measure(e, x[:n], stage).hi) for n in range(len(x) + 1)]
            with monkeypatch.context() as patched:
                # in the walks, only the exact fallbacks call it
                patched.setattr(measures, "_ceil_log2_ratio", counted)
                got = list(t.prefix_sup_bits(e, x, stage))
            assert got == want

        certified_equals_exact()
        assert fallbacks  # the near-integer cases reach the exact fallback

    @pytest.mark.parametrize(
        "mu",
        [uniform(), bernoulli(F(1, 2)), interleave_measure(BitSource.hat_rational(F(2, 5))), dirac(BitSource.periodic("011"))],
        ids=["uniform", "bernoulli-1/2", "interleave", "dirac"],
    )
    def test_dyadic_rules_never_fall_back(self, monkeypatch, mu):
        def no_fallback(num, den):
            raise AssertionError("a dyadic walk fell back to integers")

        monkeypatch.setattr(measures, "_ceil_log2_ratio", no_fallback)
        t = ProgramTable()
        e = t.add(ExactMeasureEntry(mu))
        x = measures.sample_stream(mu, 0, 4096)
        got = list(t.prefix_sup_bits(e, x, len(x)))
        assert len(got) == 4097 and got == sorted(got)
        assert got[-1] == {"dirac": 0, "interleave": 2048}.get(mu.spec["kind"], 4096)


# words up to 300 bits: fair bits, or one bit repeated
LONG_WORDS = st.one_of(
    st.builds(lambda n, v: format(v, "0300b")[:n], st.integers(0, 300), st.integers(0, 2**300 - 1)),
    st.builds(lambda ch, n: ch * n, st.sampled_from("01"), st.integers(0, 300)),
)

# q in (0, 1) with a small denominator, near an end, or at an end
SMALL_OR_EXTREME_Q = st.one_of(
    st.integers(2, 40).flatmap(lambda d: st.builds(F, st.integers(1, d - 1), st.just(d))),
    st.sampled_from([F(0), F(1), F(1, 1000), F(999, 1000), F(1, 2**40), F(2**40 - 1, 2**40)]),
)


class TestSupWalks:
    """Param lifts whose stage ball is a ``BernoulliCylinderBall`` (Bernoulli
    lifts among them) and exact entries over a uniform or Bernoulli rule read
    ceil(-log2 sup) of each prefix from its zero count (``SupWalk``): the
    values of the per-bit walks, read in any order, rising at most ``step``
    per bit."""

    @settings(max_examples=180, deadline=None, derandomize=True, database=None)
    @given(LONG_WORDS, SMALL_OR_EXTREME_Q, st.sampled_from(["exact", "bernoulli-lift", "param-lift"]), st.data())
    def test_count_form_equals_the_per_bit_walk(self, x, q, kind, data):
        t = ProgramTable()
        stage = data.draw(st.just(len(x)) | st.integers(-1, 320))
        if kind == "exact":
            mu = bernoulli(q)
            e = t.add(ExactMeasureEntry(mu))
            # each prefix's exact mass, cut where the stage cuts it
            want = (mass_bits(mu, x[:stage]) if stage >= 0 else []) + [0] * (len(x) - max(stage, -1))
        else:
            if kind == "bernoulli-lift":
                e = t.bernoulli_lift(t.add(RealEntry(BitSource.rational(q))))
            else:
                source = data.draw(st.sampled_from([BitSource.rational, BitSource.hat_rational]))(q)
                delay, diverge = data.draw(st.integers(0, 8)), data.draw(st.none() | st.integers(0, 64))
                # FbMap pins level |w| // 3, so words past it hold the level's sup
                e = t.param_lift(FbMap(), t.add(RealEntry(source, delay, diverge)))
            # the base class's walk: ceil(-log2) of each prefix's knowledge sup
            want = list(Entry.prefix_sup_bits(t.entry(e), t, x, stage))
        walk = t.prefix_sup_bits(e, x, stage)
        assert isinstance(walk, SupWalk)
        assert list(walk) == want
        order = data.draw(st.lists(st.integers(0, len(x)), max_size=40))
        assert [walk[n] for n in order] == [want[n] for n in order]
        assert all(b <= a + walk.step for a, b in zip(want, want[1:]))

    def test_zero_sups_are_infinite(self):
        # a point parameter 0 or 1 gives a word with a bit it never gives the sup 0
        one, zero = measures.BernoulliSups(Interval.exact(1)), measures.BernoulliSups(Interval.exact(0))
        assert [one.bits(0, 1), one.bits(1, 2), zero.bits(1, 1), zero.bits(2, 2)] == [math.inf] * 4
        assert [one.bits(2, 2), zero.bits(0, 2)] == [0, 0]

    def test_steps(self):
        t = ProgramTable()
        steps = {
            e: t.prefix_sup_bits(e, "", 0).step
            for e in (
                t.add(ExactMeasureEntry(uniform())),
                t.add(ExactMeasureEntry(bernoulli(F(1, 3)))),
                t.add(ExactMeasureEntry(bernoulli(F(1, 1000)))),
                t.bernoulli_lift(t.add(RealEntry(BitSource.rational(F(2, 5))))),
                t.bernoulli_lift(t.add(RealEntry(BitSource.rational(F(1, 3))))),
                t.param_lift(FbMap(), t.add(RealEntry(BitSource.rational(F(1, 1000))))),
            )
        }
        # 1, ceil(log2 3/2) and ceil(log2 3), ceil(log2 1000); a lift at stage 0 knows [0, 1]: no bound
        assert list(steps.values()) == [1, 2, 10, math.inf, math.inf, math.inf]
        lift = t.bernoulli_lift(t.add(RealEntry(BitSource.rational(F(2, 5)))))
        # at stage 8, [0.01100110, + 2^-8]: m = 102/256, ceil(-log2 m) = 2
        assert t.prefix_sup_bits(lift, "", 8).step == 2
        fb = t.param_lift(FbMap(), t.add(RealEntry(BitSource.rational(F(1, 1000)))))
        # at stage 12, FbMap's [0.000000000100, + 2^-12]: m = 2^-10
        assert t.prefix_sup_bits(fb, "", 12).step == 10

    @pytest.mark.parametrize("stage", [-3, 2, 10], ids=["nothing-known", "stage-cut", "word-known"])
    @pytest.mark.parametrize("lift", [False, True], ids=["exact", "param-lift"])
    def test_items_are_the_prefixes_of_the_word(self, stage, lift):
        t = ProgramTable()
        if lift:  # FbMap's ball at stage 10 holds its walk from level 3
            e = t.param_lift(FbMap(), t.add(RealEntry(BitSource.rational(F(1, 3)))))
        else:
            e = t.add(ExactMeasureEntry(bernoulli(F(1, 3))))
        for fresh in (True, False):
            walk = t.prefix_sup_bits(e, "0110", stage)
            if not fresh:  # read forward to the end, so a negative index is a backward read
                assert list(walk) == [walk[n] for n in range(5)]
            for n in (-1, -5, 5, 7):
                with pytest.raises(IndexError):
                    walk[n]
        if (stage, lift) == (10, False):
            assert list(walk) == [0, 2, 3, 3, 5]


class TestTotalityOracle:
    def test_default_ground_truth(self):
        t = basic_table()
        for s in (0, 7, 900):
            assert t.totality_oracle(4, s) == 1
            assert t.totality_oracle(5, s) == 0

    def test_flip_schedule(self):
        t = basic_table()
        t.flip_schedules[4] = 500
        values = {t.totality_oracle(4, s) for s in range(499)}
        assert values == {0, 1}
        for s in range(500, 520):
            assert t.totality_oracle(4, s) == 1

    def test_lift_totality_follows_real(self):
        t = basic_table()
        e_tot = t.bernoulli_lift(4)
        assert t.is_total(e_tot)
        t.add(RealEntry(BitSource.rational(F(1, 3)), diverge_from=3))
        e_par = t.bernoulli_lift(len(t) - 1)
        assert not t.is_total(e_par)

    def test_param_lift_totality_follows_real(self):
        t = ProgramTable()
        total = t.add(RealEntry(BitSource.hat_rational(F(1, 3))))
        partial_real = t.add(RealEntry(BitSource.hat_rational(F(1, 3)), diverge_from=4))
        for real, truth in ((total, 1), (partial_real, 0)):
            alias = t.add(AliasEntry(base=real))
            # param_lift would reuse the first lift for an alias, so the others are added as they are
            over_alias = [t.add(ParamLiftEntry(FbMap(), e)) for e in (alias, t.pad(alias, 2))]
            for lift in [t.param_lift(FbMap(), real), *over_alias]:
                for e in (lift, t.add(AliasEntry(base=lift)), t.pad(lift, 3)):
                    assert t.is_total(e) is bool(truth)
                    assert {t.totality_oracle(e, s) for s in (0, 1, 9)} == {truth}

    def test_lift_over_itself_reads_partial(self):
        # a lift's totality reads its real's flag, not is_total, so a self-reference cannot recurse
        t = ProgramTable()
        assert not t.is_total(t.add(ParamLiftEntry(FbMap(), real_index=0)))


class TestMeasuresEqual:
    def test_alias_yes(self):
        t = basic_table()
        assert t.measures_equal(1, t.pad(1, 3), 6, 10) == Verdict.YES
        assert t.measures_equal(1, 6, 6, 10) == Verdict.YES

    def test_distinct_bernoullis_no(self):
        t = basic_table()
        assert t.measures_equal(1, 2, 1, 100) == Verdict.NO

    def test_stubs_unknown(self):
        t = basic_table()
        t.add(StubEntry("measure"))
        assert t.measures_equal(3, len(t) - 1, 4, 5) == Verdict.UNKNOWN

    def test_no_stable_in_stage(self):
        t = basic_table()
        assert t.measures_equal(1, 2, 3, 50) == Verdict.NO
        assert t.measures_equal(1, 2, 3, 500) == Verdict.NO


@st.composite
def nested_rows(draw):
    """Stage-tagged rows on words of length 1..3, each word's intervals nested as the stage grows."""
    rows = []
    for word in draw(st.lists(st.text("01", min_size=1, max_size=3), max_size=4, unique=True)):
        mid = draw(st.fractions(0, 1, max_denominator=16))
        widths = draw(st.lists(st.fractions(0, 1, max_denominator=16), min_size=1, max_size=3))
        stages = sorted(draw(st.lists(st.integers(0, 12), min_size=len(widths), max_size=len(widths))))
        for r, s in zip(sorted(widths, reverse=True), stages):
            rows.append((word, Interval.closed(max(F(0), mid - r / 2), min(F(1), mid + r / 2)), s))
    return enumerated(rows)


@st.composite
def measure_entries(draw):
    """A table and a measure entry in it, of every kind a ball's verdict reads."""
    t = ProgramTable()
    q = draw(st.fractions(0, 1, max_denominator=12))
    delay = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("bernoulli", "interleave", "enumerated", "stub", "bernoulli-lift", "param-lift")))
    if kind == "bernoulli":
        return t, t.add(ExactMeasureEntry(bernoulli(q), delay))
    if kind == "interleave":
        return t, t.add(ExactMeasureEntry(interleave_measure(BitSource.hat_rational(q)), delay))
    if kind == "enumerated":
        return t, t.add(EnumeratedMeasureEntry(draw(nested_rows())))
    if kind == "stub":
        return t, t.add(StubEntry("measure"))
    # lifts over a partial real
    source = BitSource.hat_rational(q) if kind == "param-lift" else BitSource.rational(q)
    real = t.add(RealEntry(source, delay, draw(st.one_of(st.none(), st.integers(0, 16)))))
    return t, t.bernoulli_lift(real) if kind == "bernoulli-lift" else t.param_lift(FbMap(), real)


@st.composite
def balls(draw):
    """An FbMap star ball, an interleave cylinder ball or an explicit ball on words of length <= 3."""
    kind = draw(st.sampled_from(("fb", "interleave", "explicit")))
    if kind == "fb":
        return FbMap().star(draw(st.text("01", max_size=12)))
    if kind == "interleave":
        return InterleaveCylinderBall(draw(st.text("01", max_size=4)))
    grid = st.fractions(0, 1, max_denominator=8)
    constraints = []
    for word in draw(st.lists(st.text("01", max_size=3), max_size=4)):
        lo, hi = sorted((draw(grid), draw(grid)))
        constraints.append((word, Interval.closed(lo, hi)))
    return explicit_ball(constraints)


class ReplayView(MeasureView):
    """The answers an EntryView gave at one stage, given again at whatever stage is asked;
    a read the view was not asked raises KeyError."""

    def __init__(self, view, stage):
        self.view, self.stage = view, stage

    def knowledge(self, word, stage):
        return self.view._known[word, self.stage]

    def param_interval(self, stage):
        return self.view._facts[self.stage][0]


class TestStageMonotonicity:
    def test_width_antitone_all_entries(self):
        t = basic_table()
        t.add(RealEntry(BitSource.hat_rational(F(2, 5))))
        t.bernoulli_lift(len(t) - 1)
        rng = random.Random(9)
        for e in range(len(t)):
            if t.entry(e).kind != "measure":
                continue
            for _ in range(10):
                w = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
                prev = None
                for s in (0, 1, 2, 4, 8, 16, 64, 256, 1 << 12):
                    width = t.eval_measure(e, w, s).width
                    if prev is not None:
                        assert width <= prev
                    prev = width

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(measure_entries(), st.text("01", max_size=12), st.integers(0, 40), st.integers(1, 60))
    def test_ball_verdicts_are_never_retracted(self, table_entry, word, stage, later):
        # the inverse lift's YES/NO memo, and its records without an UNKNOWN, rest on this
        t, e = table_entry
        ball = FbMap().star(word)
        before = ball.contains(t.view(e), stage)
        if before is not Verdict.UNKNOWN:
            assert ball.contains(t.view(e), stage + later) is before


class TestVerdictsReadOnlyAnswers:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(measure_entries(), balls(), st.integers(0, 40), st.integers(0, 512))
    def test_replayed_answers_give_the_same_verdict(self, table_entry, ball, stage, other):
        # the inverse lift's records with an UNKNOWN rest on this: a verdict is a function of
        # the answers the ball reads, not of the stage it passes to the view
        t, e = table_entry
        view = t.view(e)
        verdict = ball.contains(view, stage)
        for s in (other, stage + 1, stage + 100):
            assert ball.contains(ReplayView(view, stage), s) is verdict


def draw_domain(draw, t, m, near):
    """A domain for an inverse lift of measure m in table t: full, the hat image, or one that
    forbids, each from a drawn stage, a prefix of the full-domain answer (up to 24 bits) or that
    prefix's sibling; the stages around each forbidden word's length and stage join ``near``."""
    shape = draw(st.sampled_from(("full", "hat", "late", "late")))
    if shape != "late":
        return ClosedClass.full() if shape == "full" else ClosedClass.hat_image()
    answer = t.real_prefix(t.add(InverseLiftEntry(FbMap(), ClosedClass.full(), m)), 64, 300)
    sets: dict[int, set] = {}
    for _ in range(draw(st.integers(1, 3))):
        k, at = draw(st.integers(0, min(len(answer), 24))), draw(st.integers(0, 48))
        word = answer[:k] if k == 0 or draw(st.booleans()) else answer[: k - 1] + "10"[int(answer[k - 1])]
        sets.setdefault(at, set()).add(word)
        near |= {k, at - 1, at}
    return ClosedClass.from_stage_sets(sets)


@st.composite
def inverse_lift_cases(draw):
    """A table, a measure entry in it, a domain for its inverse lift (``draw_domain``) and the
    stages to ask it at (from 1 to 300, in any order).  The measure is exact (with a delay),
    enumerated (bernoulli(q)'s masses on short words, revealed at drawn stages), a stub, or a param
    lift of a partial hat real (with a delay)."""
    t = ProgramTable()
    q = draw(st.fractions(0, 1, max_denominator=12))
    delay = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("bernoulli", "interleave", "enumerated", "stub", "param-lift")))
    if kind == "bernoulli":
        m = t.add(ExactMeasureEntry(bernoulli(q), delay))
    elif kind == "interleave":
        m = t.add(ExactMeasureEntry(interleave_measure(BitSource.hat_rational(q)), delay))
    elif kind == "enumerated":
        words = draw(st.lists(st.text("01", min_size=1, max_size=3), max_size=5, unique=True))
        rows = [(w, Interval.exact(bernoulli(q).mass(w)), draw(st.integers(0, 40))) for w in words]
        m = t.add(EnumeratedMeasureEntry(enumerated(rows)))
    elif kind == "stub":
        m = t.add(StubEntry("measure"))
    else:
        diverge = draw(st.one_of(st.none(), st.integers(0, 40)))
        m = t.param_lift(FbMap(), t.add(RealEntry(BitSource.hat_rational(q), delay, diverge)))
    near = {delay, delay + 1}
    domain = draw_domain(draw, t, m, near)
    # stages around the delay, the reveals and the forbidden words' lengths, and any others
    near_stage = st.sampled_from(sorted(s for s in near if s >= 1))
    stage = st.one_of(near_stage, near_stage, st.integers(1, 70), st.integers(1, 300))
    return t, m, domain, draw(st.lists(stage, min_size=1, max_size=6))


@st.composite
def lapsing_lift_cases(draw):
    """A table, a measure entry in it that reveals nothing below a drawn stage, the lapse, and
    something from it on (an exact uniform or interleave entry delayed to it, or an enumerated
    entry whose first row comes then) or a stub, a domain (``draw_domain``) and 2 to 6 stages from
    1 to 120 in any order, around the lapse and the forbidden words and any others."""
    t = ProgramTable()
    q = draw(st.fractions(0, 1, max_denominator=12))
    lapse = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("stub", "uniform", "interleave", "enumerated")))
    if kind == "stub":
        m = stub(t)
    elif kind == "enumerated":
        words = draw(st.lists(st.text("01", min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
        stages = [lapse] + [draw(st.integers(lapse, 60)) for _ in words[1:]]
        rows = [(w, Interval.exact(bernoulli(q).mass(w)), s) for w, s in zip(words, stages)]
        m = t.add(EnumeratedMeasureEntry(enumerated(rows)))
    else:
        measure = uniform() if kind == "uniform" else interleave_measure(BitSource.hat_rational(q))
        m = t.add(ExactMeasureEntry(measure, lapse))
    near = {lapse - 1, lapse, lapse + 1}
    domain = draw_domain(draw, t, m, near)
    near_stage = st.sampled_from(sorted(s for s in near if s >= 1))
    stage = st.one_of(near_stage, near_stage, st.integers(1, 120))
    return t, m, domain, draw(st.lists(stage, min_size=2, max_size=6))


class TestInverseLiftResumes:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(inverse_lift_cases())
    def test_any_stage_sequence_equals_fresh_searches(self, case):
        # rising, falling and repeated stages: each search, taking the last walk's answer, walking on
        # from its deepest holding level or walking from "" when the stage falls, answers as a lift
        # that keeps nothing does, and the kept levels hold at most their caps' words
        t, m, domain, stages = case
        e = t.add(InverseLiftEntry(FbMap(), domain, m))
        for s in stages:
            fresh = t.add(InverseLiftEntry(FbMap(), domain, m))
            assert t.real_prefix(e, 64, s) == t.real_prefix(fresh, 64, s)
            assert t.entry(e).stop_reason(t, s) == t.entry(fresh).stop_reason(t, s)
            kept = sum(len(frontier) for frontier, _, _ in t.entry(e)._records[:-1])  # the last is the stop's
            assert kept <= (INVERSE_DEPTH_CAP + 1) * INVERSE_FRONTIER_CAP


def reference_walk(param_map, domain, view, stage):
    """The inverse-lift search as its docstring states it, keeping nothing and building the star
    ball of every candidate the domain leaves alive: (prefix, stop_reason)."""
    t = domain.forbid_time("")
    if t is not None and t <= stage:
        return "", "dead-domain"
    frontier = [""]
    for _ in range(min(stage, INVERSE_DEPTH_CAP)):
        nxt = []
        for cand in (w + ch for w in frontier for ch in "01"):
            t = domain.forbid_time(cand)
            if (t is None or t > stage) and param_map.star(cand).contains(view, stage) is not Verdict.NO:
                nxt.append(cand)
                if len(nxt) > INVERSE_FRONTIER_CAP:
                    return os.path.commonprefix(frontier), "frontier-cap"
        if not nxt:
            return os.path.commonprefix(frontier), "no-survivors"
        frontier = nxt
    prefix = os.path.commonprefix(frontier)
    return prefix, "depth" if len(prefix) == min(stage, INVERSE_DEPTH_CAP) else "ambiguous"


def unit_interval_in(draw):
    """A closed, half-open or open interval inside [0, 1] on a grid of eighths, [0, 1] itself once in four."""
    if draw(st.integers(0, 3)) == 0:
        return Interval.unit()
    grid = st.fractions(0, 1, max_denominator=8)
    lo, hi = sorted((draw(grid), draw(grid)))
    if lo == hi:
        return Interval.exact(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def blank_views(draw):
    """A view of a measure entry and a stage at which it reveals nothing: a stub at any stage, an
    exact uniform, interleave or dirac entry below its delay, or an enumerated one before its
    first row's stage (rows on words of up to 3 bits, maybe none)."""
    t = ProgramTable()
    kind = draw(st.sampled_from(("stub", "uniform", "interleave", "dirac", "enumerated")))
    if kind == "stub":
        return t.view(t.add(StubEntry("measure"))), draw(st.integers(0, 600))
    if kind == "enumerated":
        first = draw(st.integers(1, 40))
        words = draw(st.lists(st.text("01", max_size=3), max_size=4))
        rows = [(w, unit_interval_in(draw), draw(st.integers(first, 60))) for w in words]
        return t.view(t.add(EnumeratedMeasureEntry(enumerated(rows)))), draw(st.integers(0, first - 1))
    source = BitSource.hat_rational(draw(st.fractions(0, 1, max_denominator=12)))
    measure = {"uniform": uniform, "interleave": partial(interleave_measure, source), "dirac": partial(dirac, source)}
    delay = draw(st.integers(1, 20))
    return t.view(t.add(ExactMeasureEntry(measure[kind](), delay))), draw(st.integers(0, delay - 1))


@st.composite
def any_balls(draw):
    """A Bernoulli cylinder ball of level 0 to 8 (its parameter [0, 1] among others), an interleave
    cylinder ball, or an explicit ball on words of up to 3 bits whose constraints may contradict."""
    kind = draw(st.sampled_from(("bernoulli", "interleave", "explicit")))
    if kind == "bernoulli":
        return BernoulliCylinderBall(unit_interval_in(draw), draw(st.integers(0, 8)))
    if kind == "interleave":
        return InterleaveCylinderBall(draw(st.text("01", max_size=6)))
    words = draw(st.lists(st.text("01", max_size=3), max_size=5))
    return explicit_ball((w, unit_interval_in(draw)) for w in words)


class TestBlankSearches:
    """Inverse lifts over a view that reveals nothing judge candidates by the domain alone."""

    def test_which_entries_reveal_nothing(self):
        t = ProgramTable()
        late = enumerated([("0", Interval.closed(F(1, 4), F(1, 2)), 9)])
        real = t.add(RealEntry(BitSource.rational(F(1, 3))))
        cases = [  # (entry, stage, reveals nothing)
            (t.add(StubEntry("measure")), 0, True),
            (t.add(StubEntry("measure")), 10**6, True),
            (t.add(StubEntry("real")), 0, False),
            (real, 0, False),
            (t.add(ExactMeasureEntry(uniform(), 5)), 4, True),
            (t.add(ExactMeasureEntry(uniform(), 5)), 5, False),  # "" is known: [1, 1]
            (t.add(ExactMeasureEntry(bernoulli(F(1, 3)), 5)), 0, False),  # its parameter is known
            (t.add(EnumeratedMeasureEntry(late)), 8, True),
            (t.add(EnumeratedMeasureEntry(late)), 9, False),
            (t.add(EnumeratedMeasureEntry(enumerated([]))), 500, True),
            (t.param_lift(FbMap(), real), 0, False),
        ]
        for e, stage, blank in cases:
            view = t.view(e)
            assert view.reveals_nothing(stage) is blank
            if t.entry(e).kind == "measure" and not blank:  # something is revealed
                revealed = [view.knowledge(w, stage) != Interval.unit() for w in ("", "0", "1")]
                assert view.param_interval(stage) is not None or any(revealed)
        # a real stub is no measure: its inverse lift still raises, as it did before
        stalled = t.inverse_lift(FbMap(), ClosedClass.full(), t.add(StubEntry("real")))
        with pytest.raises(WrongKindError):
            t.real_prefix(stalled, 8, 8)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(blank_views(), any_balls(), st.text("01", max_size=16))
    def test_no_ball_answers_no_over_a_blank_view(self, case, ball, word):
        # the blank search rests on this: NO needs revealed knowledge that excludes the ball
        view, stage = case
        assert view.reveals_nothing(stage) and view.param_interval(stage) is None
        words = [word, *("".join(w) for n in range(4) for w in product("01", repeat=n))]
        assert all(view.knowledge(w, stage) == Interval.unit() for w in words)
        assert ball.contains(view, stage) is not Verdict.NO

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lapsing_lift_cases())
    def test_searches_equal_a_walk_that_builds_every_ball(self, case):
        # blank and informative stages in any order, over full, hat-image and late-forbidding
        # domains: each search answers as the reference walk, which builds every candidate's ball
        t, m, domain, stages = case
        e = t.add(InverseLiftEntry(FbMap(), domain, m))
        for s in stages:
            got = (t.real_prefix(e, INVERSE_DEPTH_CAP, s), t.entry(e).stop_reason(t, s))
            assert got == reference_walk(FbMap(), domain, t.view(m), s)

    def test_the_hat_image_level_rule_gives_the_generic_search(self):
        # a stub's stall over the hat image, which reads its levels by its block rule, and over the
        # same forbid_time read per candidate: each lift sits in a table of its own, since a table
        # keeps one lift per spec and both domains are named "hat-image"
        hat = ClosedClass.hat_image()
        lifts = []
        for domain in (hat, ClosedClass("hat-image", hat.forbid_time)):
            t = ProgramTable()
            lifts.append((t, t.inverse_lift(FbMap(), domain, stub(t))))
        for s in (20, 64, 511):
            a, b = [(t.real_prefix(e, 64, s), t.entry(e).stop_reason(t, s), t.entry(e)._records) for t, e in lifts]
            assert a == b and a[1] == "frontier-cap"

    def test_a_lapsed_blank_search_walks_with_balls(self):
        # the interleave measure is hidden below stage 10: the stage-8 and stage-9 searches build no
        # ball (the second walks on from the first's last level, its UNKNOWNs replaying, and reads
        # only level 9's words), and at stage 40 the blankness has lapsed, so replays fails and a
        # walk from level 0 builds balls
        f = CountingMap()
        counting, reads = counting_domain(ClosedClass.full())
        t = ProgramTable()
        m = t.add(ExactMeasureEntry(interleave_measure(BitSource.hat_rational(F(1, 3))), delay=10))
        e = t.inverse_lift(f, counting, m)
        got = []
        for s in (8, 9, 40):
            built = f.built
            fresh = t.add(InverseLiftEntry(FbMap(), ClosedClass.full(), m))
            answer = (t.real_prefix(e, INVERSE_DEPTH_CAP, s), t.entry(e).stop_reason(t, s))
            assert answer == (t.real_prefix(fresh, INVERSE_DEPTH_CAP, s), t.entry(fresh).stop_reason(t, s))
            got.append((answer, f.built - built, len(reads)))
            reads.clear()
        assert got == [(("", "ambiguous"), 0, 511), (("", "ambiguous"), 0, 512), (("11111", "no-survivors"), 20, 20)]

    def test_a_delayed_bernoulli_entry_still_builds_balls(self):
        # ExactMeasureEntry.param_interval ignores the delay: below it every word is [0, 1] yet the
        # parameter is known, and a Bernoulli ball decides from it, so the entry is not blank
        f = CountingMap()
        t = ProgramTable()
        m = t.add(ExactMeasureEntry(bernoulli(F(1, 3)), delay=10))
        view = t.view(m)
        assert view.knowledge("0", 3) == Interval.unit() and view.param_interval(3) == Interval.exact(F(1, 3))
        assert not view.reveals_nothing(3)
        e = t.inverse_lift(f, ClosedClass.full(), m)
        assert t.real_prefix(e, 8, 3) == t.real_prefix(t.add(InverseLiftEntry(FbMap(), ClosedClass.full(), m)), 8, 3)
        assert f.built > 0


def every_kind_table():
    """Every source, measure and entry kind, with the three lifts."""
    t = ProgramTable()
    hat = BitSource.hat_rational(F(1, 3))
    sources = [
        BitSource.literal("0110"),
        BitSource.constant(1),
        BitSource.periodic("01", head="1"),
        BitSource.rational(F(2, 7)),
        hat,
        sampled_source(bernoulli(F(1, 3)), 5),
        sampled_source(interleave_measure(BitSource.periodic("10")), 2),
    ]
    for src in sources:
        t.add(RealEntry(src, delay=1))  # 0-6
    for mu in (uniform(), bernoulli(F(2, 5)), interleave_measure(hat), dirac(sources[1])):
        t.add(ExactMeasureEntry(mu, delay=2))  # 7-10
    closed = [("0", Interval.closed(F(1, 4), F(1, 2)), 3), ("1", Interval.exact(F(1, 2)), 0)]
    t.add(EnumeratedMeasureEntry(enumerated(closed)))  # 11
    t.add(StubEntry("measure"))  # 12
    t.add(StubEntry("real"))  # 13
    t.add(RealEntry(BitSource.rational(F(1, 3)), diverge_from=7))  # 14
    t.add(AliasEntry(base=7))  # 15
    t.bernoulli_lift(3)  # 16
    lifted = t.param_lift(FbMap(), 4)  # 17
    t.inverse_lift(FbMap(), ClosedClass.hat_image(), lifted)  # 18
    t.flip_schedules[14] = 40
    return t


class TestManifest:
    def test_pinned_hash(self):
        # recorded at the commit before the spec registry: every spec keeps its bytes
        want = "ce5f0067ec09e7434fe4fa1d13720d8d61c3c432ab448e9489b6c332b8942d8b"
        assert every_kind_table().manifest_hash() == want

    def test_lift_calls_return_existing_indices(self):
        t = every_kind_table()
        size = len(t)
        assert t.bernoulli_lift(3) == t.bernoulli_lift(t.pad(3, 5)) == 16
        assert t.param_lift(FbMap(), 4) == t.param_lift(FbMap(), t.pad(4, 1)) == 17
        assert t.inverse_lift(FbMap(), ClosedClass.hat_image(), t.pad(17, 2)) == 18
        assert len(t) == size

    def test_entries_and_tables_print_by_spec(self):
        # every registered entry kind, a param lift and an inverse lift
        t = every_kind_table()
        for ent in t.entries:
            assert repr(ent).startswith(type(ent).__name__) and repr(ent.spec()) in repr(ent)
        assert repr(t).startswith("ProgramTable") and repr(t.manifest()) in repr(t)

    def test_map_lifts_do_not_reload(self):
        # param and inverse lifts name their map and domain only by name
        with pytest.raises(ValueError, match="param-lift"):
            table_from_manifest(every_kind_table().manifest())
    def test_round_trip(self):
        t = basic_table()
        t.flip_schedules[4] = 100
        m = t.manifest()
        t2 = table_from_manifest(m)
        assert t2.manifest() == m
        assert t2.manifest_hash() == t.manifest_hash()
        assert t2.eval_measure(1, "01", 50) == t.eval_measure(1, "01", 50)
        assert t2.totality_oracle(4, 5) == t.totality_oracle(4, 5)
