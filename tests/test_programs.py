import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlearn.cantor import BitSource, ClosedClass
from cantorlearn.measures import (
    BernoulliCylinderBall,
    Interval,
    Verdict,
    bernoulli,
    dirac,
    enumerated,
    interleave_measure,
    sampled_source,
    uniform,
)
from cantorlearn.programs import (
    PAD_BASE,
    AliasEntry,
    EnumeratedMeasureEntry,
    ExactMeasureEntry,
    ProgramTable,
    RealEntry,
    StubEntry,
    WrongKindError,
    _StageSlot,
    table_from_manifest,
)


class FbMap:
    """Parameter interval [0.w, 0.w + 2^-|w|] pinned to level |w|//3."""

    name = "fb-hat"
    domain = ClosedClass.hat_image()

    def star(self, word):
        lo = F(int(word, 2) if word else 0, 1 << len(word)) if word else F(0)
        return BernoulliCylinderBall(
            Interval(lo, min(F(1), lo + F(1, 1 << len(word)))), level=len(word) // 3
        )


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
                want = [t.eval_measure(e, x[:n], stage).hi for n in range(len(x) + 1)]
                assert list(t.prefix_sups(e, x, stage)) == want

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


class TestPadding:
    def test_strictly_increasing(self):
        t = basic_table()
        assert t.pad(1, 0) < t.pad(1, 1) < t.pad(1, 2)

    def test_distinct_from_bases(self):
        t = basic_table()
        for j in range(5):
            assert t.pad(0, j) >= PAD_BASE > len(t)

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
        # hat real of 1/3 starts 011001100110; answers recorded with whole-word liveness checks
        pinned = {"": ["", "", "", ""], "011001": ["01", "01100", "01100", "01100"]}
        for word, want in pinned.items():
            t = ProgramTable()
            d = ClosedClass.from_stage_sets({0: {word}})
            e = t.inverse_lift(FbMap(), d, t.add(ExactMeasureEntry(bernoulli(F(2, 5)))))
            assert [t.real_prefix(e, 12, s) for s in (2, 8, 16, 64)] == want

    def test_inverse_lift_stalls_on_ambiguity(self):
        t = basic_table()
        t.add(EnumeratedMeasureEntry(enumerated([("0", Interval.closed(F(0), F(1)), 0)])))
        e = t.inverse_lift(FbMap(), ClosedClass.hat_image(), len(t) - 1)
        assert t.eval_real(e, 0, 200) is None  # both 01... and 10... survive

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
            memos = [m for m in vars(t.entry(e)).values() if isinstance(m, _StageSlot)]
            assert [m.stage for m in memos] == [300]
        for s in (300, 1, 57, 192):
            assert self.lift_answers(t, lifts, s) == self.lift_answers(*self.lift_table(), s)

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
        want = [t.eval_measure(lift, x[:n], stage).hi for n in range(len(x) + 1)]
        assert list(t.prefix_sups(lift, x, stage)) == want


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

    def test_defined_length_growth(self):
        t = basic_table()
        assert t.defined_length(0, 0) == 0
        assert t.defined_length(0, 5) == 5
        assert t.defined_length(3, 100) == 0  # stub never defines


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
