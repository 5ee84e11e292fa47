"""The spec registry: every registered kind rebuilds from its spec, and manifests reload."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlearn.cantor import BadWordError, BitSource, ClosedClass
from cantorlearn.measures import (
    PRNG_NAME,
    Interval,
    MalformedMeasureError,
    Measure,
    Verdict,
    ball,
    bernoulli,
    ceil_neg_log2,
    dirac,
    enumerated,
    interleave_measure,
    sample_stream,
    sampled_source,
    uniform,
)
from cantorlearn.programs import (
    SPEC_KINDS,
    AliasEntry,
    BernoulliLiftEntry,
    EnumeratedMeasureEntry,
    Entry,
    ExactMeasureEntry,
    InverseLiftEntry,
    ParamLiftEntry,
    ProgramTable,
    RealEntry,
    StubEntry,
    WrongKindError,
    from_spec,
    table_from_manifest,
)
from cantorlearn.randomness import ComplexityEstimator
from test_programs import FbMap

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

WORDS = ("", "0", "1", "01", "10", "110")
STAGES = (0, 1, 3, 8)


def base_table():
    """What generated entries may point at: two reals (one partial), a measure, a stub."""
    t = ProgramTable()
    t.add(RealEntry(BitSource.rational(F(1, 3))))  # 0
    t.add(RealEntry(BitSource.rational(F(2, 5)), diverge_from=3))  # 1
    t.add(ExactMeasureEntry(bernoulli(F(1, 3))))  # 2
    t.add(StubEntry("measure"))  # 3
    return t


# -- strategies, one per registered kind ---------------------------------------

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=24)
bit_words = st.text("01", max_size=6)

FLAT_SOURCES = {
    "literal": bit_words.map(BitSource.literal),
    "constant": st.sampled_from((0, 1)).map(BitSource.constant),
    "periodic": st.builds(BitSource.periodic, st.text("01", min_size=1, max_size=4), bit_words),
    "rational": unit_fractions.map(BitSource.rational),
    "hat-rational": unit_fractions.map(BitSource.hat_rational),
}
flat_sources = st.one_of(*FLAT_SOURCES.values())


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(unit_fractions), draw(unit_fractions)))
    if lo == hi:
        return Interval.exact(lo)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


EXACT_MEASURES = {
    "uniform": st.builds(uniform),
    "bernoulli": unit_fractions.map(bernoulli),
    "interleave": flat_sources.map(interleave_measure),
    "dirac": flat_sources.map(dirac),
}
exact_measures = st.one_of(*EXACT_MEASURES.values())
enumerated_measures = st.lists(
    st.tuples(st.text("01", max_size=3), intervals(), st.integers(0, 5)), max_size=5
).map(enumerated)

REAL_INDICES = st.sampled_from((0, 1, ProgramTable().pad(0, 4)))

STRATEGIES = {
    **FLAT_SOURCES,
    "sampled": st.builds(sampled_source, exact_measures, st.integers(0, 2**31)),
    **EXACT_MEASURES,
    "enumerated": enumerated_measures,
    "exact-measure": st.builds(ExactMeasureEntry, exact_measures, st.integers(0, 3)),
    "enumerated-measure": st.builds(
        EnumeratedMeasureEntry, enumerated_measures, st.sampled_from((None, True, False))
    ),
    "stub": st.sampled_from(("measure", "real")).map(StubEntry),
    "real": st.builds(
        RealEntry, flat_sources, st.integers(0, 3), st.one_of(st.none(), st.integers(0, 8))
    ),
    "alias": st.integers(0, 3).map(AliasEntry),
    "bernoulli-lift": REAL_INDICES.map(BernoulliLiftEntry),
}
ENTRY_KINDS = [k for k, make in SPEC_KINDS.items() if isinstance(make, type) and issubclass(make, Entry)]
entries = st.one_of(*(STRATEGIES[k] for k in ENTRY_KINDS))


def spec_of(x):
    return x.spec() if isinstance(x, Entry) else x.spec


def outcome(f, *args):
    """f(*args), or the type of the error it raises: the same error is the same answer."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def answers(x) -> list:
    """What x answers on short words, positions and stages."""
    if isinstance(x, BitSource):
        return [x.kind] + [outcome(x.bit, i) for i in range(12)]
    if isinstance(x, Measure):
        return [outcome(x.knowledge, w, s) for w in WORDS for s in STAGES] + [
            outcome(x.param_interval, s) for s in STAGES
        ]
    t = base_table()
    e = t.add(x)
    out = [outcome(t.is_total, e)]
    out += [outcome(t.view(e).param_interval, s) for s in STAGES]
    if t.entry(e).kind == "measure":
        return out + [outcome(t.eval_measure, e, w, s) for w in WORDS for s in STAGES]
    return out + [outcome(t.eval_real, e, j, s) for j in range(6) for s in STAGES]


class TestRoundTrip:
    def test_every_kind_has_a_strategy(self):
        assert set(STRATEGIES) == set(SPEC_KINDS)

    @pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
    @PROPERTY
    @given(data=st.data())
    def test_from_spec_rebuilds(self, kind, data):
        x = data.draw(STRATEGIES[kind])
        spec = spec_of(x)
        assert (spec.get("entry") or spec["kind"]) == kind
        rebuilt = from_spec(json.loads(json.dumps(spec)))  # as a manifest stores it
        assert type(rebuilt) is type(x)
        assert spec_of(rebuilt) == spec
        assert answers(rebuilt) == answers(x)

    @PROPERTY
    @given(st.lists(entries, max_size=5), st.integers(0, 50))
    def test_manifest_reloads(self, extra, horizon):
        t = base_table()
        for ent in extra:
            t.add(ent)
        lifts = [t.bernoulli_lift(r) for r in (0, 1, t.pad(0, 4))]
        t.flip_schedules[1] = horizon
        reloaded = table_from_manifest(json.loads(json.dumps(t.manifest())))
        assert reloaded.manifest_hash() == t.manifest_hash()
        size = len(reloaded)
        assert [reloaded.bernoulli_lift(r) for r in (0, 1, t.pad(0, 4))] == lifts
        assert len(reloaded) == size


class TestRegressions:
    """Each round-trip break fixed by the registry."""

    def test_enumerated_keeps_open_ends(self):
        mu = enumerated([("0", Interval.open(F(1, 4), F(1, 2)), 0)])
        b = ball([("0", Interval(F(1, 4), F(1, 2), lo_open=True))])
        assert b.contains(mu, 0) == Verdict.YES
        assert b.contains(from_spec(mu.spec), 0) == Verdict.YES

    def test_enumerated_entry_keeps_total(self):
        def table(total):
            t = ProgramTable()
            t.add(EnumeratedMeasureEntry(enumerated([("0", Interval.exact(F(1, 2)), 0)]), total))
            return t

        assert table_from_manifest(table(True).manifest()).is_total(0)
        hashes = {table(total).manifest_hash() for total in (None, True, False)}
        assert len(hashes) == 3

    def test_bernoulli_lift_reloads_without_duplicates(self):
        t = ProgramTable()
        r = t.add(RealEntry(BitSource.rational(F(1, 3))))
        e = t.bernoulli_lift(r)
        reloaded = table_from_manifest(t.manifest())
        assert reloaded.manifest_hash() == t.manifest_hash()
        assert reloaded.bernoulli_lift(r) == e == 1
        assert len(reloaded) == 2

    def test_sampled_checks_its_prng(self):
        spec = sampled_source(bernoulli(F(1, 3)), 1).spec
        assert spec["prng"] == PRNG_NAME
        with pytest.raises(ValueError, match="other-prng"):
            from_spec({**spec, "prng": "other-prng"})


class TestBadSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="gaussian"):
            from_spec({"kind": "gaussian"})
        with pytest.raises(ValueError):
            from_spec({"q": "1/2"})
        with pytest.raises(ValueError, match="meausre"):
            from_spec({"entry": "stub", "kind": "meausre"})

    @pytest.mark.parametrize(
        "spec",
        [
            {"entry": "param-lift", "map": "fb-hat", "real": 0},
            {"entry": "inverse-lift", "map": "fb-hat", "domain": "hat-image", "measure": 1},
        ],
    )
    def test_map_lifts_name_their_kind(self, spec):
        with pytest.raises(ValueError, match=spec["entry"]):
            from_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "bernoulli", "q": "1/3", "p": "1/2"},
            {"kind": "interleave", "z": {"kind": "constant", "bit": 0, "head": "1"}},
            {"entry": "alias", "base": 0, "total": True},
            {"entry": "exact-measure", "measure": {"kind": "uniform"}, "delay": 0, "total": True},
        ],
    )
    def test_extra_key_raises(self, spec):
        with pytest.raises(TypeError):
            from_spec(spec)


def one_entry_table():
    t = ProgramTable()
    t.add(StubEntry("real"))
    return t


ENUMERATED = enumerated([("0", Interval.exact(F(1, 2)), 1)])
TWOS = BitSource({"kind": "twos"}, lambda n: "2" * n)  # its every read holds a non-bit character


def sampled_spec(seed):
    return {"kind": "sampled", "measure": {"kind": "uniform"}, "seed": seed, "prng": PRNG_NAME}


class TestBadInputs:
    """Each input check raises its own error type, not a subclass or a parent of it."""

    @pytest.mark.parametrize(
        "call,error",
        [
            pytest.param(lambda: BitSource.rational(F(1, 3)).bit(-1), IndexError, id="negative-position"),
            pytest.param(lambda: TWOS.bit(0), BadWordError, id="non-bit"),
            pytest.param(lambda: TWOS.prefix(1), BadWordError, id="non-bit-prefix"),
            pytest.param(lambda: BitSource.constant(2), BadWordError, id="constant-2"),
            pytest.param(lambda: BitSource.constant(True), BadWordError, id="constant-true"),
            pytest.param(lambda: BitSource.constant(1.0), BadWordError, id="constant-float"),
            pytest.param(lambda: from_spec({"kind": "constant", "bit": True}), BadWordError, id="constant-true-spec"),
            pytest.param(lambda: ExactMeasureEntry(bernoulli(F(1, 3)), delay=True), ValueError, id="exact-delay-true"),
            pytest.param(lambda: ExactMeasureEntry(bernoulli(F(1, 3)), delay=1.5), ValueError, id="exact-delay-float"),
            pytest.param(lambda: RealEntry(BitSource.rational(F(1, 3)), delay=0.5), ValueError, id="real-delay-float"),
            pytest.param(
                lambda: RealEntry(BitSource.rational(F(1, 3)), diverge_from=2.5), ValueError, id="real-diverge-float"
            ),
            pytest.param(
                lambda: from_spec({"entry": "exact-measure", "measure": {"kind": "uniform"}, "delay": True}),
                ValueError,
                id="exact-delay-true-spec",
            ),
            pytest.param(lambda: from_spec({"entry": "alias", "base": True}), ValueError, id="alias-base-true-spec"),
            pytest.param(lambda: AliasEntry(1.5), ValueError, id="alias-base-float"),
            pytest.param(lambda: base_table().bernoulli_lift(True), ValueError, id="bernoulli-lift-true"),
            pytest.param(lambda: ParamLiftEntry(FbMap(), 1.5), ValueError, id="param-lift-float"),
            pytest.param(
                lambda: InverseLiftEntry(FbMap(), ClosedClass.hat_image(), True), ValueError, id="inverse-lift-bool"
            ),
            pytest.param(lambda: BitSource.periodic(""), BadWordError, id="empty-cycle"),
            pytest.param(lambda: BitSource.rational(F(3, 2)), ValueError, id="rational-3/2"),
            pytest.param(lambda: ceil_neg_log2(F(0)), ValueError, id="ceil-neg-log2-0"),
            pytest.param(lambda: Measure({"kind": "none"}), ValueError, id="no-rule-no-tuples"),
            pytest.param(lambda: ENUMERATED.mass("0"), MalformedMeasureError, id="enum-mass"),
            pytest.param(lambda: next(ENUMERATED.mass_bits("0")), MalformedMeasureError, id="enum-walk"),
            pytest.param(lambda: bernoulli(F(3, 2)), ValueError, id="bernoulli-3/2"),
            pytest.param(lambda: sample_stream(ENUMERATED, 0, 4), MalformedMeasureError, id="enum-sample"),
            pytest.param(lambda: one_entry_table().eval_measure(0, "0", 4), WrongKindError, id="real-stub"),
            pytest.param(lambda: one_entry_table().pad(-1, 0), IndexError, id="negative-pad"),
            pytest.param(lambda: one_entry_table().entry(5), IndexError, id="missing-entry"),
            pytest.param(lambda: ComplexityEstimator().upper("0", 0), ValueError, id="stage-0-estimate"),
            pytest.param(lambda: from_spec(sampled_spec(True)), ValueError, id="sampled-seed-true-spec"),
            pytest.param(lambda: from_spec(sampled_spec(-1)), ValueError, id="sampled-seed-negative-spec"),
            pytest.param(lambda: from_spec(sampled_spec(1.5)), ValueError, id="sampled-seed-float-spec"),
            pytest.param(lambda: from_spec(sampled_spec("x")), ValueError, id="sampled-seed-str-spec"),
            pytest.param(lambda: enumerated([("0", Interval.unit(), 2.7)]), ValueError, id="enum-stage-float"),
            pytest.param(lambda: enumerated([("0", Interval.unit(), True)]), ValueError, id="enum-stage-true"),
            pytest.param(lambda: enumerated([("0", Interval.unit(), "3")]), ValueError, id="enum-stage-str"),
            pytest.param(lambda: enumerated([("0", Interval.unit(), -1)]), ValueError, id="enum-stage-negative"),
            pytest.param(lambda: EnumeratedMeasureEntry(ENUMERATED, total=1), ValueError, id="enum-total-1"),
            pytest.param(lambda: EnumeratedMeasureEntry(ENUMERATED, total="no"), ValueError, id="enum-total-str"),
            pytest.param(lambda: sample_stream(uniform(), 0, True), ValueError, id="sample-length-true"),
            pytest.param(lambda: sample_stream(uniform(), -1, 4), ValueError, id="sample-seed-negative"),
            pytest.param(lambda: ProgramTable([], {0: 1.5}).manifest(), ValueError, id="flip-float-horizon"),
            pytest.param(lambda: ProgramTable([], {True: 3}).manifest(), ValueError, id="flip-bool-index"),
            pytest.param(lambda: ProgramTable([], {"0": 3}).manifest(), ValueError, id="flip-str-index"),
            pytest.param(
                lambda: table_from_manifest({"entries": [], "flip_schedules": {"0": 1.5}}).manifest(),
                ValueError,
                id="flip-float-horizon-reload",
            ),
        ],
    )
    def test_raises(self, call, error):
        with pytest.raises(error) as caught:
            call()
        assert caught.type is error
