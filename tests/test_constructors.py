"""The constructors of sources, closed classes, explicit and interleave balls, entries and tables:
their parameters, defaults and checks, the state they keep apart, the value equality the value
classes keep, and their specs' round trip.  Entry equality and frozenness are not pinned."""

import inspect
import re
from fractions import Fraction as F

import pytest

from cantorlearn.cantor import BadWordError, BitSource, ClosedClass
from cantorlearn.measures import ExplicitBall, InterleaveCylinderBall, Interval, ball, bernoulli, enumerated
from cantorlearn.programs import (
    AliasEntry,
    EnumeratedMeasureEntry,
    ExactMeasureEntry,
    InverseLiftEntry,
    ParamLiftEntry,
    ProgramTable,
    RealEntry,
    StubEntry,
    from_spec,
    table_from_manifest,
)

THIRD = bernoulli(F(1, 3))
SOURCE = BitSource.rational(F(1, 3))
FULL = ClosedClass.full()
HALF = Interval.exact(F(1, 2))
ROWS = enumerated([("0", HALF, 1)])


class Map:
    name = "map"

    def star(self, word):
        raise NotImplementedError


MAP = Map()

# class -> (its parameters in order, those without a default)
SIGNATURES = {
    BitSource: (["spec", "_prefix"], ["spec", "_prefix"]),
    ClosedClass: (["name", "forbid_time"], ["name", "forbid_time"]),
    ExplicitBall: (["constraint_list"], ["constraint_list"]),
    InterleaveCylinderBall: (["pattern"], ["pattern"]),
    ExactMeasureEntry: (["measure", "delay"], ["measure"]),
    EnumeratedMeasureEntry: (["measure", "total"], ["measure"]),
    StubEntry: (["kind"], []),
    RealEntry: (["source", "delay", "diverge_from"], ["source"]),
    ParamLiftEntry: (["param_map", "real_index"], ["param_map", "real_index"]),
    InverseLiftEntry: (["param_map", "domain", "measure_index"], ["param_map", "domain", "measure_index"]),
    AliasEntry: (["base"], ["base"]),
    ProgramTable: (["entries", "flip_schedules"], []),
}


class TestSignatures:
    @pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
    def test_parameter_names_order_and_required(self, cls):
        params = inspect.signature(cls).parameters.values()
        names, required = SIGNATURES[cls]
        assert [p.name for p in params] == names
        assert [p.name for p in params if p.default is inspect.Parameter.empty] == required
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)

    @pytest.mark.parametrize(
        "cls,args,want",
        [
            pytest.param(BitSource, ({"kind": "x"}, str), ({"kind": "x"}, str), id="BitSource"),
            pytest.param(ClosedClass, ("full", str), ("full", str), id="ClosedClass"),
            pytest.param(ExplicitBall, ((("0", HALF),),), ((("0", HALF),),), id="ExplicitBall"),
            pytest.param(InterleaveCylinderBall, ("01",), ("01",), id="InterleaveCylinderBall"),
            pytest.param(ExactMeasureEntry, (THIRD,), (THIRD, 0, True), id="ExactMeasureEntry-default"),
            pytest.param(ExactMeasureEntry, (THIRD, 2), (THIRD, 2, True), id="ExactMeasureEntry"),
            pytest.param(EnumeratedMeasureEntry, (ROWS,), (ROWS, None), id="EnumeratedMeasureEntry-default"),
            pytest.param(EnumeratedMeasureEntry, (ROWS, False), (ROWS, False), id="EnumeratedMeasureEntry"),
            pytest.param(StubEntry, (), ("measure", False), id="StubEntry-default"),
            pytest.param(StubEntry, ("real",), ("real", False), id="StubEntry"),
            pytest.param(RealEntry, (SOURCE,), (SOURCE, 0, None, True), id="RealEntry-defaults"),
            pytest.param(RealEntry, (SOURCE, 1, 5), (SOURCE, 1, 5, False), id="RealEntry"),
            pytest.param(ParamLiftEntry, (MAP, 3), (MAP, 3), id="ParamLiftEntry"),
            pytest.param(InverseLiftEntry, (MAP, FULL, 2), (MAP, FULL, 2), id="InverseLiftEntry"),
            pytest.param(AliasEntry, (4,), (4,), id="AliasEntry"),
            pytest.param(ProgramTable, (), ([], {}), id="ProgramTable-defaults"),
            pytest.param(ProgramTable, ([AliasEntry(0)], {0: 3}), (["AliasEntry"], {0: 3}), id="ProgramTable"),
        ],
    )
    def test_positional_keyword_and_defaults(self, cls, args, want):
        names = SIGNATURES[cls][0]
        by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
        shown = names + ["total"] if cls in (ExactMeasureEntry, StubEntry, RealEntry) else names
        for x in (by_position, by_keyword):
            got = [getattr(x, name) for name in shown]
            if cls is ProgramTable and got[0]:
                got[0] = [type(ent).__name__ for ent in got[0]]
            assert got == list(want)

    def test_a_table_keeps_the_list_and_dict_it_is_given(self):
        entries, schedules = [StubEntry()], {0: 2}
        t = ProgramTable(entries, schedules)
        assert t.entries is entries and t.flip_schedules is schedules

    def test_tables_share_no_list_or_dict(self):
        a, b = ProgramTable(), ProgramTable()
        assert a.entries is not b.entries and a.flip_schedules is not b.flip_schedules
        a.add(StubEntry())
        a.flip_schedules[0] = 4
        assert (len(b), b.flip_schedules) == (0, {})
        assert ProgramTable().manifest() == {"entries": [], "flip_schedules": {}}


class TestChecks:
    @pytest.mark.parametrize(
        "call,error,message",
        [
            pytest.param(
                lambda: ExactMeasureEntry(THIRD, -1), ValueError, "delay must be >= 0, got -1", id="exact-delay"
            ),
            pytest.param(
                lambda: ExactMeasureEntry(measure=THIRD, delay=-2),
                ValueError,
                "delay must be >= 0, got -2",
                id="exact-delay-keyword",
            ),
            pytest.param(lambda: RealEntry(SOURCE, -1), ValueError, "delay must be >= 0, got -1", id="real-delay"),
            pytest.param(
                lambda: RealEntry(SOURCE, delay=-3, diverge_from=4),
                ValueError,
                "delay must be >= 0, got -3",
                id="real-delay-keyword",
            ),
            pytest.param(
                lambda: StubEntry("meausre"),
                ValueError,
                "stub kind must be 'measure' or 'real', got 'meausre'",
                id="stub-kind",
            ),
            pytest.param(
                lambda: StubEntry(kind=None),
                ValueError,
                "stub kind must be 'measure' or 'real', got None",
                id="stub-kind-keyword",
            ),
            pytest.param(
                lambda: InterleaveCylinderBall("012"), BadWordError, "not a 0/1 word: '012'", id="pattern"
            ),
            pytest.param(
                lambda: InterleaveCylinderBall(pattern=5), BadWordError, "not a 0/1 word: 5", id="pattern-keyword"
            ),
        ],
    )
    def test_raises_its_error_and_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            call()
        assert caught.type is error


class TestValueEquality:
    def test_bit_sources_compare_by_spec_and_do_not_hash(self):
        same = BitSource({"kind": "rational", "value": "1/3"}, lambda n: "")
        assert SOURCE == same and not SOURCE != same
        assert SOURCE != BitSource.rational(F(2, 5)) and SOURCE != BitSource.hat_rational(F(1, 3))
        assert SOURCE != SOURCE.spec and SOURCE != "rational"
        with pytest.raises(TypeError):
            hash(SOURCE)

    def test_closed_classes_compare_and_hash_by_name(self):
        full = ClosedClass("full", lambda w: 0)
        assert full == ClosedClass.full() and hash(full) == hash(ClosedClass.full())
        assert ClosedClass.hat_image() != ClosedClass.full() and ClosedClass.full() != "full"
        stages = {0: {"00"}, 2: {"1"}}
        assert ClosedClass.from_stage_sets(stages) == ClosedClass.from_stage_sets(dict(stages))
        assert len({ClosedClass.full(), full, ClosedClass.hat_image()}) == 2
        # the hat image reads its levels by its own rule, yet it is the class its name says
        hat = ClosedClass("hat-image", ClosedClass.hat_image().forbid_time)
        assert hat == ClosedClass.hat_image() and ClosedClass.hat_image() == hat
        assert hash(hat) == hash(ClosedClass.hat_image()) and len({hat, ClosedClass.hat_image()}) == 1

    def test_balls_compare_and_hash_by_their_field(self):
        a, b = ball([("0", HALF)]), ExplicitBall((("0", HALF),))
        assert a == b and hash(a) == hash(b)
        assert a != ball([("1", HALF)]) and a != ball([])
        assert InterleaveCylinderBall("01") == InterleaveCylinderBall(pattern="01")
        assert hash(InterleaveCylinderBall("01")) == hash(InterleaveCylinderBall("01"))
        assert InterleaveCylinderBall("01") != InterleaveCylinderBall("0")
        assert ball([]) != InterleaveCylinderBall("") and InterleaveCylinderBall("") != ""
        assert len({a, b, InterleaveCylinderBall("01"), InterleaveCylinderBall("01")}) == 2

    def test_a_kept_box_does_not_change_equality(self):
        a = ball([("0", Interval(F(1, 4), F(1, 2)))])
        b = ball([("0", Interval(F(1, 4), F(1, 2)))])
        assert a.sup_mass("01") == F(1, 2)  # a keeps its box, b has none
        assert a == b and hash(a) == hash(b)


class TestSpecsRoundTrip:
    def test_sources_and_entries_rebuild_to_their_specs(self):
        sources = [SOURCE, BitSource.literal("011"), BitSource.periodic("10", "1"), BitSource.constant(0)]
        for src in sources:
            assert from_spec(src.spec) == src and from_spec(src.spec).spec == src.spec
        entries = [
            ExactMeasureEntry(THIRD, 2),
            EnumeratedMeasureEntry(ROWS, True),
            StubEntry("real"),
            RealEntry(BitSource.hat_rational(F(2, 5)), 1, 6),
            AliasEntry(0),
        ]
        for ent in entries:
            assert type(from_spec(ent.spec())) is type(ent) and from_spec(ent.spec()).spec() == ent.spec()

    def test_tables_reload_to_their_manifests(self):
        t = ProgramTable([ExactMeasureEntry(THIRD), RealEntry(SOURCE, diverge_from=4)], {1: 6})
        t.bernoulli_lift(1)
        reloaded = table_from_manifest(t.manifest())
        assert reloaded.manifest() == t.manifest() and reloaded.manifest_hash() == t.manifest_hash()
