import hashlib
import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as F
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorlearn.cantor import BadWordError, BitSource
from cantorlearn.measures import (
    dirac,
    BernoulliCylinderBall,
    BudgetExceeded,
    ExplicitBall,
    InconsistentBallError,
    Interval,
    InterleaveCylinderBall,
    MalformedMeasureError,
    Measure,
    Verdict,
    ball,
    bernoulli,
    bernoulli_image,
    ceil_neg_log2,
    enumerated,
    interleave_measure,
    sample_stream,
    sampled_source,
    uniform,
    _cut,
)
from cantorlearn.programs import from_spec


def words(n):
    return ("".join(p) for p in product("01", repeat=n))


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def propagate_ref(c):
    """The fixpoint loop ExplicitBall._propagate replaced: downward and upward
    passes over the box until nothing changes, at most 2 * depth + 4 rounds."""
    depth = max((len(w) for w, _ in c.constraint_list), default=0)
    box = {"": Interval.exact(F(1))}
    for n in range(1, depth + 1):
        for w in words(n):
            box[w] = Interval.unit()

    def clip(w, iv):
        nxt = box[w].intersect(iv)
        if nxt is None:
            raise InconsistentBallError(f"constraints incompatible at {w!r}")
        nxt = Interval(nxt.lo, nxt.hi)
        changed, box[w] = nxt != box[w], nxt
        return changed

    for w, iv in c.constraint_list:
        clip(w, Interval(iv.lo, iv.hi))
    for _ in range(2 * depth + 4):
        changed = False
        for n in range(depth):
            for w in words(n):
                p, c1 = box[w], box[w + "1"]
                changed |= clip(w + "0", Interval(max(F(0), p.lo - c1.hi), min(F(1), p.hi - c1.lo)))
                p, c0 = box[w], box[w + "0"]
                changed |= clip(w + "1", Interval(max(F(0), p.lo - c0.hi), min(F(1), p.hi - c0.lo)))
        for n in range(depth - 1, -1, -1):
            for w in words(n):
                c0, c1 = box[w + "0"], box[w + "1"]
                changed |= clip(w, Interval(c0.lo + c1.lo, min(F(1), c0.hi + c1.hi)))
        if not changed:
            break
    return box


def value_range_ref(pattern, word):
    """InterleaveCylinderBall's range of mu(word), bit by bit: a mismatched
    even bit gives 0, each odd bit halves the top, an even bit past the
    pattern frees the bottom."""
    hi, free = F(1), False
    for j, ch in enumerate(word):
        if j % 2:
            hi /= 2
        elif j // 2 >= len(pattern):
            free = True
        elif ch != pattern[j // 2]:
            return Interval.exact(F(0))
    return Interval(F(0) if free else hi, hi)


EIGHTHS = st.sampled_from([F(k, 8) for k in range(9)])


@st.composite
def measure_constraints(draw):
    """A random measure to depth <= 5, with eighths as split ratios, and
    closed, open and exact constraints that hold for it: (masses, ball)."""
    depth = draw(st.integers(0, 5))
    mass = {"": F(1)}
    for n in range(depth):
        for w in words(n):
            mass[w + "0"] = mass[w] * draw(EIGHTHS)
            mass[w + "1"] = mass[w] - mass[w + "0"]
    constraints = []
    for w in draw(st.lists(st.sampled_from(sorted(mass)), min_size=1, max_size=8)):
        m, kind = mass[w], draw(st.sampled_from(["exact", "closed", "open"]))
        if kind == "exact":
            constraints.append((w, Interval.exact(m)))
            continue
        lo, hi = max(F(0), m - draw(EIGHTHS) / 2), min(F(1), m + draw(EIGHTHS) / 2)
        constraints.append((w, Interval(lo, hi, kind == "open" and lo < m, kind == "open" and m < hi)))
    return mass, ball(constraints)


@st.composite
def arbitrary_constraints(draw):
    """Up to 8 constraints on words of <= 5 bits, any closed, open or exact
    interval with ends in eighths: mostly inconsistent, some not."""
    constraints = []
    for _ in range(draw(st.integers(0, 8))):
        w = draw(st.text("01", max_size=5))
        lo, hi = sorted((draw(EIGHTHS), draw(EIGHTHS)))
        flags = (draw(st.booleans()), draw(st.booleans())) if lo < hi else (False, False)
        constraints.append((w, Interval(lo, hi, *flags)))
    return ball(constraints)


@st.composite
def unit_fractions(draw):
    """p0 in (0, 1), with denominators from 2 up to 2^400."""
    den = draw(st.integers(2, 1 << draw(st.sampled_from([4, 53, 64, 200, 400]))))
    return F(draw(st.integers(1, den - 1)), den)


@st.composite
def rules(draw):
    """A rule cycling through 1 to 5 values, forced ones among them, and
    whether it builds a fresh value object on every read."""
    values = draw(st.lists(st.one_of(st.sampled_from([F(0), F(1), F(1, 2)]), unit_fractions()), min_size=1, max_size=5))
    if draw(st.booleans()):
        return lambda j: F(values[j % len(values)])
    return lambda j: values[j % len(values)]


def sample_ref(rule, seed, n):
    """The integer comparison sample_stream replaced: each draw's exact ratio
    against p0, with no draw for a forced bit."""
    rng = random.Random(seed)
    out = []
    for j in range(n):
        p0 = rule(j)
        if p0.denominator == 1:
            out.append("0" if p0.numerator else "1")
        else:
            a, b = rng.random().as_integer_ratio()
            out.append("0" if a * p0.denominator < p0.numerator * b else "1")
    return "".join(out)


def around(x, k=3):
    """x and the k doubles on each side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(k):
            out.append(y := math.nextafter(y, direction))
    return out


class TestInterval:
    def test_contains_open_closed(self):
        iv = Interval(F(1, 4), F(3, 4), lo_open=True)
        assert not iv.contains(F(1, 4))
        assert iv.contains(F(3, 4))
        assert iv.contains(F(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(InconsistentBallError):
            Interval(F(1, 2), F(1, 4))
        with pytest.raises(InconsistentBallError):
            Interval.open(F(1, 2), F(1, 2))

    def test_intersection_example(self):
        a = Interval.open(F(1, 4), F(1, 2))
        b = Interval.open(F(3, 8), F(5, 8))
        got = a.intersect(b)
        assert (got.lo, got.hi, got.lo_open, got.hi_open) == (F(3, 8), F(1, 2), True, True)

    def test_disjoint_touching_open(self):
        a = Interval.open(F(0), F(1, 2))
        b = Interval(F(1, 2), F(1))
        assert a.disjoint(b) is False or a.intersect(b) is None  # touching at open end
        assert a.intersect(b) is None

    def test_contains_interval(self):
        outer = Interval(F(0), F(1))
        inner = Interval.open(F(0), F(1))
        assert outer.contains_interval(inner)
        assert not inner.contains_interval(outer)


class TestFrozenConstruction:
    # intervals and Bernoulli balls fill their fields in their own constructors; these pin what the
    # generated dataclass methods and the checks give on top of that
    def test_equality_hash_and_repr(self):
        iv = Interval(F(1, 4), F(1, 2), hi_open=True)
        ball = BernoulliCylinderBall(iv, 3)
        assert iv == Interval(F(2, 8), 0.5, False, True) and iv != Interval(F(1, 4), F(1, 2))
        assert ball == BernoulliCylinderBall(param=iv, level=3) and ball != BernoulliCylinderBall(iv, 4)
        assert hash(iv) == hash((F(1, 4), F(1, 2), False, True)) and hash(ball) == hash((iv, 3))
        want = "Interval(lo=Fraction(1, 4), hi=Fraction(1, 2), lo_open=False, hi_open=True)"
        assert repr(iv) == want
        assert repr(ball) == f"BernoulliCylinderBall(param={want}, level=3)"

    def test_frozen(self):
        iv = Interval(F(1, 4), F(1, 2))
        ball = BernoulliCylinderBall(iv, 3)
        for obj, name in ((iv, "lo"), (iv, "_ln"), (ball, "level"), (ball, "param")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)

    def test_replace_rebuilds_through_the_checks(self):
        iv = Interval(F(1, 4), F(1, 2))
        ball = BernoulliCylinderBall(iv, 3)
        assert replace(iv, hi_open=True) == Interval(F(1, 4), F(1, 2), hi_open=True)
        assert replace(iv, lo=0).contains(0) and replace(iv, lo=0)._ln == 0
        assert replace(ball, level=5) == BernoulliCylinderBall(iv, 5)
        with pytest.raises(InconsistentBallError):
            replace(iv, lo=1)
        with pytest.raises(ValueError, match="must lie in"):
            replace(ball, param=Interval(F(-1, 2), F(1, 2)))

    def test_bad_input(self):
        with pytest.raises(ValueError, match="Invalid literal"):
            Interval("x", 1)
        with pytest.raises(InconsistentBallError):
            Interval(F(1, 2), F(1, 4))
        for bad in (Interval(F(-1, 2), F(1, 2)), Interval(F(1, 2), F(3, 2))):
            with pytest.raises(ValueError, match=r"parameter interval must lie in \[0,1\]"):
                BernoulliCylinderBall(bad, 3)


class TestConstructors:
    def test_uniform_values(self):
        lam = uniform()
        assert lam.mass("") == 1
        assert lam.mass("0110") == F(1, 16)
        assert lam.mass("01") == lam.mass("010") + lam.mass("011")

    def test_bernoulli_values(self):
        b = bernoulli(F(1, 3))
        assert b.mass("00") == F(1, 9)
        assert bernoulli(F(1, 2)).mass("0110") == F(1, 16)
        assert bernoulli(F(1)).mass("01") == 0

    def test_interleave_values(self):
        mz = interleave_measure(BitSource.constant(0))
        assert mz.mass("") == 1
        assert mz.mass("0") == 1
        assert mz.mass("1") == 0
        assert mz.mass("00") == F(1, 2)
        assert mz.mass("01") == F(1, 2)

    def test_additivity_exhaustive(self):
        measures = [
            uniform(),
            bernoulli(F(1, 3)),
            bernoulli(F(7, 17)),
            interleave_measure(BitSource.rational(F(1, 3))),
        ]
        for mu in measures:
            assert mu.mass("") == 1
            for n in range(9):
                for w in words(n):
                    assert mu.mass(w) == mu.mass(w + "0") + mu.mass(w + "1")

    def test_from_spec_round_trip(self):
        for mu in (
            uniform(),
            bernoulli(F(2, 5)),
            interleave_measure(BitSource.rational(F(1, 3))),
            dirac(BitSource.rational(F(1, 3))),
        ):
            rebuilt = from_spec(mu.spec)
            for w in ("", "0", "0110", "10101"):
                assert rebuilt.mass(w) == mu.mass(w)


class TestMeasureEval:
    def test_exact_degenerate(self):
        iv = uniform().knowledge("01", 5)
        assert iv.lo == iv.hi == F(1, 4)

    def test_enumerated_intersection(self):
        mu = enumerated(
            [
                ("0", Interval.open(F(1, 4), F(1, 2)), 3),
                ("0", Interval.open(F(3, 8), F(5, 8)), 3),
            ]
        )
        iv = mu.knowledge("0", 3)
        assert (iv.lo, iv.hi) == (F(3, 8), F(1, 2))

    def test_enumerated_unseen_unit(self):
        mu = enumerated([("0", Interval.exact(F(1, 2)), 1)])
        iv = mu.knowledge("111", 9)
        assert (iv.lo, iv.hi) == (0, 1)

    def test_stage_gating(self):
        mu = enumerated([("0", Interval.closed(F(1, 4), F(1, 2)), 5)])
        assert mu.knowledge("0", 4) == Interval.unit()
        assert mu.knowledge("0", 5).hi == F(1, 2)

    def test_inconsistent_raises(self):
        mu = enumerated(
            [
                ("0", Interval.closed(F(0), F(1, 4)), 1),
                ("0", Interval.closed(F(1, 2), F(3, 4)), 1),
            ]
        )
        with pytest.raises(MalformedMeasureError):
            mu.knowledge("0", 1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        rules(), st.builds(lambda n, v: format(v, "0200b")[:n], st.integers(0, 200), st.integers(0, 2**200 - 1))
    )
    def test_mass_bits_equal_exact_masses(self, rule, x):
        # dyadic, forced and non-dyadic factors, mixed along words of up to 200 bits, against each
        # prefix's exact mass
        mu = Measure({"kind": "rule"}, p0=rule)
        want = [ceil_neg_log2(m) if (m := mu.mass(x[:n])) else math.inf for n in range(len(x) + 1)]
        assert list(mu.mass_bits(x)) == want


class TestBalls:
    def test_pinned_root_child(self):
        c = ball([("0", Interval.exact(F(1, 2)))])
        assert c.sup_mass("0") == c.sup_mass("1") == F(1, 2)  # the root's mass 1 splits exactly

    def test_inconsistent_ball(self):
        c = ball(
            [
                ("0", Interval.exact(F(3, 4))),
                ("00", Interval.exact(F(1, 8))),
                ("01", Interval.exact(F(1, 8))),
            ]
        )
        with pytest.raises(InconsistentBallError):
            c.sup_mass("0")

    def test_budget_exceeded_is_not_inconsistent(self):
        # a consistent ball too deep to propagate within NODE_BUDGET
        assert ball([("0" * 14, Interval.closed(F(0), F(1, 2)))]).sup_mass("0") == 1
        deep = ball([("0" * 15, Interval.closed(F(0), F(1, 2)))])
        with pytest.raises(BudgetExceeded) as info:
            deep.sup_mass("0")
        assert not isinstance(info.value, InconsistentBallError)

    def test_sup_mass_propagates(self):
        c = ball([("0", Interval.closed(F(1, 4), F(1, 2)))])
        assert c.sup_mass("0") == F(1, 2)
        assert c.sup_mass("00") == F(1, 2)  # children may inherit all parent mass
        assert c.sup_mass("1") == F(3, 4)

    def test_box_is_propagated_once(self, monkeypatch):
        constraints = [("0", Interval.closed(F(1, 4), F(1, 2))), ("101", Interval.closed(F(0), F(1, 8)))]
        words = ("0", "00", "1", "101", "1111", "")
        want = [ball(constraints).sup_mass(w) for w in words]
        calls = [0]
        propagate = ExplicitBall._propagate

        def counting_propagate(self):
            calls[0] += 1
            return propagate(self)

        monkeypatch.setattr(ExplicitBall, "_propagate", counting_propagate)
        c = ball(constraints)
        assert [c.sup_mass(w) for w in words] == want
        assert calls[0] == 1

    def test_contains_verdicts(self):
        lam = uniform()
        assert ball([("0", Interval.open(F(1, 4), F(3, 4)))]).contains(lam, 0) == Verdict.YES
        assert ball([("0", Interval(F(3, 4), F(1), lo_open=True))]).contains(lam, 0) == Verdict.NO
        mu = enumerated([("0", Interval.open(F(0), F(1)), 0)])
        assert (
            ball([("0", Interval.open(F(1, 4), F(3, 4)))]).contains(mu, 0)
            == Verdict.UNKNOWN
        )

    def test_contains_stability(self):
        # verdicts reached at a stage persist at later stages
        mu = enumerated(
            [
                ("0", Interval.closed(F(0), F(1)), 0),
                ("0", Interval.closed(F(30, 64), F(34, 64)), 4),
                ("0", Interval.closed(F(31, 64), F(33, 64)), 8),
            ]
        )
        c = ball([("0", Interval.open(F(1, 4), F(3, 4)))])
        seen_yes = None
        for s in range(12):
            v = c.contains(mu, s)
            if seen_yes is not None:
                assert v == Verdict.YES
            if v == Verdict.YES:
                seen_yes = s

    def test_bernoulli_cylinder_matches_explicit(self):
        param = Interval.closed(F(1, 4), F(3, 8))
        lazy = BernoulliCylinderBall(param, level=2)
        # the ball's constraints, every word of levels 1 and 2 pinned to its image
        explicit = ball(
            [(w, bernoulli_image(param, w.count("0"), n - w.count("0"))) for n in (1, 2) for w in words(n)]
        )
        for w in ("0", "1", "00", "01", "11"):
            assert lazy.sup_mass(w) == bernoulli_image(param, w.count("0"), len(w) - w.count("0")).hi
        for q in (F(1, 4), F(5, 16), F(1, 2)):
            assert lazy.contains(bernoulli(q), 0) == explicit.contains(bernoulli(q), 0)

    def test_bernoulli_cylinder_param_must_lie_in_unit(self):
        for param in (Interval.closed(F(1, 2), F(3, 2)), Interval.closed(F(-1, 4), F(1, 4))):
            with pytest.raises(ValueError):
                BernoulliCylinderBall(param, level=2)
        edge = BernoulliCylinderBall(Interval.unit(), level=2)
        assert edge.contains(bernoulli(F(1, 3)), 0) == Verdict.YES

    def test_bernoulli_image_critical_point(self):
        img = bernoulli_image(Interval.closed(F(1, 4), F(3, 4)), 1, 1)
        assert img.hi == F(1, 4)  # attained at q=1/2
        assert img.lo == F(3, 16)

    @PROPERTY
    @given(measure_constraints())
    def test_propagate_matches_reference_around_a_measure(self, drawn):
        mass, c = drawn
        box = c._propagate()
        assert box == propagate_ref(c)
        assert all(box[w].contains(m) for w, m in mass.items() if w in box)

    @PROPERTY
    @given(arbitrary_constraints())
    def test_propagate_matches_reference_on_arbitrary_constraints(self, c):
        try:
            want = propagate_ref(c)
        except InconsistentBallError:
            with pytest.raises(InconsistentBallError):
                c._propagate()
        else:
            assert c._propagate() == want

    def test_interleave_cylinder_matches_bitwise_reference(self):
        for pattern in (p for k in range(5) for p in words(k)):
            c = InterleaveCylinderBall(pattern)
            for word in (w for n in range(11) for w in words(n)):
                want = value_range_ref(pattern, word)
                assert (c._value_range(word), c.sup_mass(word)) == (want, want.hi)

    def test_interleave_cylinder_checks_its_pattern(self):
        for pattern in ("0x", "2", "01 "):
            with pytest.raises(BadWordError):
                InterleaveCylinderBall(pattern)

    def test_interleave_cylinder(self):
        c = InterleaveCylinderBall("01")
        assert c.sup_mass("0") == 1
        assert c.sup_mass("1") == 0
        assert c.sup_mass("00") == F(1, 2)
        assert c.sup_mass("0011") == F(1, 4)  # position 2 forced to pattern bit 1
        assert c.sup_mass("0001") == 0
        mz = interleave_measure(BitSource.periodic("01"))
        assert c.contains(mz, 0) == Verdict.YES
        other = interleave_measure(BitSource.constant(0))
        assert c.contains(other, 0) == Verdict.NO


class TestSampling:
    def test_forced_branches(self):
        assert sample_stream(bernoulli(F(1)), 3, 4) == "0000"
        z = BitSource.rational(F(1, 3))
        for seed in range(5):
            x = sample_stream(interleave_measure(z), seed, 64)
            assert x[0::2] == z.prefix(32)

    def test_reproducible(self):
        a = sample_stream(bernoulli(F(1, 2)), 7, 8)
        b = sample_stream(bernoulli(F(1, 2)), 7, 8)
        assert a == b
        assert len(a) == 8
        # prefix property: longer samples extend shorter ones
        c = sample_stream(bernoulli(F(1, 2)), 7, 16)
        assert c.startswith(a)

    def test_pinned_word(self):
        # sha256 of sample_stream(bernoulli(q), seed, 2048), recorded from the
        # integer comparison: 1/3 and 2/3 round down to a double, 1/5 up, 1/2 is exact
        pins = {
            (F(1, 3), 0): "4c3358976ee36d713fc9fab9be18a12ccb130caf15cadac4ae10877b2c0e1774",
            (F(1, 3), 1): "f6c8cdf7867c6897b88870bdf98f5c82eb5c85684af61871caea5f99777f3182",
            (F(2, 3), 0): "ff377ef4708fa332b57b0f7e8aac6805dcd18fafe5a3b883283425b5fd3aff5c",
            (F(2, 3), 1): "7a04bf19673ecb2e2d06e120bdd230bbf6dcb8b8f56baf92a5c2fc4a189a13ed",
            (F(1, 5), 0): "b7392c984ca1b219a077799b024c4db5a07dd04e7992962958c62661c4989afc",
            (F(1, 5), 1): "4f19b434a59a6424b815560d1e4c2fd22e58421eeccd6fc80cc9fd14cedac78a",
            (F(1, 2), 0): "a4ed86f245699504211cb7c055cbe8d620fd9eb495bf568186314a8468b5e779",
            (F(1, 2), 1): "98f195e2800911eb2c1380e77363573952f1c287c1666da68cd2fff451e91c45",
        }
        for (q, seed), want in pins.items():
            assert hashlib.sha256(sample_stream(bernoulli(q), seed, 2048).encode()).hexdigest() == want

    @PROPERTY
    @given(unit_fractions(), st.lists(st.floats(0, 1) | st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    @example(F(1, 10**400), [0.0, 5e-324])  # below the smallest subnormal
    @example(F(1, 1 << 1100), [0.0])
    @example(1 - F(1, 1 << 61), [1.0, 1 - 2**-53])  # within 2^-60 of 1
    @example(1 - F(1, 10**400), [1.0])
    @example(F(1, 3), [])
    @example(F(1, 5), [])
    def test_cut_decides_every_double(self, p0, draws):
        cut = _cut(p0)
        for r in draws + around(cut):
            assert (r < cut) == (F(r) < p0)

    @PROPERTY
    @given(rules(), st.integers(0, 2**64), st.integers(0, 300))
    def test_stream_matches_integer_comparison(self, rule, seed, n):
        assert sample_stream(Measure({"kind": "test"}, p0=rule), seed, n) == sample_ref(rule, seed, n)

    def test_law_of_large_numbers(self):
        q = F(1, 3)
        ok = 0
        for seed in range(40):
            x = sample_stream(bernoulli(q), seed, 2048)
            freq = F(x.count("0"), 2048)
            if abs(freq - q) <= F(1, 20):
                ok += 1
        assert ok >= 38

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            sample_stream(bernoulli(F(1, 3)), 0, -3)

    def test_sampled_source_matches(self):
        mu = bernoulli(F(2, 5))
        src = sampled_source(mu, 11)
        assert src.prefix(100) == sample_stream(mu, 11, 100)[:100]

    def test_sampled_source_across_doublings(self):
        at = [i for k in range(3, 11) for i in ((1 << k) - 1, 1 << k)]  # 7, 8, 15, 16, ..., 1023, 1024
        measures = (bernoulli(F(1, 3)), interleave_measure(BitSource.rational(F(2, 7))))
        sampled = [(partial(sampled_source, mu, 5), sample_stream(mu, 5, 1100)) for mu in measures]
        # every other kind against its own 1100-bit prefix, which test_cantor checks against references
        makers = [
            partial(BitSource.rational, F(2, 7)),
            partial(BitSource.hat_rational, F(5, 13)),
            partial(BitSource.periodic, "110", "0101"),
            partial(BitSource.literal, sample_stream(bernoulli(F(1, 3)), 9, 1100)),
            partial(BitSource.constant, 1),
        ]
        for make, want in sampled + [(make, make().prefix(1100)) for make in makers]:
            for order in (at, at[::-1]):
                src = make()
                assert [src.bit(i) for i in order] == [int(want[i]) for i in order]

    def test_sampled_source_reads_by_prefix(self, monkeypatch):
        # a prefix is one sample_stream call; bits in order read a doubling prefix, a few calls
        import cantorlearn.measures as measures

        calls = []
        real = measures.sample_stream
        monkeypatch.setattr(measures, "sample_stream", lambda mu, seed, n: calls.append(n) or real(mu, seed, n))
        mu = bernoulli(F(1, 3))
        src = sampled_source(mu, 5)
        assert src.prefix(100) == real(mu, 5, 100) and calls == [100]
        assert [src.bit(i) for i in range(1024)] == [int(b) for b in real(mu, 5, 1024)]
        assert calls == [100, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        assert src.bit(1000) == int(real(mu, 5, 1001)[1000]) and len(calls) == 10

    @pytest.mark.parametrize(
        "z",
        [
            BitSource.literal("01"),  # read bit by bit
            BitSource.periodic("01"),
            BitSource.rational(F(2, 5)),  # read by prefix
            BitSource.hat_rational(F(2, 5)),
            sampled_source(bernoulli(F(1, 3)), 1),
        ],
    )
    def test_negative_positions_raise(self, z):
        mu = interleave_measure(z)
        assert mu.p0(-1) == F(1, 2)  # an odd position reads no source bit
        for rule, j in ((mu.p0, -2), (dirac(z).p0, -1)):
            assert rule(j + 2) in (0, 1)  # a read at 0 first, so a reader holds bits it could wrap to
            with pytest.raises(IndexError):
                rule(j)
