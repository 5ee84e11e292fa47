import math
import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlearn.cantor import (
    BadWordError,
    BitSource,
    ClosedClass,
    EndOfWordError,
    HatDecodeError,
    deinterleave,
    hat_decode,
    hat_encode,
    interleave,
)
from cantorlearn.measures import bernoulli, interleave_measure, sample_stream, sampled_source


def all_words(n):
    return ("".join(p) for p in product("01", repeat=n))


def bit_loop(source, n):
    """The first n bits read one by one."""
    return "".join(str(source.bit(i)) for i in range(n))


def long_division(value, n):
    """The first n bits of value's binary expansion, one remainder step per bit."""
    if value == 1:
        return "1" * n  # the convention for 1
    rem, q, out = value.numerator, value.denominator, []
    for _ in range(n):
        rem *= 2
        out.append(str(rem // q))
        rem %= q
    return "".join(out)


def periodic_bits(cycle, head, n):
    return "".join(head[i] if i < len(head) else cycle[(i - len(head)) % len(cycle)] for i in range(n))


# 0, 1, dyadic and periodic expansions, then any rational in [0,1]
rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(5, 1024), Fraction(1, 3), Fraction(5, 7)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)
words = st.text("01", max_size=40)

# the measures and seeds of sampled sources
samplings = st.tuples(
    st.sampled_from([bernoulli(Fraction(1, 3)), interleave_measure(BitSource.rational(Fraction(2, 7)))]),
    st.integers(0, 9),
)

# every kind as (a factory, so that each read starts from a fresh source, and an independent
# reference for its first n bits, fewer where a literal's word ends)
sources = st.one_of(
    rationals.map(lambda v: (partial(BitSource.rational, v), partial(long_division, v))),
    rationals.map(lambda v: (partial(BitSource.hat_rational, v), lambda n: hat_encode(long_division(v, n))[:n])),
    st.tuples(words.filter(bool), words).map(lambda ch: (partial(BitSource.periodic, *ch), partial(periodic_bits, *ch))),
    words.map(lambda w: (partial(BitSource.literal, w), lambda n: w[:n])),
    st.sampled_from([0, 1]).map(lambda b: (partial(BitSource.constant, b), lambda n: str(b) * n)),
    samplings.map(lambda ms: (partial(sampled_source, *ms), partial(sample_stream, *ms))),
)


class TestInterleave:
    def test_basic(self):
        assert interleave("000", "111") == "010101"

    def test_empty(self):
        assert interleave("", "") == ""

    def test_uneven(self):
        assert interleave("01", "1") == "011"

    def test_rejects_bad_lengths(self):
        with pytest.raises(BadWordError):
            interleave("0", "011")
        with pytest.raises(BadWordError):
            interleave("0000", "01")

    def test_deinterleave_basic(self):
        assert deinterleave("0101") == ("00", "11")
        assert deinterleave("") == ("", "")
        assert deinterleave("011") == ("01", "1")

    def test_round_trip_exhaustive(self):
        for nz in range(9):
            for z in all_words(nz):
                for ny in (nz, nz - 1):
                    if ny < 0:
                        continue
                    for y in all_words(ny):
                        assert deinterleave(interleave(z, y)) == (z, y)

    def test_round_trip_random_long(self):
        rng = random.Random(11)
        for _ in range(200):
            nz = rng.randint(9, 12)
            z = "".join(rng.choice("01") for _ in range(nz))
            y = "".join(rng.choice("01") for _ in range(nz - rng.randint(0, 1)))
            assert deinterleave(interleave(z, y)) == (z, y)
            x = "".join(rng.choice("01") for _ in range(rng.randint(0, 24)))
            assert interleave(*deinterleave(x)) == x


class TestHat:
    def test_encode_examples(self):
        assert hat_encode("01") == "0110"
        assert hat_encode("") == ""
        assert hat_encode("111") == "101010"

    def test_decode_examples(self):
        assert hat_decode("0110") == "01"
        assert hat_decode("011") == "0"
        with pytest.raises(HatDecodeError):
            hat_decode("11")

    def test_round_trip(self):
        for n in range(11):
            for w in all_words(n):
                assert hat_decode(hat_encode(w)) == w
        rng = random.Random(5)
        for _ in range(300):
            w = "".join(rng.choice("01") for _ in range(rng.randint(11, 16)))
            assert hat_decode(hat_encode(w)) == w

    def test_images_have_no_constant_blocks(self):
        for n in range(1, 11):
            for w in all_words(n):
                img = hat_encode(w)
                assert len(img) == 2 * n
                for i in range(0, len(img), 2):
                    assert img[i : i + 2] in ("01", "10")

    def test_hat_image_decides_hat_prefixes(self):
        # a word is a prefix of a hat-encoded real iff it decodes
        d = ClosedClass.hat_image()
        for n in range(9):
            for w in all_words(n):
                try:
                    hat_decode(w)
                    decodes = True
                except HatDecodeError:
                    decodes = False
                assert d.alive(w, 0) == decodes, w


class TestBitSource:
    def test_literal_errors_past_end(self):
        s = BitSource.literal("010")
        assert [s.prefix(n) for n in (-1, 0, 2, 3)] == ["", "", "01", "010"]
        with pytest.raises(EndOfWordError):
            s.bit(3)
        for n in (4, 40):
            with pytest.raises(EndOfWordError, match="length 3 read at 3"):
                s.prefix(n)

    def test_rational_third(self):
        s = BitSource.rational(Fraction(1, 3))
        assert s.prefix(8) == "01010101"

    def test_rational_two_fifths(self):
        assert BitSource.rational(Fraction(2, 5)).prefix(8) == "01100110"

    def test_rational_two_thirds(self):
        assert BitSource.rational(Fraction(2, 3)).prefix(6) == "101010"

    def test_rational_dyadic_terminates(self):
        assert BitSource.rational(Fraction(1, 2)).prefix(5) == "10000"
        assert BitSource.rational(Fraction(0)).prefix(4) == "0000"
        assert BitSource.rational(Fraction(1)).prefix(4) == "1111"

    def test_rational_matches_long_division(self):
        dyadic = [Fraction(1, 2), Fraction(3, 8), Fraction(5, 1024), Fraction(12345, 1 << 20)]
        periodic = [Fraction(1, 3), Fraction(2, 5), Fraction(5, 7), Fraction(1, 6), Fraction(123, 997)]
        for v in [Fraction(0), Fraction(1), *dyadic, *periodic]:
            assert BitSource.rational(v).prefix(2000) == long_division(v, 2000), v

    def test_hat_rational(self):
        assert BitSource.hat_rational(Fraction(1, 3)).prefix(8) == "01100110"

    def test_hat_rational_is_the_hat_of_the_expansion(self):
        for v in (Fraction(1, 3), Fraction(3, 7), Fraction(1, 2), Fraction(1)):
            want = hat_encode(long_division(v, 24))
            assert BitSource.hat_rational(v).prefix(48) == bit_loop(BitSource.hat_rational(v), 48) == want

    def test_periodic(self):
        s = BitSource.periodic("10", head="0")
        assert s.prefix(7) == "0101010"

    def test_determinism(self):
        s = BitSource.rational(Fraction(5, 7))
        assert s.prefix(40) == s.prefix(40)
        assert s.bit(17) == BitSource.rational(Fraction(5, 7)).bit(17)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sources, st.integers(-3, 300), st.lists(st.integers(0, 300), max_size=40))
    def test_prefix_and_bits_match_a_reference(self, kind, n, at):
        # a prefix of every length, and bits read in any order across the held prefix's doublings
        make, reference = kind
        want = reference(301)
        if n <= len(want):
            assert make().prefix(n) == want[: max(n, 0)]
        else:
            with pytest.raises(EndOfWordError):
                make().prefix(n)
        source = make()
        for i in at:
            if i < len(want):
                assert source.bit(i) == int(want[i])
            else:
                with pytest.raises(EndOfWordError):
                    source.bit(i)

    def test_bare_prefix_function_reads_by_doubling(self):
        reads = []
        s = BitSource({"kind": "custom"}, lambda n: reads.append(n) or "01" * (n // 2) + "0" * (n % 2))
        assert s.prefix(5) == "01010" and reads == [5]
        assert bit_loop(s, 10) == "0101010101"
        assert reads == [5, 4, 8, 16]

    def test_far_bit_holds_at_most_twice_its_position(self):
        # bit i of 1/3 is the lowest bit of floor(2^(i + 1) / 3)
        i = 2**16
        s = BitSource.rational(Fraction(1, 3))
        assert s.bit(i) == (2 ** (i + 1) // 3) & 1
        assert len(s._held) <= 2 * max(3, i + 1)


def extend_ref(domain, frontier, stage, limit):
    """A level read one candidate at a time: each one-bit extension in order until more than limit
    are kept, kept unless the stage reveals it forbidden; and the least forbid time above the stage
    among those read (inf if none)."""
    kept, soonest = [], math.inf
    for cand in (w + ch for w in frontier for ch in "01"):
        if len(kept) > limit:
            break
        t = domain.forbid_time(cand)
        if t is None or t > stage:
            kept.append(cand)
        if t is not None and t > stage:
            soonest = min(soonest, t)
    return kept, soonest


@st.composite
def stage_set_levels(draw):
    """An explicit class forbidding words of up to 4 bits at stages 0 to 6, a frontier of distinct
    words of up to 3 bits, a stage from -1 to 7 and a limit up to 10 (up to 3 more often) or inf."""
    words = st.text("01", max_size=4)
    sets = draw(st.dictionaries(st.integers(0, 6), st.sets(words, max_size=5), max_size=4))
    frontier = draw(st.lists(st.text("01", max_size=3), unique=True, max_size=6))
    limit = draw(st.one_of(st.integers(0, 10), st.just(math.inf), st.integers(0, 3)))
    return ClosedClass.from_stage_sets(sets), frontier, draw(st.integers(-1, 7)), limit


class TestClosedClass:
    def test_full_space(self):
        d = ClosedClass.full()
        assert d.alive("0101", 1000)

    def test_hat_image(self):
        d = ClosedClass.hat_image()
        assert d.alive("0110", 0)
        assert not d.alive("11", 0)
        assert d.alive("011", 5)
        assert not d.alive("0100", 5)

    def test_hat_image_levels_follow_its_forbid_rule(self):
        # every level of alive hat words up to length 12, built as a search builds it: the block
        # rule reads what the generic read of the same forbid_time reads, list and least forbid time
        hat = ClosedClass.hat_image()
        generic = ClosedClass("hat-image", hat.forbid_time)
        assert type(generic) is ClosedClass and type(hat) is not ClosedClass
        level, sizes = [""], []
        for _ in range(12):
            for stage in (-1, 0, 1, 5):
                for limit in (0, 1, 2, 7, math.inf):
                    assert hat.extend(level, stage, limit) == generic.extend(level, stage, limit)
            level = generic.extend(level, 0)[0]
            sizes.append(len(level))
        assert sizes == [2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64]
        assert hat.extend(level, 5) == ([w + ch for w in level for ch in "01"], math.inf)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(stage_set_levels())
    def test_the_level_read_is_the_per_candidate_read(self, case):
        domain, frontier, stage, limit = case
        assert domain.extend(frontier, stage, limit) == extend_ref(domain, frontier, stage, limit)

    def test_stage_semantics(self):
        d = ClosedClass.from_stage_sets({3: {"0"}})
        assert d.alive("01", 2)
        assert not d.alive("01", 3)
        assert not d.alive("01", 7)

    def test_stage_set_names_tell_classes_apart(self):
        name = lambda sets: ClosedClass.from_stage_sets(sets).name
        assert name({0: {"0"}}) != name({0: {"1"}})
        assert name({0: {"0"}}) != name({1: {"0"}})
        # a word forbidden again later is still forbidden from its first stage
        assert name({1: {"0"}, 3: {"0", "1"}}) == name({3: {"1"}, 1: {"0"}})

    def test_liveness_prefix_monotone(self):
        d = ClosedClass.from_stage_sets({0: {"010"}, 2: {"11"}})
        rng = random.Random(3)
        for _ in range(200):
            w = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
            s = rng.randint(0, 4)
            if d.alive(w, s):
                for k in range(len(w) + 1):
                    assert d.alive(w[:k], s)

    def test_liveness_antitone_in_stage(self):
        d = ClosedClass.from_stage_sets({1: {"00"}, 4: {"1"}})
        for w in all_words(4):
            prev = True
            for s in range(6):
                cur = d.alive(w, s)
                assert not (cur and not prev)
                prev = cur
