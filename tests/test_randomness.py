import hashlib
import itertools
import math
import random
import zlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlearn import cantor, measures, programs, randomness
from cantorlearn.cantor import BadWordError, BitSource, check_bits
from cantorlearn.measures import (
    BernoulliCylinderBall,
    Interval,
    Measure,
    bernoulli,
    dirac,
    interleave_measure,
    sample_stream,
    uniform,
)
from cantorlearn.programs import ExactMeasureEntry, ProgramTable, RealEntry, StubEntry
from cantorlearn.randomness import (
    DEFAULT_CODECS,
    INFINITE_DEFICIENCY,
    LITERAL_HEADER,
    TRACKER_BUFFER_BITS,
    ZLIB_BLOCK_BITS,
    ComplexityEstimator,
    KTCodec,
    PatternCodec,
    RunLengthCodec,
    ZlibBlockCodec,
    ceil_neg_log2,
    deficiency,
    deficiency_ball,
    max_prefix_deficiency,
    pack_bits,
    prefix_deficiencies,
    random_verdict,
)


def table_with(*measures):
    t = ProgramTable()
    for m in measures:
        t.add(ExactMeasureEntry(m))
    return t


EST = ComplexityEstimator()


class TestCeilNegLog2:
    @pytest.mark.parametrize(
        "u,want",
        [
            (F(1), 0),
            (F(1, 2), 1),
            (F(1, 3), 2),
            (F(2, 3), 1),
            (F(1, 1024), 10),
            (F(3, 4), 1),
            (F(1023, 1024), 1),
        ],
    )
    def test_values(self, u, want):
        assert ceil_neg_log2(u) == want

    def test_random_against_brute_force(self):
        rng = random.Random(4)
        for _ in range(400):
            p = rng.randint(1, 1000)
            q = rng.randint(p, 2000)
            u = F(p, q)
            k = ceil_neg_log2(u)
            assert F(1, 1 << k) <= u
            assert k == 0 or F(1, 1 << (k - 1)) > u


class TestCodecs:
    def test_literal_ceiling(self):
        rng = random.Random(2)
        for _ in range(50):
            w = "".join(rng.choice("01") for _ in range(rng.randint(0, 200)))
            for s in (1, 2, 5):
                assert EST.upper(w, s) <= len(w) + LITERAL_HEADER

    def test_antitone_in_stage(self):
        w = "0" * 500
        prev = None
        for s in range(1, 8):
            cur = EST.upper(w, s)
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_run_length_on_constant(self):
        # pinned: 1 + gamma(1000) + 8 + id penalty 2 = 30
        rl = RunLengthCodec()
        assert rl.cost("0" * 1000) == 28
        assert EST.upper("0" * 1000, 10) <= 40

    def test_pattern_on_alternating(self):
        pc = PatternCodec()
        w = "01" * 500
        assert pc.cost(w) <= 30
        assert pc.cost("0110" * 100) <= 36

    def test_pattern_period_exact(self):
        pc = PatternCodec()
        t = pc.tracker()
        for ch in "0110" * 5:
            t.push(ch)
        n = len(t.word)
        assert n - t.border[n] == 4

    def test_kt_matches_direct_product(self):
        kt = KTCodec()
        rng = random.Random(7)
        for _ in range(20):
            w = "".join(rng.choice("01") for _ in range(rng.randint(1, 60)))
            prob = F(1)
            zeros = 0
            for t, ch in enumerate(w):
                c = zeros if ch == "0" else t - zeros
                prob *= F(2 * c + 1, 2 * t + 2)
                zeros += ch == "0"
            assert kt.cost(w) == ceil_neg_log2(prob) + 8

    def test_zlib_block_incremental_matches_batch(self):
        zc = ZlibBlockCodec()
        rng = random.Random(9)
        w = "".join(rng.choice("01") for _ in range(700))
        t = zc.tracker()
        for i, ch in enumerate(w, 1):
            t.push(ch)
            if i % 123 == 0:
                assert t.cost() == zc.cost(w[:i])

    def test_tracker_rejects_non_bits(self):
        tr = EST.tracker()
        tr.push("0")
        before = tr.upper(9)
        for bad in ("x", "", "01", 0):
            with pytest.raises(BadWordError):
                tr.push(bad)
        assert tr.upper(9) == before

    @pytest.mark.parametrize("stage", [0, -1])
    def test_tracker_upper_rejects_bad_stage(self, stage):
        with pytest.raises(ValueError, match="stage must be >= 1"):
            EST.tracker().upper(stage)

    def test_tracker_matches_batch_estimator(self):
        rng = random.Random(3)
        w = "".join(rng.choice("01") for _ in range(300))
        tr = EST.tracker()
        for i, ch in enumerate(w, 1):
            tr.push(ch)
            if i % 51 == 0:
                assert tr.upper(9) == EST.upper(w[:i], 9)


def kt_products(top: int):
    """Running products of the sequential KT estimator, for k = 0..top:
    prod (2i+1) over i < k, one factor per earlier equal symbol, and
    prod (2t+2) over t < k, one factor per position."""
    odd, even = [1], [1]
    for k in range(top):
        odd.append(odd[-1] * (2 * k + 1))
        even.append(even[-1] * (2 * k + 2))
    return odd, even


def kt_oracle_length(num: int, den: int) -> int:
    """8 + the smallest k with 2^k >= den / num."""
    return (-(-den // num) - 1).bit_length() + 8


def structured_words(bits: int, seed: int) -> dict:
    rng = random.Random(seed)
    cycle = "".join(rng.choice("01") for _ in range(1000))
    runs, total, bit = [], 0, "0"
    while total < bits:
        runs.append(bit * (1 + int(rng.expovariate(1 / 64))))
        total += len(runs[-1])
        bit = "1" if bit == "0" else "0"
    return {
        "iid": "".join("0" if rng.random() < 1 / 3 else "1" for _ in range(bits)),
        "cyclic": (cycle * (bits // 1000 + 1))[:bits],
        "run-length": "".join(runs)[:bits],
    }


class TestKTFastPath:
    def test_every_small_count_pair(self):
        # the KT probability ignores order, so zeros-then-ones reaches every (a, b)
        top = 300
        odd, even = kt_products(top)
        for a in range(top + 1):
            t = KTCodec().tracker()
            for _ in range(a):
                t.push("0")
            for b in range(top - a + 1):
                if a + b:
                    assert t.cost() == kt_oracle_length(odd[a] * odd[b], even[a + b]), (a, b)
                t.push("1")

    @pytest.mark.parametrize("kind", ["iid", "zeros", "alternating"])
    def test_long_word_checkpoints(self, kind):
        n = 8192
        word = {
            "iid": structured_words(n, 11)["iid"],
            "zeros": "0" * n,
            "alternating": "01" * (n // 2),
        }[kind]
        t = KTCodec().tracker()
        num = den = 1
        seen = [0, 0]
        for i, ch in enumerate(word, 1):
            t.push(ch)
            num *= 2 * seen[int(ch)] + 1
            den *= 2 * i
            seen[int(ch)] += 1
            if i % 256 == 0:
                assert t.cost() == kt_oracle_length(num, den), i

    @pytest.mark.parametrize("word,want", [("0", 9), ("1", 9), ("01", 11), ("10", 11)])
    def test_integer_length_takes_exact_fallback(self, monkeypatch, word, want):
        # P("0") = 1/2 and P("01") = 1/8: L sits on an integer, inside the margin
        calls = []
        real = math.factorial

        def counting(k):
            calls.append(k)
            return real(k)

        monkeypatch.setattr(math, "factorial", counting)
        odd, even = kt_products(2)
        a, b = word.count("0"), word.count("1")
        assert KTCodec().cost(word) == want == kt_oracle_length(odd[a] * odd[b], even[a + b])
        assert calls

    def test_fractional_length_takes_fast_path(self, monkeypatch):
        monkeypatch.setattr(math, "factorial", None)
        # P = 3/128, L = log2(128/3) = 5.415...
        odd, even = kt_products(4)
        assert KTCodec().cost("0110") == 6 + 8 == kt_oracle_length(odd[2] * odd[2], even[4])


class TestZlibAgainstZlib:
    @pytest.mark.parametrize("kind", ["iid", "cyclic", "run-length"])
    def test_block_boundaries_match_zlib_compress(self, kind):
        word = structured_words(8192, 12)[kind]
        t = ZlibBlockCodec().tracker()
        prev = t.cost()
        for i, ch in enumerate(word, 1):
            t.push(ch)
            if i % 256 == 0:
                assert t.cost() == 8 * len(zlib.compress(pack_bits(word[:i]), 9)) + 8, i
            else:
                assert t.cost() == prev + 1, i
            prev = t.cost()


def gamma_ref(r: int) -> int:
    return 2 * math.floor(math.log2(r)) + 1


def pack_ref(word: str) -> bytes:
    """One byte per 8 bits, the last padded with 0s on the right."""
    return bytes(int(word[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(word), 8))


def literal_ref(w: str) -> int:
    return len(w) + 32


def run_length_ref(w: str) -> int:
    if not w:
        return 8
    return 1 + sum(gamma_ref(len(list(g))) for _, g in itertools.groupby(w)) + 8


def pattern_ref(w: str) -> int:
    n = len(w)
    if not n:
        return 8
    period = next(p for p in range(1, n + 1) if w[p:] == w[: n - p])
    return gamma_ref(period) + period + gamma_ref(-(-n // period)) + 8


def kt_ref(w: str) -> int:
    """8 + ceil(-log2) of the sequential KT product, one factor per bit."""
    if not w:
        return 8
    num = den = 1
    seen = [0, 0]
    for t, ch in enumerate(w):
        num *= 2 * seen[int(ch)] + 1
        den *= 2 * t + 2
        seen[int(ch)] += 1
    return kt_oracle_length(num, den)


def zlib_ref(w: str) -> int:
    whole = len(w) - len(w) % ZLIB_BLOCK_BITS
    blocks = 8 * len(zlib.compress(pack_ref(w[:whole]), 9)) if whole else 0
    return blocks + len(w) - whole + 8


CODEC_REFS = {
    "literal": literal_ref,
    "run-length": run_length_ref,
    "pattern": pattern_ref,
    "kt": kt_ref,
    "zlib-block": zlib_ref,
}

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def words(draw):
    """iid, run-heavy or periodic words of up to ~1500 bits."""
    kind = draw(st.sampled_from(["iid", "runs", "periodic"]))
    if kind == "iid":
        rng = random.Random(draw(st.integers(0, 2**32)))
        p0 = draw(st.sampled_from([0.5, 1 / 3, 0.9]))
        return "".join("0" if rng.random() < p0 else "1" for _ in range(draw(st.integers(0, 1500))))
    if kind == "runs":
        runs = draw(st.lists(st.integers(1, 200), max_size=40))
        return "".join(("0", "1")[i % 2] * r for i, r in enumerate(runs))
    period = draw(st.text("01", min_size=1, max_size=40))
    return (period * 1500)[: draw(st.integers(0, 1500))]


def chunk_ends(draw, n: int) -> list[int]:
    """Random cut points 0 < c_1 < ... < n, then n."""
    cuts = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=12))
    return sorted({c for c in cuts if c < n} | {n})


class TestChunkedPushes:
    """A word pushed in any chunks costs what a brute-force coder says at
    every chunk boundary."""

    @PROPERTY
    @given(words(), st.data())
    def test_codecs_match_references(self, word, data):
        ends = chunk_ends(data.draw, len(word))
        for codec in DEFAULT_CODECS:
            ref = CODEC_REFS[codec.name]
            t, start = codec.tracker(), 0
            for end in ends:
                t.push(word[start:end])
                start = end
                assert t.cost() == ref(word[:end]), (codec.name, end)
            assert codec.cost(word) == ref(word), codec.name

    @PROPERTY
    @given(words(), st.data(), st.integers(1, 7))
    def test_tracker_reads_match_whole_word_estimate(self, word, data, stage):
        reads = set(chunk_ends(data.draw, len(word)))
        tr = EST.tracker()
        assert tr.upper(stage) == EST.upper("", stage)
        for i, ch in enumerate(word, 1):
            tr.push(ch)
            if i in reads:
                assert tr.upper(stage) == EST.upper(word[:i], stage), i

    @PROPERTY
    @given(st.integers(0, 2**32), st.integers(0, 200), st.integers(1, 7))
    def test_pack_bits_matches_per_byte(self, seed, full_bytes, extra):
        rng = random.Random(seed)
        for n in (8 * full_bytes, 8 * full_bytes + extra):
            w = "".join(rng.choice("01") for _ in range(n))
            assert pack_bits(w) == pack_ref(w)


class TestOnePushPerRead:
    """Codecs see a word in one push, and a tracker's bits once per read."""

    N = 32768

    @pytest.fixture
    def pushes(self, monkeypatch):
        counts = {}
        for codec in DEFAULT_CODECS:
            cls, counts[codec.name] = type(codec), 0

            def counted(self, bits, real=cls.push, name=codec.name):
                counts[name] += 1
                return real(self, bits)

            monkeypatch.setattr(cls, "push", counted)
        return counts

    def test_whole_word_estimate(self, pushes):
        EST.upper(structured_words(self.N, 13)["iid"], len(DEFAULT_CODECS))
        assert pushes == {c.name: 1 for c in DEFAULT_CODECS}

    def test_tracker_read_every_256_bits(self, pushes):
        word = structured_words(self.N, 13)["run-length"]
        tr = EST.tracker()
        for i, ch in enumerate(word, 1):
            tr.push(ch)
            if i % 256 == 0:
                tr.upper(self.N)
        assert pushes == {c.name: self.N // 256 for c in DEFAULT_CODECS}

    def test_unread_tracker_buffers_a_bounded_run(self, pushes):
        tr = EST.tracker()
        for ch in structured_words(self.N, 13)["cyclic"]:
            tr.push(ch)
        want = self.N // TRACKER_BUFFER_BITS
        assert pushes == {c.name: want for c in DEFAULT_CODECS}
        tr.upper(1)
        assert pushes == {c.name: want for c in DEFAULT_CODECS}  # nothing was left over


class TestDeficiency:
    def test_uniform_is_length_minus_estimate(self):
        t = table_with(uniform())
        for w in ("0101", "0" * 40, "01101001"):
            d = deficiency(t, EST, 0, w, 100)
            assert d == len(w) - EST.upper(w, 100)

    def test_zero_mass_sentinel(self):
        t = table_with(bernoulli(F(1)))
        assert deficiency(t, EST, 0, "01", 100) == INFINITE_DEFICIENCY

    def test_stage_starved_floor(self):
        t = ProgramTable()
        t.add(StubEntry("measure"))
        d = deficiency(t, EST, 0, "0101", 50)
        assert d == -EST.upper("0101", 50)

    def test_monotone_in_stage_for_exact(self):
        t = table_with(bernoulli(F(1, 3)))
        w = "00101" * 8
        prev = None
        for s in range(40, 46):
            d = deficiency(t, EST, 0, w, s)
            if prev is not None:
                assert d >= prev
            prev = d

    def test_ball_deficiency(self):
        empty = BernoulliCylinderBall(Interval.unit(), 0)
        assert deficiency_ball(empty, EST, "0101", 9) == -EST.upper("0101", 9)
        pinned = BernoulliCylinderBall(Interval.exact(F(1, 2)), 6)
        d = deficiency_ball(pinned, EST, "010101", 9)
        assert d == 6 - EST.upper("010101", 9)

    def test_tighter_ball_never_decreases(self):
        wide = BernoulliCylinderBall(Interval.closed(F(1, 4), F(3, 4)), 6)
        tight = BernoulliCylinderBall(Interval.closed(F(3, 8), F(5, 8)), 6)
        for w in ("0", "011", "010101"):
            assert deficiency_ball(tight, EST, w, 9) >= deficiency_ball(wide, EST, w, 9)


class TestRandomVerdict:
    def test_infinite_threshold(self):
        t = table_with(bernoulli(F(1, 3)))
        assert random_verdict(t, EST, 0, "0" * 64, INFINITE_DEFICIENCY)

    def test_constant_stream_fails_uniform(self):
        t = table_with(uniform())
        assert not random_verdict(t, EST, 0, "0" * 2048, 32)

    def test_samples_pass_own_measure(self):
        t = table_with(bernoulli(F(1, 3)))
        ok = sum(
            random_verdict(t, EST, 0, sample_stream(bernoulli(F(1, 3)), seed, 2048), 48)
            for seed in range(20)
        )
        assert ok >= 19

    def test_discrimination(self):
        t = table_with(bernoulli(F(2, 3)))
        hits = 0
        for seed in range(10):
            x = sample_stream(bernoulli(F(1, 3)), seed, 2048)
            if max_prefix_deficiency(t, EST, 0, x) > 64:
                hits += 1
        assert hits == 10


# Outputs recorded from the earlier, separately written walks (one whole-word
# deficiency per prefix) and the earlier two-layer codecs; they must not move.
PINNED_WALK_SHA256 = {
    # seed: (against bernoulli(1/3), against bernoulli(2/3))
    0: (
        "468f0612275d5ba8a325b9bb5592dbd5b4a8c5983f2df80d9893adb8866986bb",
        "25f97ed34af7e72d2d74e6328f275eeeec52675968f165278b9da145dd936b7b",
    ),
    1: (
        "308eda2567c50d6b041197b43e8417e0de58f92810c6c29285470aea21a78486",
        "cb884c2f00dc5992fae0142cc0fd01246620b050382a86175c45c2cd38869855",
    ),
    2: (
        "735e92441af12d96edfbbf93ce9e25a3aaf8fd1b4397c42c4b46e6e7af6e28be",
        "40ba118e0eec7f69446f7edbdc91c84299a5bc61af1950f514108145fac3fbe0",
    ),
}

# Recorded from the earlier per-prefix walk and whole-word masses; they must not move.
PINNED_STREAM_SHA256 = {
    # sha256 of sample_stream(measure, 0, 512)
    "interleave": "aaede984a014daabf2899e8da5776a73f0d4b1ebd19f11e7bbdb1e2e42227357",
    "uniform": "b7ece453fa1bf00b5eddc270729e2a81da1c6c9175129e301675d2875abd204f",
    "dirac": "cc01e7ad6265f87d2091ad51cfefa2b2aed546815bfbb6ce68e543ff4f7eb2d1",
}

PINNED_ENTRY_WALK_SHA256 = {
    # the interleave measure on its own stream, the other two on bernoulli(1/3)'s
    "interleave": "98a08379df1c488f9ada2ec88684ce489d59f70b4fe72fb67a65750a9c25ddf0",
    "bernoulli-delay-100": "f36e89c3ad75b69d9ddef1cd8f46759f2b9a8917e02ef56d532ee34a9781a4a1",
    "bernoulli-lift": "468f0612275d5ba8a325b9bb5592dbd5b4a8c5983f2df80d9893adb8866986bb",
}


def pinned_measures():
    return {
        "interleave": interleave_measure(BitSource.hat_rational(F(2, 5))),
        "uniform": uniform(),
        "dirac": dirac(BitSource.periodic("011")),
    }


PINNED_CODEC_COSTS = {
    # word: (literal, run-length, pattern, kt, zlib-block)
    "0" * 1000: (1032, 28, 29, 14, 336),
    "011" * 333: (1031, 1341, 31, 931, 351),
    "".join(str(bin(i).count("1") % 2) for i in range(1024)): (1056, 1374, 798, 1038, 272),
    "".join(b * k for k in range(1, 40) for b in "01"): (1592, 639, 1590, 1574, 792),
}


class TestPinnedCorpus:
    def test_prefix_deficiencies(self):
        t = table_with(bernoulli(F(1, 3)), bernoulli(F(2, 3)))
        for seed, want in PINNED_WALK_SHA256.items():
            x = sample_stream(bernoulli(F(1, 3)), seed, 512)
            for e in (0, 1):
                seq = list(prefix_deficiencies(t, EST, e, x))
                assert len(seq) == len(x) + 1
                for n in (0, 1, 255, len(x)):
                    assert seq[n] == deficiency(t, EST, e, x[:n], len(x))
                got = hashlib.sha256(",".join(map(str, seq)).encode()).hexdigest()
                assert got == want[e]

    def test_codec_costs(self):
        for word, want in PINNED_CODEC_COSTS.items():
            assert tuple(c.cost(word) for c in DEFAULT_CODECS) == want

    def test_sampled_streams(self):
        for name, mu in pinned_measures().items():
            x = sample_stream(mu, 0, 512)
            assert hashlib.sha256(x.encode()).hexdigest() == PINNED_STREAM_SHA256[name]

    def test_entry_walks(self):
        mu = pinned_measures()["interleave"]
        t = ProgramTable()
        t.add(ExactMeasureEntry(mu))
        t.add(ExactMeasureEntry(bernoulli(F(1, 3)), delay=100))
        lift = t.bernoulli_lift(t.add(RealEntry(BitSource.rational(F(1, 3)))))
        xi = sample_stream(mu, 0, 512)
        xb = sample_stream(bernoulli(F(1, 3)), 0, 512)
        walks = {
            "interleave": (0, xi),  # exact rule walk
            "bernoulli-delay-100": (1, xb),  # exact up to 412 bits, then sup 1
            "bernoulli-lift": (lift, xb),  # per-prefix knowledge fallback
        }
        for name, (e, x) in walks.items():
            seq = list(prefix_deficiencies(t, EST, e, x))
            assert len(seq) == len(x) + 1
            for n in (0, 1, 255, 412, 413, len(x)):
                assert seq[n] == deficiency(t, EST, e, x[:n], len(x))
            got = hashlib.sha256(",".join(map(str, seq)).encode()).hexdigest()
            assert got == PINNED_ENTRY_WALK_SHA256[name]


class TestOneStepPerBit:
    """Exact measures sample and walk from their p0 rule alone: no whole-word
    mass, and the bits are checked a fixed number of times whatever n is."""

    def test_no_mass_and_constant_checks(self, monkeypatch):
        def no_mass(self, word):
            raise AssertionError("Measure.mass called")

        calls = [0]

        def counting_check_bits(word):
            calls[0] += 1
            return check_bits(word)

        monkeypatch.setattr(Measure, "mass", no_mass)
        for mod in (cantor, measures, programs, randomness):
            monkeypatch.setattr(mod, "check_bits", counting_check_bits)
        mus = (bernoulli(F(1, 3)), interleave_measure(BitSource.hat_rational(F(2, 5))))
        checks = {}
        for n in (256, 1024):
            calls[0] = 0
            for mu in mus:
                t = table_with(mu)
                x = sample_stream(mu, 0, n)
                assert len(x) == n
                assert random_verdict(t, EST, 0, x, 48)
                assert max_prefix_deficiency(t, EST, 0, x) <= 48
            checks[n] = calls[0]
        assert checks[256] == checks[1024]
