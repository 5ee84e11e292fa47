import hashlib
import itertools
import math
import random
import zlib
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlearn import cantor, measures, programs, randomness
from cantorlearn.cantor import BadWordError, BitSource, EndOfWordError, check_bits, hat_encode
from cantorlearn.measures import (
    BernoulliCylinderBall,
    InterleaveCylinderBall,
    Interval,
    Measure,
    ball,
    bernoulli,
    dirac,
    enumerated,
    interleave_measure,
    sample_stream,
    sampled_source,
    uniform,
)
from cantorlearn.programs import (
    EnumeratedMeasureEntry,
    ExactMeasureEntry,
    ProgramTable,
    RealEntry,
    StubEntry,
)
from cantorlearn.randomness import (
    DEFAULT_CODECS,
    INFINITE_DEFICIENCY,
    LITERAL_HEADER,
    ZLIB_BLOCK_BITS,
    ZLIB_SMALL_BYTES,
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
from test_programs import FbMap


def table_with(*measures):
    t = ProgramTable()
    for m in measures:
        t.add(ExactMeasureEntry(m))
    return t


EST = ComplexityEstimator()


class InterleaveMap:
    """The interleaving measures whose forced stream extends w: a ball no ``SupWalk`` walks."""

    name = "interleave"

    def star(self, word):
        return InterleaveCylinderBall(word)


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
        assert (t.word, t.period) == ("0110" * 5, 4)

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
        for bad in ("x", "0x1", "012", " 01", 0, None):
            with pytest.raises(BadWordError):
                tr.push(bad)
        assert tr.upper(9) == before
        # a word of any length is a push, the empty one too
        tr.push("")
        tr.push("01")
        assert tr.upper(9) == EST.upper("001", 9)

    def test_cost_rejects_non_bits(self, monkeypatch):
        # each codec coded "0a1" before: run-length in 11 bits, pattern in 15
        for codec in DEFAULT_CODECS:
            for bad in ("0a1", "x", "012", " 01", 0, b"01"):
                with pytest.raises(BadWordError):
                    codec.cost(bad)
        with pytest.raises(BadWordError):
            EST.upper("0a1", 9)
        # the estimate checks its word once, not once per codec
        checked = []
        monkeypatch.setattr(randomness, "check_bits", lambda w: checked.append(w) or check_bits(w))
        assert EST.upper("0110", 9) == min(c.cost("0110") + 2 * i for i, c in enumerate(DEFAULT_CODECS))
        assert checked == ["0110"] * (1 + len(DEFAULT_CODECS))

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
    iid = "".join("0" if rng.random() < 1 / 3 else "1" for _ in range(bits))
    return {
        "iid": iid,
        "cyclic": (cycle * (bits // 1000 + 1))[:bits],
        "run-length": "".join(runs)[:bits],
        "zeros": "0" * bits,  # the longest hash chains
        "hat": hat_encode(iid[: bits // 2]),
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


def assert_chunks_match_reference(codec, word: str, ends) -> None:
    """word pushed to a fresh codec in chunks ending at ends (the last one
    len(word)) costs what its reference says at every chunk end, and whole."""
    ref = CODEC_REFS[codec.name]
    t, start = codec.tracker(), 0
    for end in ends:
        t.push(word[start:end])
        start = end
        assert t.cost() == ref(word[:end]), (codec.name, end)
    assert codec.cost(word) == ref(word), codec.name


class TestChunkedPushes:
    """A word pushed in any chunks costs what a brute-force coder says at
    every chunk boundary."""

    @PROPERTY
    @given(words(), st.data())
    def test_codecs_match_references(self, word, data):
        ends = chunk_ends(data.draw, len(word))
        for codec in DEFAULT_CODECS:
            assert_chunks_match_reference(codec, word, ends)

    @PROPERTY
    @given(st.text("01", min_size=1, max_size=70), st.integers(1, 1500), st.data())
    def test_period_search_on_late_breaks(self, period, n, data):
        # a periodic word with one or two late flips, the first pushed alone:
        # where the pattern codec's search skips most shifts
        word = (period * n)[:n]
        i = data.draw(st.integers(n // 2, n - 1))
        word = with_break(data.draw, word[:i] + "10"[int(word[i])] + word[i + 1 :], i)
        single = data.draw(st.integers(0, n - 1))
        ends = set(chunk_ends(data.draw, n)) | {i, i + 1, single, single + 1}
        assert_chunks_match_reference(PatternCodec(), word, sorted(ends - {0}))

    @PROPERTY
    @given(st.text("01", min_size=1, max_size=4), st.integers(1, 90), st.integers(1, 90), st.data())
    def test_period_search_on_stretched_repeats(self, unit, reps, extra, data):
        # head = unit^reps + a break, then a longer run of unit and head again:
        # shifts inside the longer run match up to head's break, or end first
        head = unit * reps + data.draw(st.text("01", min_size=1, max_size=40))
        word = head + unit * extra + head[: data.draw(st.integers(0, len(head)))]
        assert_chunks_match_reference(PatternCodec(), word, chunk_ends(data.draw, len(word)))

    @PROPERTY
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(-1, 1)), min_size=1, max_size=12), st.data())
    def test_runs_around_powers_of_two(self, runs, data):
        # runs of 2^k - 1, 2^k and 2^k + 1 bits, where a gamma length steps
        first = data.draw(st.sampled_from("01"))
        word = "".join("01"[(i + int(first)) % 2] * max(1, 2**k + d) for i, (k, d) in enumerate(runs))
        assert_chunks_match_reference(RunLengthCodec(), word, chunk_ends(data.draw, len(word)))

    @PROPERTY
    @given(words(), st.data(), st.integers(1, 7))
    def test_tracker_reads_match_whole_word_estimate(self, word, data, stage):
        # a stage drawn per read leaves the codecs past a small stage behind,
        # to catch up at a larger one
        reads = set(chunk_ends(data.draw, len(word)))
        tr = EST.tracker()
        assert tr.upper(stage) == EST.upper("", stage)
        for i, ch in enumerate(word, 1):
            tr.push(ch)
            if i in reads:
                stage = data.draw(st.integers(1, 7))
                assert tr.upper(stage) == EST.upper(word[:i], stage), i
                costs = [c.cost(word[:i]) + 2 * j for j, c in enumerate(DEFAULT_CODECS)]
                for s in range(1, 8):
                    assert tr.floor(s) <= min(costs[:s]), (i, s)

    @PROPERTY
    @given(st.integers(0, 2**32), st.integers(0, 200), st.integers(1, 7))
    def test_pack_bits_matches_per_byte(self, seed, full_bytes, extra):
        rng = random.Random(seed)
        for n in (8 * full_bytes, 8 * full_bytes + extra):
            w = "".join(rng.choice("01") for _ in range(n))
            assert pack_bits(w) == pack_ref(w)


class TestZlibAgainstZlib:
    """Both compressors, the small one up to ZLIB_SMALL_BYTES packed bytes and
    the default one past them, give zlib.compress's length exactly."""

    N = 12288  # half as many bits again as the small compressor codes
    KINDS = ["iid", "cyclic", "run-length", "zeros", "hat"]
    SWITCH = 0 if "zlib-ng" in zlib.ZLIB_RUNTIME_VERSION else 8192  # the bits it codes

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_boundaries_match_zlib_compress(self, kind):
        word = structured_words(self.N, 12)[kind]
        t = ZlibBlockCodec().tracker()
        prev = t.cost()
        for i, ch in enumerate(word, 1):
            t.push(ch)
            if i % 256 == 0:
                assert t.cost() == 8 * len(zlib.compress(pack_bits(word[:i]), 9)) + 8, i
                assert (t.packed is None) == (i > self.SWITCH), i
            else:
                assert t.cost() == prev + 1, i
            prev = t.cost()

    @settings(PROPERTY, max_examples=25)
    @given(st.sampled_from(KINDS), st.integers(0, 2**32), st.integers(8448, 14000), st.data())
    def test_chunks_straddling_the_switch(self, kind, seed, n, data):
        # one push, over bits a to b, takes the packed blocks from at most 1024 bytes to more
        word = structured_words(n, seed)[kind]
        a, b = data.draw(st.integers(1, 8191)), data.draw(st.integers(8448, n))
        ends = {e for e in chunk_ends(data.draw, n) if not a < e < b} | {a, b}
        assert_chunks_match_reference(ZlibBlockCodec(), word, sorted(ends))

    def test_repeat_past_the_small_window(self):
        # a repeat 2048 bytes back, past the 1786 bytes a window of 2^11 reaches
        half = structured_words(16384, 15)["iid"]
        assert ZlibBlockCodec().cost(half + half) == 8 * len(zlib.compress(pack_bits(half + half), 9)) + 8

    def test_default_compressor_alone_gives_the_same_costs(self, monkeypatch):
        # as under zlib-ng, where the default compressor codes every block
        corpus = [*PINNED_CODEC_COSTS, *structured_words(self.N, 14).values()]

        def costs():
            out, small_at_end = [], []
            for word in corpus:
                t = ZlibBlockCodec().tracker()
                for start in range(0, len(word), 300):
                    t.push(word[start : start + 300])
                    out.append(t.cost())
                out.append(ZlibBlockCodec().cost(word))
                small_at_end.append(t.packed is not None)
            return out, small_at_end

        got, small_at_end = costs()
        assert small_at_end == [len(w) <= 8 * ZLIB_SMALL_BYTES for w in corpus]
        monkeypatch.setattr(randomness, "ZLIB_SMALL_BYTES", 0)
        assert costs() == (got, [False] * len(corpus))
        assert [ZlibBlockCodec().cost(w) for w in PINNED_CODEC_COSTS] == [c[4] for c in PINNED_CODEC_COSTS.values()]


class TestOnePushPerRead:
    """Codecs see a word in one push, and a tracker's unseen bits in at most
    one push per read."""

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
        # five eager codecs, each pushed at every read, give the reference
        word = structured_words(self.N, 13)["run-length"]
        eager, want = [c.tracker() for c in DEFAULT_CODECS], []
        for start in range(0, self.N, 256):
            for t in eager:
                t.push(word[start : start + 256])
            want.append(min(t.cost() + 2 * i for i, t in enumerate(eager)))
        pushes.update(dict.fromkeys(pushes, 0))
        tr, got = EST.tracker(), []
        for i, ch in enumerate(word, 1):
            tr.push(ch)
            if i % 256 == 0:
                before = dict(pushes)
                got.append(tr.upper(self.N))
                assert all(pushes[name] - before[name] <= 1 for name in pushes)
        assert got == want
        # zlib-block's far floor is its header, so it is read every time; the
        # losing codecs catch up only when their far floors could win
        assert pushes == {"literal": 3, "run-length": 128, "pattern": 3, "kt": 4, "zlib-block": 128}

    def test_unread_tracker_pushes_no_codec(self, pushes):
        word = structured_words(self.N, 13)["cyclic"]
        tr = EST.tracker()
        for ch in word:
            tr.push(ch)
        assert pushes == {c.name: 0 for c in DEFAULT_CODECS}
        assert tr.upper(self.N) == EST.upper(word, self.N)
        # the first read pushes each codec once, all its bits: every codec's
        # floor is below the literal estimate on a fresh tracker
        assert pushes == {c.name: 2 for c in DEFAULT_CODECS}  # the tracker's push, then the estimate's
        for codec, t in zip(DEFAULT_CODECS, tr.trackers):
            assert t.cost() == codec.cost(word), codec.name


def with_break(draw, word: str, start: int) -> str:
    """word, or word with one bit at or after start flipped."""
    if start >= len(word) or not draw(st.booleans()):
        return word
    i = draw(st.integers(start, len(word) - 1))
    return word[:i] + "10"[int(word[i])] + word[i + 1 :]


class TestFloors:
    """A codec's floor, and a tracker's, is at most the exact length after any
    further chunked pushes: across runs, period breaks and zlib block ends."""

    @PROPERTY
    @given(words(), words(), st.data())
    def test_codec_floors_hold_after_further_pushes(self, head, tail, data):
        word = with_break(data.draw, head + tail, len(head))
        for codec in DEFAULT_CODECS:
            t, start = codec.tracker(), 0
            for end in chunk_ends(data.draw, len(head)):
                t.push(word[start:end])
                start = end
            length = t.cost()
            near, room, far = t._floors(length)
            assert far <= near <= length, codec.name
            # chunk ends, and every block end, where a zlib tail is empty
            block_ends = range(-len(head) % ZLIB_BLOCK_BITS or ZLIB_BLOCK_BITS, len(tail), ZLIB_BLOCK_BITS)
            for end in sorted(set(chunk_ends(data.draw, len(tail))) | set(block_ends)):
                t.push(word[start : len(head) + end])
                start = len(head) + end
                assert t.cost() >= (near if end < room else far), (codec.name, end)

    @PROPERTY
    @given(words(), words(), st.data())
    def test_tracker_floor_bounds_every_later_estimate(self, head, tail, data):
        word = with_break(data.draw, head + tail, len(head))
        reads = set(chunk_ends(data.draw, len(word)))
        checks = set(chunk_ends(data.draw, len(word)))
        tr = EST.tracker()
        for i, ch in enumerate(word, 1):
            tr.push(ch)
            if i in checks:
                costs = [c.cost(word[:i]) for c in DEFAULT_CODECS]
                for stage in range(1, len(DEFAULT_CODECS) + 2):
                    exact = min(costs[j] + 2 * j for j in range(min(stage, len(costs))))
                    assert tr.floor(stage) <= exact, (i, stage)
            if i in reads:
                stage = data.draw(st.integers(1, 7))
                assert tr.floor(stage) <= tr.upper(stage)

    @pytest.mark.parametrize("stage", [0, -1])
    def test_floor_rejects_bad_stage(self, stage):
        with pytest.raises(ValueError):
            EST.tracker().floor(stage)


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

    def test_ball_deficiency_checks_its_word_once(self, monkeypatch):
        # the sup was read first: the interleave ball gave "a0" an infinite deficiency, the
        # Bernoulli ball read "0a" as one zero, and the explicit ball raised a bare KeyError on "a"
        balls = (
            InterleaveCylinderBall("01"),
            BernoulliCylinderBall(Interval.closed(F(1, 4), F(1, 2)), 2),
            ball([("0", Interval.closed(F(1, 4), F(1, 2)))]),
        )
        for b in balls:
            for bad in ("a0", "0a", "a", " 01", 0, None):
                with pytest.raises(BadWordError):
                    deficiency_ball(b, EST, bad, 9)
        calls = [0]

        def counting_check_bits(word):
            calls[0] += 1
            return check_bits(word)

        word = sample_stream(bernoulli(F(1, 3)), 0, 4096)
        want = [deficiency_ball(b, EST, word, 9) for b in balls]
        for mod in (cantor, measures, randomness):
            monkeypatch.setattr(mod, "check_bits", counting_check_bits)
        for b, d in zip(balls, want):
            calls[0] = 0
            assert deficiency_ball(b, EST, word, 9) == d
            assert calls[0] == 1

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


HAT_TWO_FIFTHS = BitSource.hat_rational(F(2, 5))


def shortcut_tables():
    """(table, index) for each entry kind the walk meets."""
    half = Interval.closed(F(1, 3), F(1, 2))
    rows = [
        ("", Interval.exact(1), 0),
        ("0", half, 1),
        ("1", half, 1),
        ("01", Interval.exact(0), 2),  # a zero sup: infinite deficiency
        ("00", Interval.closed(F(1, 8), F(1, 4)), 3),
    ]
    entries = {
        "bernoulli": ExactMeasureEntry(bernoulli(F(1, 3))),
        "bernoulli-extreme": ExactMeasureEntry(bernoulli(F(1, 1000))),
        "uniform": ExactMeasureEntry(uniform()),
        "exact-delay": ExactMeasureEntry(bernoulli(F(1, 3)), delay=2),
        "zero-mass": ExactMeasureEntry(bernoulli(F(1))),
        "dirac": ExactMeasureEntry(dirac(BitSource.periodic("01"))),
        "interleave": ExactMeasureEntry(interleave_measure(HAT_TWO_FIFTHS)),
        "enumerated": EnumeratedMeasureEntry(enumerated(rows)),
        "stub": StubEntry("measure"),
    }
    out = {}
    for name, entry in entries.items():
        t = ProgramTable()
        out[name] = t, t.add(entry)
    for name, real in (
        ("bernoulli-lift", RealEntry(BitSource.rational(F(2, 5)))),
        ("partial-lift", RealEntry(BitSource.rational(F(1, 3)), diverge_from=3)),
    ):
        t = ProgramTable()
        out[name] = t, t.bernoulli_lift(t.add(real))
    for name, param_map, source in (
        ("fb-lift", FbMap(), BitSource.rational(F(2, 5))),  # a SupWalk held from its level
        ("interleave-lift", InterleaveMap(), HAT_TWO_FIFTHS),  # the per-prefix knowledge walk
    ):
        t = ProgramTable()
        out[name] = t, t.param_lift(param_map, t.add(RealEntry(source)))
    return out


# the interleave entry's and lift's forced bits are the hat bits of 2/5, which the last word follows
SHORTCUT_WORDS = [
    "".join(w) for n in range(6) for w in itertools.product("01", repeat=n)
] + [
    sample_stream(bernoulli(F(1, 3)), 3, 200),
    sample_stream(bernoulli(F(2, 5)), 4, 200),
    "0" * 200,
    sample_stream(interleave_measure(HAT_TWO_FIFTHS), 5, 200),
]

# a word that follows the forced bits of 2/5's hat expansion, and copies leaving them at the first,
# a middle and the last even position; a delay cuts the known bits (64 - delay at stage 64) before
# or after a copy's leave
FOLLOWS = sample_stream(interleave_measure(HAT_TWO_FIFTHS), 5, 64)
LEAVES = {j: FOLLOWS[:j] + "10"[int(FOLLOWS[j])] + FOLLOWS[j + 1 :] for j in (0, 30, 62)}


class TestVerdictShortcuts:
    """random_verdict and max_prefix_deficiency read the estimate only where
    it can change their answer, and answer as a read at every prefix would."""

    @pytest.mark.parametrize("name", sorted(shortcut_tables()))
    def test_equal_to_every_prefix_deficiency(self, name):
        t, e = shortcut_tables()[name]
        for x in SHORTCUT_WORDS:
            defs = list(prefix_deficiencies(t, EST, e, x))
            assert max_prefix_deficiency(t, EST, e, x) == max(defs), x
            for c in (-5, 0, 48, 48.5, -INFINITE_DEFICIENCY, INFINITE_DEFICIENCY, math.nan):
                assert random_verdict(t, EST, e, x, c) == all(d <= c for d in defs), (x, c)

    def test_walks_read_the_estimate_rarely(self, monkeypatch):
        counts = {"bits": 0, "upper": 0, "sups": 0}
        real_push, real_upper = randomness.EstimatorTracker.push, randomness.EstimatorTracker.upper
        real_sups = measures.BernoulliSups.bits

        def sups(self, a, n):
            counts["sups"] += 1
            return real_sups(self, a, n)

        def push(self, bits):
            counts["bits"] += len(bits)
            return real_push(self, bits)

        def upper(self, stage):
            counts["upper"] += 1
            return real_upper(self, stage)

        monkeypatch.setattr(randomness.EstimatorTracker, "push", push)
        monkeypatch.setattr(randomness.EstimatorTracker, "upper", upper)
        monkeypatch.setattr(measures.BernoulliSups, "bits", sups)
        x = sample_stream(bernoulli(F(1, 3)), 0, 2048)
        t = table_with(bernoulli(F(1, 3)), bernoulli(F(2, 3)))
        assert random_verdict(t, EST, 0, x, 48)
        # every bit is handed to the tracker once, but few reads follow; the read counts are
        # pinned, so a change to the floors that moves a read shows here; and the walk jumps,
        # so it takes ceil(-log2 sup) at few of the 2049 prefixes
        assert counts["bits"] == 2048 and counts["upper"] == 32 and counts["sups"] <= 256
        counts.update(bits=0, upper=0, sups=0)
        assert max_prefix_deficiency(t, EST, 1, x) > 64
        assert counts["bits"] == 2048 and counts["upper"] == 20 and counts["sups"] <= 128

    def test_param_lift_walks_build_no_image(self, monkeypatch):
        # a param lift over Bernoulli balls walks by zero counts, as a Bernoulli lift does: its
        # verdict builds no bernoulli_image, whose powers of a 1024-bit parameter took minutes
        counts = {"images": 0, "sups": 0}
        real_image, real_sups = measures.bernoulli_image, measures.BernoulliSups.bits

        def image(param, zeros, ones):
            counts["images"] += 1
            return real_image(param, zeros, ones)

        def sups(self, a, n):
            counts["sups"] += 1
            return real_sups(self, a, n)

        monkeypatch.setattr(measures, "bernoulli_image", image)
        monkeypatch.setattr(measures.BernoulliSups, "bits", sups)
        t = ProgramTable()
        e = t.param_lift(FbMap(), t.add(RealEntry(BitSource.rational(F(5, 17)))))
        assert random_verdict(t, EST, e, sample_stream(bernoulli(F(5, 17)), 0, 1024), 8)
        assert counts == {"images": 0, "sups": 129}


    def test_jumps_push_and_read_as_a_visit_to_every_prefix(self, monkeypatch):
        # a SupWalk's walk jumps; handed to the walk as a plain iterator, its values are visited
        # one prefix at a time, and the tracker must see the same pushes and reads in both
        events = []
        real_push, real_upper = randomness.EstimatorTracker.push, randomness.EstimatorTracker.upper

        def push(self, bits):
            events.append(len(bits))
            return real_push(self, bits)

        def upper(self, stage):
            events.append("read")
            return real_upper(self, stage)

        monkeypatch.setattr(randomness.EstimatorTracker, "push", push)
        monkeypatch.setattr(randomness.EstimatorTracker, "upper", upper)
        t = table_with(bernoulli(F(1, 3)), bernoulli(F(2, 3)), bernoulli(F(1, 1000)), uniform())
        lift = t.bernoulli_lift(t.add(RealEntry(BitSource.rational(F(2, 5)))))
        param_lift = t.param_lift(FbMap(), t.add(RealEntry(BitSource.rational(F(1, 3)))))
        real_walk = ProgramTable.prefix_sup_bits
        for seed in range(2):
            x = sample_stream(bernoulli(F(1, 3)), seed, 2048)
            for e in (0, 1, 2, 3, lift, param_lift):
                calls = [partial(random_verdict, t, EST, e, x, c) for c in (-5, 48, 400)]
                for call in calls + [partial(max_prefix_deficiency, t, EST, e, x)]:
                    runs = []
                    for every_prefix in (False, True):
                        events.clear()
                        with monkeypatch.context() as m:
                            if every_prefix:
                                m.setattr(ProgramTable, "prefix_sup_bits", lambda *a: iter(list(real_walk(*a))))
                            runs.append((call(), list(events)))
                    assert runs[0] == runs[1], (seed, e)

    @pytest.mark.parametrize("delay", [0, 1, 2, 33, 34, 63, 64, 65])
    def test_interleave_walks_stop_jumping_at_a_leave(self, delay):
        t = ProgramTable()
        e = t.add(ExactMeasureEntry(interleave_measure(HAT_TWO_FIFTHS), delay=delay))
        known = len(FOLLOWS) - delay
        for leave, x in [(math.inf, FOLLOWS), *LEAVES.items()]:
            walk = t.prefix_sup_bits(e, x, len(x))
            # step 1 while no inf is revealed, else inf: a jump never passes the first inf
            assert isinstance(walk, measures.SupWalk) and walk.step == (1 if known <= leave else math.inf)
            # the reference reads each prefix's mass whole, through eval_measure, not the walk
            defs = [deficiency(t, EST, e, x[:n], len(x)) for n in range(len(x) + 1)]
            assert max_prefix_deficiency(t, EST, e, x) == max(defs), leave
            for c in (-5, 0, 8, 48, 48.5, -INFINITE_DEFICIENCY, INFINITE_DEFICIENCY, math.nan):
                assert random_verdict(t, EST, e, x, c) == all(d <= c for d in defs), (leave, c)

    def test_an_infinite_maximum_ends_the_walk(self):
        # a zero mass read, then a sup of 1 past the delay's cut: the walk used to jump on from an
        # infinite maximum and raised ValueError from int(nan)
        for measure in (bernoulli(F(1)), interleave_measure(HAT_TWO_FIFTHS)):
            t = table_with(measure)
            t.entries[0].delay = 4
            x = "1" + "0" * 30
            assert max_prefix_deficiency(t, EST, 0, x) == max(prefix_deficiencies(t, EST, 0, x)) == math.inf

    @settings(PROPERTY, max_examples=150)
    @given(st.data())
    def test_interleave_walk_equals_its_mass_bits(self, data):
        den = data.draw(st.integers(1, 40))
        value = F(data.draw(st.integers(0, den)), den)
        z = data.draw(
            st.sampled_from(
                [
                    BitSource.rational(value),
                    BitSource.hat_rational(value),
                    sampled_source(bernoulli(value), 3),
                    sampled_source(interleave_measure(BitSource.rational(value)), 4),
                ]
            )
        )
        mu = interleave_measure(z)
        x = sample_stream(mu, data.draw(st.integers(0, 9)), data.draw(st.integers(0, 300)))
        for j in data.draw(st.lists(st.integers(0, max(0, len(x) - 1)), max_size=2)) if x else ():
            x = x[:j] + "10"[int(x[j])] + x[j + 1 :]  # leaves z where j is even
        stage, delay = data.draw(st.integers(0, len(x) + 5)), data.draw(st.integers(0, 12))
        known = stage - delay
        # the reference reads z one bit at a time, through a literal holding z's prefix
        ref = interleave_measure(BitSource.literal(z.prefix(len(x) // 2 + 1)))
        want = list(ref.mass_bits(x[:known])) if known >= 0 else []
        want += [0] * (len(x) + 1 - len(want))
        t = ProgramTable()
        e = t.add(ExactMeasureEntry(mu, delay=delay))
        assert list(t.prefix_sup_bits(e, x, stage)) == want
        walk = t.prefix_sup_bits(e, x, stage)
        assert [walk[n] for n in reversed(range(len(x) + 1))] == want[::-1]
        walk = t.prefix_sup_bits(e, x, stage)
        at = data.draw(st.lists(st.integers(0, len(x)), max_size=30))
        assert [walk[n] for n in at] == [want[n] for n in at]
        assert all(b <= a + walk.step for a, b in itertools.pairwise(want))  # a jump's bound holds
        for n in (-1, len(x) + 1):
            with pytest.raises(IndexError):
                walk[n]

    def test_interleave_accepts_read_by_prefix(self, monkeypatch):
        # an own-measure accept of a 512-bit sample reads z's prefix once, never bit by bit
        mu = interleave_measure(BitSource.hat_rational(F(2, 5)))
        x = sample_stream(mu, 5, 512)
        counts = {"bit": 0, "prefix": 0}
        real_bit, real_prefix = BitSource.bit, BitSource.prefix

        def bit(self, i):
            counts["bit"] += 1
            return real_bit(self, i)

        def prefix(self, n):
            counts["prefix"] += self.kind == "hat-rational"
            return real_prefix(self, n)

        monkeypatch.setattr(BitSource, "bit", bit)
        monkeypatch.setattr(BitSource, "prefix", prefix)
        assert random_verdict(table_with(mu), EST, 0, x, 48)
        assert counts == {"bit": 0, "prefix": 1}

    def test_interleave_over_a_literal_ends_where_it_did(self):
        # a literal has no one-step prefix, so its forced bits are read one at a time and a read
        # past its end raises at the call it always did: bit 4 reads z(2) of "01"
        mu = interleave_measure(BitSource.literal("01"))
        assert sample_stream(mu, 0, 4) == "0111"
        with pytest.raises(EndOfWordError):
            sample_stream(mu, 0, 5)
        t = table_with(mu)
        walk = t.prefix_sup_bits(0, "0110011", 7)
        assert list(itertools.islice(walk, 5)) == [0, 0, 1, 1, 2]
        with pytest.raises(EndOfWordError):
            next(walk)
        for call in (partial(random_verdict, c=-5), partial(random_verdict, c=8), max_prefix_deficiency):
            with pytest.raises(EndOfWordError):
                call(t, EST, 0, "0110011")


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
