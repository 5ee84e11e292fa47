"""The benchmark's workloads: seeded inputs, set-up, the fixed op list, output checks.

Inputs are made here from the workload seed; the program only ever sees the
generated words, seeds and rationals.  Every op calls the program through the
module attribute at call time (``mods.randomness.random_verdict(...)``) so a
tracer patched onto the module sees it.

Each set-up imports ``cantorlearn`` afresh, so every round starts from cold
module-level state and empty caches, as a new user process would.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

PACKAGE = "cantorlearn"
LAYERS = ("cantor", "measures", "programs", "randomness")

# the acceptance threshold used by the randomness tests
C = 48

# codec-long reads the tracker's upper bound every this many bits
READ_EVERY = 256


def fresh_import(src: Path) -> SimpleNamespace:
    """Import the four layers of ``cantorlearn`` from ``src``, dropping any earlier copy."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    mods = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS})
    where = Path(mods.cantor.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"{PACKAGE} was imported from {where}, not from {src}")
    return mods


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def is_bits(x, n: int) -> bool:
    return isinstance(x, str) and len(x) == n and not x.strip("01")


def hat_expansion(v: F, n: int) -> str:
    """First n bits of the hat coding (0 -> 01, 1 -> 10) of v's binary expansion."""
    p, q = v.numerator, v.denominator
    blocks = []
    for i in range((n + 1) // 2):
        z = (p << (i + 1)) // q % 2
        blocks.append("10" if z else "01")
    return "".join(blocks)[:n]


def ceil_log2_ratio(num: int, den: int) -> int:
    """Smallest k >= 0 with num * 2^k >= den."""
    k = 0
    while (num << k) < den:
        k += 1
    return k


@dataclass
class Op:
    """One timed call.  ``check`` and ``record`` run after the round, untimed."""

    kind: str
    key: str
    call: Callable[[dict], object]  # outputs of earlier ops -> result
    check: Callable[[object, dict], bool]  # (result, all outputs) -> correct?
    record: Optional[Callable[[object], object]] = None  # result -> reference value


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    walk = ""  # the op kind reported as walk_ms
    probe = ""  # the op kind reported as probe_ms

    def __init__(self, seed: int, src: Path):
        self.seed = seed
        self.src = src
        self.rng = random.Random(f"{self.name}:{seed}")
        self.default_sizes = True

    def setup(self):
        return self.build(fresh_import(self.src))

    def build(self, mods):
        raise NotImplementedError

    def ops(self, ctx) -> list[Op]:
        raise NotImplementedError


class VerdictBernoulli(Workload):
    """The main user path: sample Bernoulli(1/3) streams and judge them three ways."""

    name = "verdict-bernoulli"
    kinds = ("sample", "accept", "reject", "maxdef")
    walk, probe = "accept", "reject"

    def __init__(self, seed, src, streams: int = 8, bits: int = 2048):
        super().__init__(seed, src)
        self.default_sizes = (streams, bits) == (8, 2048)
        self.bits = bits
        self.stream_seeds = [self.rng.randrange(1 << 31) for _ in range(streams)]

    def build(self, mods):
        ms, pg = mods.measures, mods.programs
        true, wrong = ms.bernoulli(F(1, 3)), ms.bernoulli(F(2, 3))
        table = pg.ProgramTable()
        own = table.add(pg.ExactMeasureEntry(true))
        bad = table.add(pg.ExactMeasureEntry(wrong))
        est = mods.randomness.ComplexityEstimator()
        return SimpleNamespace(mods=mods, mu=true, table=table, own=own, bad=bad, est=est)

    def ops(self, ctx) -> list[Op]:
        m, n = ctx.mods, self.bits
        out = []
        for i, s in enumerate(self.stream_seeds):
            k = f"{i}."
            out += [
                Op(
                    "sample",
                    k + "sample",
                    lambda o, s=s: m.measures.sample_stream(ctx.mu, s, n),
                    lambda x, o: is_bits(x, n),
                    sha256_text,
                ),
                Op(
                    "accept",
                    k + "accept",
                    lambda o, k=k: m.randomness.random_verdict(ctx.table, ctx.est, ctx.own, o[k + "sample"], C),
                    lambda v, o: v is True,
                    bool,
                ),
                Op(
                    "reject",
                    k + "reject",
                    lambda o, k=k: m.randomness.random_verdict(ctx.table, ctx.est, ctx.bad, o[k + "sample"], C),
                    lambda v, o, k=k: v is False and v == (o[k + "maxdef"] <= C),
                    bool,
                ),
                Op(
                    "maxdef",
                    k + "maxdef",
                    lambda o, k=k: m.randomness.max_prefix_deficiency(ctx.table, ctx.est, ctx.bad, o[k + "sample"]),
                    lambda d, o: isinstance(d, int),
                    int,
                ),
            ]
        return out


def iid_bits(rng: random.Random, n: int, p0: float = 1 / 3) -> str:
    return "".join("0" if rng.random() < p0 else "1" for _ in range(n))


def geometric_runs(rng: random.Random, n: int, mean: int) -> str:
    runs, total, bit = [], 0, rng.choice("01")
    while total < n:
        length = 1
        while rng.random() >= 1 / mean:
            length += 1
        runs.append(bit * length)
        total += length
        bit = "1" if bit == "0" else "0"
    return "".join(runs)[:n]


class CodecLong(Workload):
    """Long words whose structure makes a different codec win each time."""

    name = "codec-long"
    kinds = ("deficiency", "track")
    walk, probe = "track", "deficiency"

    def __init__(self, seed, src, bits: int = 32768, cycle: int = 1000, run_mean: int = 64):
        super().__init__(seed, src)
        self.default_sizes = (bits, cycle, run_mean) == (32768, 1000, 64)
        rng = self.rng
        cyc = iid_bits(rng, cycle, 0.5)
        half = iid_bits(rng, bits // 2)
        # four kinds, four winning codecs: kt, pattern, run-length, zlib-block
        self.words = {
            "iid": iid_bits(rng, bits),
            "cycle": (cyc * (bits // cycle + 1))[:bits],
            "runs": geometric_runs(rng, bits, run_mean),
            "hat": "".join("10" if b == "1" else "01" for b in half),
        }
        self.ball_param = (F(1, 4), F(3, 8))
        self.ball_level = 64
        self.sup_bits = {kind: self._sup_bits(w) for kind, w in self.words.items()}

    def _sup_bits(self, word: str) -> int:
        """ceil(-log2 sup_q q^zeros (1-q)^ones) over the ball's parameter interval and level."""
        probe = word[: self.ball_level]
        a, b = probe.count("0"), len(probe) - probe.count("0")
        lo, hi = self.ball_param
        qs = [lo, hi]
        if a + b and lo < F(a, a + b) < hi:
            qs.append(F(a, a + b))
        u = max(q**a * (1 - q) ** b for q in qs)
        return ceil_log2_ratio(u.numerator, u.denominator)

    def build(self, mods):
        ms = mods.measures
        ball = ms.BernoulliCylinderBall(ms.Interval(*self.ball_param), level=self.ball_level)
        return SimpleNamespace(mods=mods, ball=ball, est=mods.randomness.ComplexityEstimator())

    def ops(self, ctx) -> list[Op]:
        m, every = ctx.mods, READ_EVERY
        header = getattr(m.randomness, "LITERAL_HEADER", 32)

        def track(word):
            tracker, ups, n = ctx.est.tracker(), [], len(word)
            for i, ch in enumerate(word, 1):
                tracker.push(ch)
                if i % every == 0:
                    ups.append(tracker.upper(n))
            return ups

        def track_ok(ups, word):
            # the literal codec caps every estimate at |prefix| + its header
            return len(ups) == len(word) // every and all(
                isinstance(u, int) and u <= (j + 1) * every + header for j, u in enumerate(ups)
            )

        out = []
        for kind, w in self.words.items():
            out += [
                Op(
                    "deficiency",
                    kind + ".deficiency",
                    lambda o, w=w: m.randomness.deficiency_ball(ctx.ball, ctx.est, w, len(w)),
                    # whole-word codec costs agree with the incremental tracker's last read
                    lambda d, o, kind=kind: d == self.sup_bits[kind] - o[kind + ".track"][-1],
                    int,
                ),
                Op(
                    "track",
                    kind + ".track",
                    lambda o, w=w: track(w),
                    lambda ups, o, w=w: track_ok(ups, w),
                    lambda ups: sha256_text(json.dumps(ups)),
                ),
            ]
        return out


class FbMap:
    """Copy of ``FbMap`` in tests/test_programs.py: the parameter interval
    [0.w, 0.w + 2^-|w|] pinned to level |w| // 3, built on one imported module set."""

    name = "fb-hat"

    def __init__(self, mods):
        self.measures = mods.measures
        self.domain = mods.cantor.ClosedClass.hat_image()

    def star(self, word):
        ms = self.measures
        lo = F(int(word, 2), 1 << len(word)) if word else F(0)
        return ms.BernoulliCylinderBall(
            ms.Interval(lo, min(F(1), lo + F(1, 1 << len(word)))), level=len(word) // 3
        )


class TransferHat(Workload):
    """The paper's two reductions on hat-coded rational reals, plus the stub stall."""

    name = "transfer-hat"
    kinds = ("sample", "accept", "lift", "stall")
    walk, probe = "lift", "stall"
    VALUES = (F(1, 3), F(2, 5), F(2, 3), F(5, 7))

    def __init__(
        self,
        seed,
        src,
        sample_bits: int = 512,
        prefix_bits: int = 32,
        stages: tuple[int, ...] = tuple(range(8, 193, 8)),
        stalls: int = 2,
        stall_range: tuple[int, int] = (64, 512),
        min_bits_at: Optional[dict] = None,
    ):
        super().__init__(seed, src)
        self.default_sizes = (sample_bits, prefix_bits, stages, stalls, stall_range) == (
            512, 32, tuple(range(8, 193, 8)), 2, (64, 512),
        )
        self.sample_bits = sample_bits
        self.prefix_bits = prefix_bits
        self.stages = stages
        # as in test_round_trip_24_bits: 24 bits are back by stage 160
        self.min_bits_at = {160: 24} if min_bits_at is None else min_bits_at
        self.stream_seeds = [self.rng.randrange(1 << 31) for _ in self.VALUES]
        # stages >= 64 take the stub's inverse lift to its depth cap and past its frontier cap
        self.stall_stages = sorted(self.rng.sample(range(*stall_range), stalls))
        self.truth = [hat_expansion(v, max(sample_bits, prefix_bits)) for v in self.VALUES]

    def build(self, mods):
        cn, ms, pg = mods.cantor, mods.measures, mods.programs
        fb, hat = FbMap(mods), cn.ClosedClass.hat_image()
        table = pg.ProgramTable()
        rows = []
        for v in self.VALUES:
            src = cn.BitSource.hat_rational(v)
            mu = ms.interleave_measure(src)
            own = table.add(pg.ExactMeasureEntry(mu))
            real = table.add(pg.RealEntry(src))
            back = table.inverse_lift(fb, hat, table.param_lift(fb, real))
            rows.append(SimpleNamespace(mu=mu, own=own, back=back))
        stub = table.add(pg.StubEntry("measure"))
        stalled = table.inverse_lift(fb, hat, stub)
        est = mods.randomness.ComplexityEstimator()
        return SimpleNamespace(mods=mods, table=table, rows=rows, stalled=stalled, est=est)

    def ops(self, ctx) -> list[Op]:
        m, n, t = ctx.mods, self.sample_bits, ctx.table

        def sample_ok(x, truth):
            # the interleaving measure forces the hat real onto the even positions
            return is_bits(x, n) and x[0::2] == truth[: len(x[0::2])]

        def lift_ok(prefixes, truth):
            lengths = [len(p) for p in prefixes]
            reach = dict(zip(self.stages, lengths))
            return (
                all(p == truth[: len(p)] for p in prefixes)
                and lengths == sorted(lengths)
                and all(reach.get(s, need) >= need for s, need in self.min_bits_at.items())
            )

        out = []
        for i, (row, s, truth) in enumerate(zip(ctx.rows, self.stream_seeds, self.truth)):
            k = f"{i}."
            out += [
                Op(
                    "sample",
                    k + "sample",
                    lambda o, row=row, s=s: m.measures.sample_stream(row.mu, s, n),
                    lambda x, o, truth=truth: sample_ok(x, truth),
                    sha256_text,
                ),
                Op(
                    "accept",
                    k + "accept",
                    lambda o, row=row, k=k: m.randomness.random_verdict(t, ctx.est, row.own, o[k + "sample"], C),
                    lambda v, o: v is True,
                    bool,
                ),
                Op(
                    "lift",
                    k + "lift",
                    lambda o, row=row: [t.real_prefix(row.back, self.prefix_bits, s) for s in self.stages],
                    lambda ps, o, truth=truth: lift_ok(ps, truth),
                ),
            ]
        for s in self.stall_stages:
            out.append(
                Op(
                    "stall",
                    f"stall@{s}",
                    lambda o, s=s: t.eval_real(ctx.stalled, 0, s),
                    lambda b, o: b is None,
                )
            )
        return out


WORKLOADS = {w.name: w for w in (VerdictBernoulli, CodecLong, TransferHat)}
