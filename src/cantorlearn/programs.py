"""A desk-scale registry standing in for the effective enumerations of partial
computable measures and reals.

The table is a finite list of entries plus an arithmetic padding scheme that
mints unboundedly many alias indices for each entry.  Every evaluation is
stage-bounded and monotone: knowledge intervals only shrink as the stage
grows, defined real bits never change, and disjointness verdicts never
retract.  Ground-truth totality flags and configurable flip schedules simulate
the limit-computable totality oracle.
Every source, measure and entry has a JSON spec that :func:`from_spec` rebuilds,
so a manifest reloads to the same ``manifest_hash()``, except for param and
inverse lifts: their specs name a map and a domain only by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, Optional

from .cantor import BitSource, Bits, ClosedClass, check_bits
from .measures import (
    ONE,
    PRNG_NAME,
    ZERO,
    BernoulliCylinderBall,
    Interval,
    Measure,
    MeasureBall,
    MeasureView,
    Verdict,
    _words,
    bernoulli,
    bernoulli_image,
    dirac,
    enumerated_from_rows,
    interleave_measure,
    sampled_source,
    uniform,
)

# alias indices live above every registry index; see ProgramTable.pad
PAD_BASE = 1_000_000

# binary digits of a Bernoulli lift's parameter; inverse-lift candidate depth and frontier caps
LIFT_PARAM_BITS = 96
INVERSE_DEPTH_CAP = 64
INVERSE_FRONTIER_CAP = 512


class WrongKindError(TypeError):
    """A real operation was applied to a measure entry or vice versa."""


class _StageSlot:
    """Memo of ``compute(table, stage)`` for the latest stage asked only: bounded,
    yet queries at one stage, or at rising stages, compute each stage once."""

    def __init__(self, compute: Callable[["ProgramTable", int], object]):
        self.compute = compute
        self.stage: Optional[int] = None
        self.value = None

    def __call__(self, table: "ProgramTable", stage: int):
        if stage != self.stage:
            self.value, self.stage = self.compute(table, stage), stage
        return self.value


class Entry:
    """Base class for table entries; subclasses document their definedness schedule."""

    kind = "measure"  # or "real"
    total: Optional[bool] = None

    def spec(self) -> dict:
        raise NotImplementedError

    # measure entries
    def knowledge(self, table: "ProgramTable", word: Bits, stage: int) -> Interval:
        raise WrongKindError(f"{type(self).__name__} is not a measure entry")

    def prefix_sups(self, table: "ProgramTable", x: Bits, stage: int) -> Iterator[Fraction]:
        """Sup of the stage knowledge on "" and on every prefix of x."""
        return (self.knowledge(table, x[:n], stage).hi for n in range(len(x) + 1))

    def param_interval(self, table: "ProgramTable", stage: int) -> Optional[Interval]:
        """Bernoulli parameter knowledge when the entry is product-structured."""
        return None

    def defined_length(self, table: "ProgramTable", stage: int) -> int:
        """Largest m <= stage with knowledge width <= 2^-m on all strings of length <= m."""
        return 0

    # real entries
    def real_bit(self, table: "ProgramTable", j: int, stage: int) -> Optional[int]:
        raise WrongKindError(f"{type(self).__name__} is not a real entry")


@dataclass
class ExactMeasureEntry(Entry):
    """Total measure generator: reveals exact values on strings of length <= stage - delay."""

    measure: Measure
    delay: int = 0
    total = True

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    def spec(self) -> dict:
        return {"entry": "exact-measure", "measure": self.measure.spec, "delay": self.delay}

    def knowledge(self, table, word, stage):
        if len(word) <= stage - self.delay:
            return Interval.exact(self.measure.mass(word))
        return Interval.unit()

    def prefix_sups(self, table, x, stage):
        known = stage - self.delay
        if known >= 0:
            yield from self.measure.prefix_masses(x[:known])
        yield from repeat(ONE, len(x) - max(known, -1))

    def param_interval(self, table, stage):
        return self.measure.param_interval(stage)

    def defined_length(self, table, stage):
        return max(0, stage - self.delay)


@dataclass
class EnumeratedMeasureEntry(Entry):
    """Partial measure given by an explicit stage-tagged tuple enumeration."""

    measure: Measure  # enumerated-kind Measure
    total: Optional[bool] = None

    def spec(self) -> dict:
        out = {"entry": "enumerated-measure", "measure": self.measure.spec}
        if self.total is not None:
            out["total"] = self.total
        return out

    def knowledge(self, table, word, stage):
        return self.measure.knowledge(word, stage)

    def defined_length(self, table, stage):
        m = 0
        while m + 1 <= stage:
            lvl = m + 1
            ok = all(
                self.measure.knowledge(w, stage).width <= Fraction(1, 1 << lvl)
                for n in range(lvl + 1)
                for w in _words(n)
            )
            if not ok or (1 << lvl) > 4096:
                break
            m += 1
        return m


@dataclass
class StubEntry(Entry):
    """Diverging program: never reveals anything."""

    kind: str = "measure"  # or "real"
    total = False

    def spec(self) -> dict:
        return {"entry": "stub", "kind": self.kind}

    def knowledge(self, table, word, stage):
        if self.kind != "measure":
            raise WrongKindError("real stub has no measure knowledge")
        return Interval.unit()

    def real_bit(self, table, j, stage):
        if self.kind != "real":
            raise WrongKindError("measure stub has no bits")
        return None


@dataclass
class RealEntry(Entry):
    """Total or partial computable real: bit j defined once stage >= j + delay."""

    source: BitSource
    delay: int = 0
    diverge_from: Optional[int] = None  # bits at positions >= this never define
    kind = "real"

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        self.total = self.diverge_from is None

    def spec(self) -> dict:
        out = {"entry": "real", "source": self.source.spec, "delay": self.delay}
        if self.diverge_from is not None:
            out["diverge_from"] = self.diverge_from
        return out

    def real_bit(self, table, j, stage):
        if self.diverge_from is not None and j >= self.diverge_from:
            return None
        if stage >= j + self.delay:
            return self.source.bit(j)
        return None


@dataclass
class BernoulliLiftEntry(Entry):
    """Measure entry computed from a real entry's bits: the Bernoulli measure
    whose parameter has that binary expansion, known at each stage to the
    parameter-interval width set by the bits defined so far.

    Parameter knowledge is capped at LIFT_PARAM_BITS binary digits; every
    tolerance used in this laboratory sits far above 2^-96.  The parameter
    interval is kept for the latest stage asked only.
    """

    real: int

    def __post_init__(self):
        self._param = _StageSlot(self._read_param)

    def spec(self) -> dict:
        return {"entry": "bernoulli-lift", "real": self.real}

    def _read_param(self, table: "ProgramTable", stage: int) -> Interval:
        k = 0
        val = ZERO
        while k < min(stage, LIFT_PARAM_BITS):
            b = table.eval_real(self.real, k, stage)
            if b is None:
                break
            val += Fraction(b, 1 << (k + 1))
            k += 1
        return Interval(val, min(ONE, val + Fraction(1, 1 << k)))

    def param_interval(self, table, stage):
        return self._param(table, stage)

    def knowledge(self, table, word, stage):
        if len(word) > stage:
            return Interval.unit()
        p = self._param(table, stage)
        a = word.count("0")
        return bernoulli_image(p, a, len(word) - a)

    def prefix_sups(self, table, x, stage):
        # bernoulli_image(p, a, b).hi along x: q^a (1-q)^b as running products at both
        # ends of p; the interior maximum at q = a/n counts only when a/n is inside p
        p = self._param(table, stage)
        known = x[: max(stage, 0)]
        at_lo = at_hi = ONE
        a = 0
        yield ONE
        for n, ch in enumerate(known, 1):
            if ch == "0":
                a, at_lo, at_hi = a + 1, at_lo * p.lo, at_hi * p.hi
            else:
                at_lo, at_hi = at_lo * (ONE - p.lo), at_hi * (ONE - p.hi)
            crit = Fraction(a, n)
            inner = crit**a * (ONE - crit) ** (n - a) if p.lo < crit < p.hi else ZERO
            yield max(at_lo, at_hi, inner)
        yield from repeat(ONE, len(x) - len(known))

    def defined_length(self, table, stage):
        return _param_defined_length(self._param(table, stage), stage)

    def resolved_total(self, table: "ProgramTable") -> bool:
        return bool(table.entry(self.real).total)


@dataclass
class ParamLiftEntry(Entry):
    """Measure entry whose stage knowledge is the param map's ball at the
    longest defined prefix of a real entry.

    The ball is built once per stage and kept for the latest stage asked only,
    so the real's bits are read once per stage, not once per query."""

    param_map: "ParamMapLike"
    real_index: int

    def __post_init__(self):
        self._ball = _StageSlot(self._read_ball)

    def spec(self) -> dict:
        return {"entry": "param-lift", "map": self.param_map.name, "real": self.real_index}

    def _read_ball(self, table: "ProgramTable", stage: int) -> MeasureBall:
        return self.param_map.star(table.real_prefix(self.real_index, stage, stage))

    def knowledge(self, table, word, stage):
        if len(word) > stage:
            return Interval.unit()
        ball = self._ball(table, stage)
        lo = ball.inf_mass(word) if isinstance(ball, BernoulliCylinderBall) else ZERO
        return Interval(lo, min(ONE, ball.sup_mass(word)))

    def param_interval(self, table, stage):
        ball = self._ball(table, stage)
        return ball.param if isinstance(ball, BernoulliCylinderBall) else None

    def defined_length(self, table, stage):
        p = self.param_interval(table, stage)
        return 0 if p is None else _param_defined_length(p, stage)


def _param_defined_length(p: Interval, stage: int) -> int:
    """Largest m <= stage such that on every level lvl <= m the Bernoulli
    images over the parameter interval p are at most 2^-lvl wide."""
    m = 0
    while m + 1 <= stage:
        lvl = m + 1
        wmax = max(bernoulli_image(p, a, lvl - a).width for a in range(lvl + 1))
        if wmax > Fraction(1, 1 << lvl):
            break
        m += 1
    return m


class ParamMapLike:
    """Minimal protocol the table needs from a parametrization map."""

    name: str
    domain: ClosedClass

    def star(self, word: Bits) -> MeasureBall:
        raise NotImplementedError


@dataclass
class InverseLiftEntry(Entry):
    """Real entry emitting the longest common prefix of the parameter
    candidates not yet pruned against a measure entry's knowledge.

    Candidates of depth min(stage, cap) alive in the domain class survive
    unless their star ball is provably disjoint from the measure's stage
    knowledge; pruning only shrinks the survivor cone, so emitted bits are
    stable.  With no survivors the entry diverges past the last stable prefix.

    The prefix is kept for the latest stage asked only.  One search reads each
    (word, stage) knowledge once, through a view made for it, and tests only a
    candidate's last prefix for liveness: its parent is alive in the frontier.
    """

    param_map: ParamMapLike
    domain: ClosedClass
    measure_index: int
    kind = "real"

    def __post_init__(self):
        self._lcp = _StageSlot(self._search)

    def spec(self) -> dict:
        return {
            "entry": "inverse-lift",
            "map": self.param_map.name,
            "domain": self.domain.name,
            "measure": self.measure_index,
        }

    def _search(self, table: "ProgramTable", stage: int) -> Bits:
        view = table.view(self.measure_index)
        depth = min(stage, INVERSE_DEPTH_CAP)
        frontier: list[Bits] = [""]
        lcp = ""
        if self.domain.forbidden("", stage):
            return lcp
        for _ in range(depth):
            nxt: list[Bits] = []
            overflow = False
            for w in frontier:
                for ch in "01":
                    cand = w + ch
                    if self.domain.forbidden(cand, stage):
                        continue
                    if self.param_map.star(cand).contains(view, stage) == Verdict.NO:
                        continue
                    nxt.append(cand)
                    if len(nxt) > INVERSE_FRONTIER_CAP:
                        overflow = True
                        break
                if overflow:
                    break
            if overflow or not nxt:
                break
            frontier = nxt
            lcp = os.path.commonprefix(frontier)  # character-wise, so exact on words
        return lcp

    def real_bit(self, table, j, stage):
        lcp = self._lcp(table, stage)
        return int(lcp[j]) if j < len(lcp) else None


@dataclass
class AliasEntry(Entry):
    """Explicit registry alias of another entry (padding also exists arithmetically)."""

    base: int

    def spec(self) -> dict:
        return {"entry": "alias", "base": self.base}


ORACLE_FLIP_PERIOD = 2


@dataclass
class ProgramTable:
    """Finite registry of entries with arithmetic padding aliases.

    Base indices are positions in the registry; indices >= PAD_BASE encode
    pad(i, j) via the Cantor pairing, so alias allocation is order-free and
    deterministic.
    """

    entries: list[Entry] = field(default_factory=list)
    flip_schedules: dict[int, int] = field(default_factory=dict)  # index -> horizon

    def add(self, entry: Entry) -> int:
        if len(self.entries) + 1 >= PAD_BASE:
            raise OverflowError("registry grew into the padding index space")
        self.entries.append(entry)
        return len(self.entries) - 1

    # -- index resolution ---------------------------------------------------

    def pad(self, i: int, j: int) -> int:
        """Alias index for (i, j): same object as i, strictly increasing in j."""
        if i < 0 or j < 0:
            raise IndexError("pad arguments must be nonnegative")
        z = (i + j) * (i + j + 1) // 2 + i
        return PAD_BASE + z

    def resolve(self, e: int) -> int:
        """Follow padding and registry aliases to the base registry index.

        Unpadding strictly lowers the index, so a cycle must pass through a
        registry alias; only aliases are remembered, in a set made at the first.
        """
        seen = None
        while True:
            if e >= PAD_BASE:
                z = e - PAD_BASE
                # largest w with w(w+1)/2 <= z, exactly: (2w+1)^2 <= 8z+1
                w = (math.isqrt(8 * z + 1) - 1) // 2
                e = z - w * (w + 1) // 2
                continue
            entry = self.entry_raw(e)
            if not isinstance(entry, AliasEntry):
                return e
            if seen is None:
                seen = set()
            elif e in seen:
                raise ValueError(f"alias cycle at {e}")
            seen.add(e)
            e = entry.base

    def entry_raw(self, e: int) -> Entry:
        if not 0 <= e < len(self.entries):
            raise IndexError(f"index {e} not in table")
        return self.entries[e]

    def entry(self, e: int) -> Entry:
        return self.entry_raw(self.resolve(e))

    def __len__(self) -> int:
        return len(self.entries)

    # -- evaluation ---------------------------------------------------------

    def eval_measure(self, e: int, word: Bits, stage: int) -> Interval:
        check_bits(word)
        return self.entry(e).knowledge(self, word, stage)

    def prefix_sups(self, e: int, x: Bits, stage: int) -> Iterator[Fraction]:
        """Sup of entry e's stage knowledge on "" and each prefix of x (x checked once)."""
        check_bits(x)
        return self.entry(e).prefix_sups(self, x, stage)

    def eval_real(self, e: int, j: int, stage: int) -> Optional[int]:
        entry = self.entry(e)
        if entry.kind != "real":
            raise WrongKindError(f"entry {e} is not a real")
        return entry.real_bit(self, j, stage)

    def real_prefix(self, e: int, n: int, stage: int) -> Bits:
        bits = []
        for j in range(n):
            b = self.eval_real(e, j, stage)
            if b is None:
                break
            bits.append(str(b))
        return "".join(bits)

    def defined_length(self, e: int, stage: int) -> int:
        return self.entry(e).defined_length(self, stage)

    def view(self, e: int) -> "EntryView":
        return EntryView(self, e)

    def is_total(self, e: int) -> bool:
        entry = self.entry(e)
        if isinstance(entry, BernoulliLiftEntry):
            return entry.resolved_total(self)
        return bool(entry.total)

    # -- lifts (one entry per lift) ------------------------------------------

    def _lift(self, entry: Entry, ref: str) -> int:
        """Index of the entry equal to entry once the ``ref`` indices are resolved, added if none."""

        def key(ent: Entry) -> dict:
            return {**ent.spec(), ref: self.resolve(ent.spec()[ref])}

        want = key(entry)
        for i, ent in enumerate(self.entries):
            if type(ent) is type(entry) and key(ent) == want:
                return i
        return self.add(entry)

    def bernoulli_lift(self, e: int) -> int:
        return self._lift(BernoulliLiftEntry(real=e), "real")

    def param_lift(self, f: ParamMapLike, e: int) -> int:
        return self._lift(ParamLiftEntry(param_map=f, real_index=e), "real")

    def inverse_lift(self, f: ParamMapLike, d: ClosedClass, e: int) -> int:
        return self._lift(InverseLiftEntry(param_map=f, domain=d, measure_index=e), "measure")

    # -- oracles ---------------------------------------------------------------

    def totality_oracle(self, e: int, stage: int) -> int:
        """Limit approximation of the entry's ground-truth totality.

        Below a configured flip horizon the value alternates with the stage
        parity; at and beyond the horizon it equals the ground truth.
        """
        truth = 1 if self.is_total(e) else 0
        horizon = self.flip_schedules.get(e)
        if horizon is not None and stage < horizon:
            return truth if stage % ORACLE_FLIP_PERIOD == 0 else 1 - truth
        return truth

    def measures_equal(self, e1: int, e2: int, depth: int, stage: int) -> Verdict:
        if self.resolve(e1) == self.resolve(e2):
            return Verdict.YES
        tol_w = Fraction(1, 1 << (depth + 2))
        tol_mid = Fraction(1, 1 << (depth + 1))
        all_tight = True
        for n in range(depth + 1):
            for w in _words(n):
                i1 = self.eval_measure(e1, w, stage)
                i2 = self.eval_measure(e2, w, stage)
                if i1.disjoint(i2):
                    return Verdict.NO
                if i1.width > tol_w or i2.width > tol_w:
                    all_tight = False
                elif abs(i1.midpoint - i2.midpoint) > tol_mid:
                    all_tight = False
        return Verdict.YES if all_tight else Verdict.UNKNOWN

    # -- manifest ----------------------------------------------------------------

    def manifest(self) -> dict:
        return {
            "entries": [ent.spec() for ent in self.entries],
            "flip_schedules": {str(k): v for k, v in sorted(self.flip_schedules.items())},
        }

    def manifest_hash(self) -> str:
        blob = json.dumps(self.manifest(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class EntryView(MeasureView):
    """Adapter exposing a table entry's stage knowledge to ball membership checks.

    A view resolves its index once, when it is built, and evaluates each
    (word, stage) once, keeping the answers while it lives;
    ``ProgramTable.view`` returns a fresh view on every call."""

    def __init__(self, table: ProgramTable, index: int):
        self.table = table
        self.index = table.resolve(index)
        self._known: dict[tuple[Bits, int], Interval] = {}

    def knowledge(self, word: Bits, stage: int) -> Interval:
        if (word, stage) not in self._known:
            self._known[word, stage] = self.table.eval_measure(self.index, word, stage)
        return self._known[word, stage]

    def param_interval(self, stage: int) -> Optional[Interval]:
        return self.table.entry(self.index).param_interval(self.table, stage)


# ---------------------------------------------------------------------------
# manifest-driven construction


def _sampled(measure: Measure, seed: int, prng: str) -> BitSource:
    if prng != PRNG_NAME:
        raise ValueError(f"stream sampled under {prng!r} cannot be replayed by {PRNG_NAME!r}")
    return sampled_source(measure, seed)


# spec kind -> constructor; a spec's other keys are the constructor's keywords
SPEC_KINDS: dict[str, Callable] = {
    # sources
    "literal": BitSource.literal, "constant": BitSource.constant, "periodic": BitSource.periodic,
    "rational": BitSource.rational, "hat-rational": BitSource.hat_rational, "sampled": _sampled,
    # measures
    "uniform": uniform, "bernoulli": bernoulli, "interleave": interleave_measure, "dirac": dirac,
    "enumerated": enumerated_from_rows,
    # entries
    "exact-measure": ExactMeasureEntry, "enumerated-measure": EnumeratedMeasureEntry, "stub": StubEntry,
    "real": RealEntry, "alias": AliasEntry, "bernoulli-lift": BernoulliLiftEntry,
}


def from_spec(spec: dict):
    """Rebuild a source, measure or entry: ``from_spec(x.spec)`` is x again.

    The kind is the ``"entry"`` key when there is one, else ``"kind"``; nested
    specs (dict values) are rebuilt first.  An unregistered kind (param and
    inverse lifts among them) raises ValueError, a key the constructor does
    not take TypeError."""
    args = dict(spec)
    kind = args.pop("entry") if "entry" in args else args.pop("kind", None)
    if kind not in SPEC_KINDS:
        raise ValueError(f"no constructor for spec kind {kind!r}")
    return SPEC_KINDS[kind](**{k: from_spec(v) if isinstance(v, dict) else v for k, v in args.items()})


def table_from_manifest(manifest: dict) -> ProgramTable:
    table = ProgramTable()
    for spec in manifest.get("entries", []):
        table.add(from_spec(spec))
    table.flip_schedules = {int(k): int(v) for k, v in manifest.get("flip_schedules", {}).items()}
    return table
