"""A desk-scale registry standing in for the effective enumerations of partial
computable measures and reals.

The table is a finite list of entries plus an arithmetic padding scheme that
mints unboundedly many alias indices for each entry.  It answers a measure
entry's stage knowledge, a real entry's bits, the lifts between the two, and
a limit-computable totality oracle (ground-truth flags with configurable flip
schedules).  Every evaluation is stage-bounded and monotone: knowledge
intervals only shrink as the stage grows, defined real bits never change
(except an inverse lift's, when its domain reveals a forbidden prefix late),
and disjointness verdicts never retract.  Lifts reuse work only for the table
that asked and where a fresh evaluation would answer the same, and build no
ball where it cannot answer NO.  Every source, measure and entry has a JSON
spec that :func:`from_spec` rebuilds, so a manifest reloads to the same
``manifest_hash()``, except for inverse lifts and param lifts other than
Bernoulli lifts: their specs name a map and a domain only by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

from .cantor import BitSource, Bits, ClosedClass, _nonneg_int, check_bits
from .measures import (
    ONE,
    PRNG_NAME,
    ZERO,
    BernoulliCylinderBall,
    Interval,
    Measure,
    MeasureBall,
    MeasureView,
    SupWalk,
    Verdict,
    _words,
    bernoulli,
    bernoulli_image,
    ceil_neg_log2,
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


class Entry:
    """Base class for table entries; subclasses document their definedness schedule.

    Every measure entry's ``prefix_sup_bits`` is a ``SupWalk``.  Exact entries whose measure gives
    a ``sup_walk`` (uniform, Bernoulli, interleave and dirac, unless a literal z ends within the
    known bits) and param lifts over Bernoulli balls (Bernoulli lifts among them) read it from
    counts and lengths and bound its rise; the others read each prefix's knowledge, unbounded."""

    kind = "measure"  # or "real"
    total: Optional[bool] = None

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"

    # measure entries
    def knowledge(self, table: "ProgramTable", word: Bits, stage: int) -> Interval:
        raise WrongKindError(f"{type(self).__name__} is not a measure entry")

    def prefix_sup_bits(self, table: "ProgramTable", x: Bits, stage: int) -> SupWalk:
        """ceil(-log2) of the sup of the stage knowledge on "" and on every
        prefix of x, ``math.inf`` where the sup is 0: a ``SupWalk`` whose item n
        reads the knowledge of x[:n] when asked, in any order.  Its step is inf,
        so a walk never jumps: it visits every prefix."""

        def bits(a: int, n: int) -> float:
            sup = self.knowledge(table, x[:n], stage).hi
            return ceil_neg_log2(sup) if sup else math.inf

        return SupWalk(bits, math.inf, x, len(x))

    def param_interval(self, table: "ProgramTable", stage: int) -> Optional[Interval]:
        """Bernoulli parameter knowledge when the entry is product-structured."""
        return None

    def reveals_nothing(self, table: "ProgramTable", stage: int) -> bool:
        """True only where one comparison proves every word's knowledge [0, 1] and the
        parameter None at the stage; once False, False at every later stage."""
        return False

    def resolved_total(self, table: "ProgramTable") -> bool:
        """Ground-truth totality; a lift reads its real's flag."""
        return bool(self.total)

    # real entries
    def real_prefix(self, table: "ProgramTable", n: int, stage: int) -> Bits:
        """A real's one read: its first n bits at the stage, cut at the first
        undefined one ("" for n <= 0), handed over in one step."""
        raise WrongKindError(f"{type(self).__name__} is not a real entry")


class ExactMeasureEntry(Entry):
    """Total measure generator: reveals exact values on strings of length <= stage - delay.
    Its walk is the measure's ``sup_walk`` cut at stage - delay, or else ``Entry``'s."""

    total = True

    def __init__(self, measure: Measure, delay: int = 0):
        self.measure, self.delay = measure, _nonneg_int("delay", delay)

    def spec(self) -> dict:
        return {"entry": "exact-measure", "measure": self.measure.spec, "delay": self.delay}

    def knowledge(self, table, word, stage):
        if len(word) <= stage - self.delay:
            return Interval.exact(self.measure.mass(word))
        return Interval.unit()

    def prefix_sup_bits(self, table, x, stage):
        return self.measure.sup_walk(x, stage - self.delay) or super().prefix_sup_bits(table, x, stage)

    def param_interval(self, table, stage):
        return self.measure.param_interval(stage)

    def reveals_nothing(self, table, stage):
        return stage < self.delay and self.measure.param_interval(stage) is None


class EnumeratedMeasureEntry(Entry):
    """Partial measure given by an explicit stage-tagged tuple enumeration."""

    def __init__(self, measure: Measure, total: Optional[bool] = None):
        if total is not None and type(total) is not bool:
            raise ValueError(f"total must be None or a bool, got {total!r}")
        self.measure, self.total = measure, total  # an enumerated-kind Measure

    def spec(self) -> dict:
        out = {"entry": "enumerated-measure", "measure": self.measure.spec}
        if self.total is not None:
            out["total"] = self.total
        return out

    def knowledge(self, table, word, stage):
        return self.measure.knowledge(word, stage)

    def reveals_nothing(self, table, stage):
        return all(s > stage for _, _, s in self.measure._tuples)


class StubEntry(Entry):
    """Diverging program: never reveals anything."""

    total = False

    def __init__(self, kind: str = "measure"):
        if kind not in ("measure", "real"):
            raise ValueError(f"stub kind must be 'measure' or 'real', got {kind!r}")
        self.kind = kind

    def spec(self) -> dict:
        return {"entry": "stub", "kind": self.kind}

    def knowledge(self, table, word, stage):
        if self.kind != "measure":
            raise WrongKindError("real stub has no measure knowledge")
        return Interval.unit()

    def reveals_nothing(self, table, stage):
        return self.kind == "measure"

    def real_prefix(self, table, n, stage):
        return ""


class RealEntry(Entry):
    """Total or partial computable real: bit j defined once stage >= j + delay,
    and never from ``diverge_from`` on.  A prefix is one ``BitSource.prefix``
    call, cut to the defined length."""

    kind = "real"

    def __init__(self, source: BitSource, delay: int = 0, diverge_from: Optional[int] = None):
        self.source, self.delay, self.total = source, _nonneg_int("delay", delay), diverge_from is None
        self.diverge_from = diverge_from if diverge_from is None else _nonneg_int("diverge_from", diverge_from)

    def spec(self) -> dict:
        out = {"entry": "real", "source": self.source.spec, "delay": self.delay}
        if self.diverge_from is not None:
            out["diverge_from"] = self.diverge_from
        return out

    def real_prefix(self, table, n, stage):
        # bit j is defined exactly when j <= stage - delay and j < diverge_from
        n = min(n, stage - self.delay + 1, n if self.diverge_from is None else self.diverge_from)
        return self.source.prefix(n)


class ParamLiftEntry(Entry):
    """Measure entry whose stage knowledge is the param map's ball at the
    longest defined prefix of a real entry.

    The ball is kept for the last (table, stage) asked only, stamped with both;
    each stage reads the real's prefix in one ``real_prefix`` call, which an
    inverse lift, or a real entry (one read of its source), answers without
    a per-bit loop.  A ``BernoulliCylinderBall`` gives its images, its
    parameter interval and a ``SupWalk`` held from its level on; others give [0, sup]."""

    def __init__(self, param_map: "ParamMapLike", real_index: int):
        self.param_map, self.real_index = param_map, _nonneg_int("real_index", real_index)
        self._at, self._held = None, None  # the (table, stage) whose ball is held, and that ball

    def _ball(self, table: "ProgramTable", stage: int) -> MeasureBall:
        if self._at != (table, stage):
            self._held, self._at = self._read_ball(table, stage), (table, stage)
        return self._held

    def spec(self) -> dict:
        return {"entry": "param-lift", "map": self.param_map.name, "real": self.real_index}

    def _read_ball(self, table: "ProgramTable", stage: int) -> MeasureBall:
        return self.param_map.star(table.real_prefix(self.real_index, stage, stage))

    def knowledge(self, table, word, stage):
        if len(word) > stage:
            return Interval.unit()
        ball = self._ball(table, stage)
        if isinstance(ball, BernoulliCylinderBall) and len(word) <= ball.level:
            a = word.count("0")
            return bernoulli_image(ball.param, a, len(word) - a)
        return Interval(ZERO, min(ONE, ball.sup_mass(word)))

    def prefix_sup_bits(self, table, x, stage):
        ball = self._ball(table, stage)
        if isinstance(ball, BernoulliCylinderBall):
            return SupWalk(ball.sups.bits, ball.sups.step, x, stage, ball.level)
        return super().prefix_sup_bits(table, x, stage)

    def param_interval(self, table, stage):
        ball = self._ball(table, stage)
        return ball.param if isinstance(ball, BernoulliCylinderBall) else None

    def resolved_total(self, table: "ProgramTable") -> bool:
        return bool(table.entry(self.real_index).total)


class ParamMapLike:
    """Minimal protocol the table needs from a parametrization map."""

    name: str

    def star(self, word: Bits) -> MeasureBall:
        raise NotImplementedError


class _BernoulliMap(ParamMapLike):
    """The Bernoulli lift's map: w pins every word to its image under [0.w, 0.w + 2^-|w|]."""

    name = "bernoulli"

    def star(self, word: Bits) -> BernoulliCylinderBall:
        val = Fraction(int(word or "0", 2), 1 << len(word))
        return BernoulliCylinderBall(Interval(val, min(ONE, val + Fraction(1, 1 << len(word)))), sys.maxsize)


class BernoulliLiftEntry(ParamLiftEntry):
    """Measure entry computed from a real entry's bits: the Bernoulli measure whose
    parameter has that binary expansion, known at each stage to the interval its first
    min(stage, LIFT_PARAM_BITS) defined bits give (every tolerance used here sits far
    above 2^-96): a param lift over ``_BernoulliMap`` whose spec names only the real."""

    def __init__(self, real: int):
        super().__init__(_BERNOULLI_MAP, real)

    def spec(self) -> dict:
        return {"entry": "bernoulli-lift", "real": self.real_index}

    def _read_ball(self, table, stage):
        return self.param_map.star(table.real_prefix(self.real_index, min(stage, LIFT_PARAM_BITS), stage))


_BERNOULLI_MAP = _BernoulliMap()


class InverseLiftEntry(Entry):
    """Real entry emitting the longest common prefix of the parameter
    candidates not yet pruned against a measure entry's knowledge.

    The search walks candidates level by level from "", to depth min(stage,
    INVERSE_DEPTH_CAP), each level one domain read (``ClosedClass.extend``).
    A candidate survives while the domain does not forbid it at the stage and
    its star ball is not provably disjoint from the measure's stage knowledge
    (verdict NO), read through one view, so that the balls read each word's
    knowledge once per stage.  The search stops at that depth, at more than
    INVERSE_FRONTIER_CAP survivors on one level, when no candidate survives,
    or at once when "" is forbidden; it emits the common prefix of the last
    full level's survivors, and ``stop_reason`` names the stop.  A domain that
    reveals a forbidden prefix late can empty a level and so retract bits.

    A walk keeps, for each completed level and for its stop, the survivors
    (for the stop, its answer) and two running values over every candidate met
    so far: the least ``forbid_time`` above its stage and whether an UNKNOWN
    was met.  Once a walk returns, the records are stamped with the (table,
    stage) they last answered, and a read there takes the stop's answer with
    no view; a walk that raises leaves them unstamped.  A record holds at a
    later stage when that time is above the stage and, after an UNKNOWN, the
    measure gives every answer the walk's view gave (``EntryView.replays``,
    asked at most once per search; a walk that goes on takes the replayed
    reads into its view).  Each candidate met up to a record that holds then
    has the same outcome: ``forbid_time`` is a function of the word, YES and
    NO are never retracted, and a verdict is a function of the answers it
    read.  So a search of the stamped table (tables compare by identity) at
    the latest walk's stage or later returns the stored answer when the stop's
    record holds, unless a "depth" or "ambiguous" stop can now go deeper, and
    else walks on from the deepest level whose record holds, as a fresh search
    would, taking YES and NO from the last walk's verdicts; any other search
    walks from "".

    Over a view that reveals nothing at its stage (``EntryView.reveals_nothing``) a search builds
    no ball and takes each level whole from the domain's read, up to the frontier cap, as UNKNOWNs.
    It is exact: the search prunes only on NO, which needs revealed knowledge excluding the
    ball (``MeasureBall.contains``); YES and UNKNOWN keep a candidate alike, and recording
    each as UNKNOWN, with no YES or NO in the memo, is the conservative record; blankness
    only lapses as the stage grows, and the read log holds it, so after a lapse ``replays``
    fails and a later search walks with balls.
    """

    kind = "real"

    def __init__(self, param_map: ParamMapLike, domain: ClosedClass, measure_index: int):
        self.param_map, self.domain, self.measure_index = param_map, domain, _nonneg_int("measure_index", measure_index)
        # the stamp, the (table, stage) last answered ((None, None) until a walk returns), and the latest
        # walk's stage, view, YES/NO verdicts and records: (survivors, forbid_next, unknowns) per completed
        # level, then ((prefix, reason), forbid_next, unknowns) for its stop
        self._at: tuple = (None, None)
        self._stage: float = math.inf
        self._log: Optional[EntryView] = None
        self._memo: dict[Bits, Verdict] = {}
        self._records: list[tuple] = []

    def spec(self) -> dict:
        return {
            "entry": "inverse-lift",
            "map": self.param_map.name,
            "domain": self.domain.name,
            "measure": self.measure_index,
        }

    def _search(self, table: "ProgramTable", stage: int) -> tuple[Bits, str]:
        if self._at != (table, stage):
            self._walk(table, stage)
            self._at = (table, stage)
        return self._records[-1][0]

    def _walk(self, table: "ProgramTable", stage: int) -> None:
        view = table.view(self.measure_index)
        cap = min(stage, INVERSE_DEPTH_CAP)
        later = self._at[0] is table and stage >= self._stage
        records = self._records if later else []
        # the records that hold, a prefix of them: forbid_next only falls and unknowns only rises along them
        n = len(records)
        while n and records[n - 1][1] <= stage:
            n -= 1
        if n and records[n - 1][2] and not view.replays(self._log, stage):
            while n and records[n - 1][2]:
                n -= 1
        if n and n == len(records):
            if records[-1][0][1] not in ("depth", "ambiguous") or cap < n - 1:
                return
            n -= 1
        NO, UNKNOWN, blank = Verdict.NO, Verdict.UNKNOWN, view.reveals_nothing(stage)
        star, extend, limit = self.param_map.star, self.domain.extend, INVERSE_FRONTIER_CAP if blank else math.inf
        memo = self._memo if later else {}
        self._at, self._stage, self._log, self._memo = (None, None), stage, view, (verdicts := {})
        self._records = records
        del records[n:]
        if records:
            frontier, forbid_next, unknowns = records[-1]
        else:
            t = self.domain.forbid_time("")
            if t is not None and t <= stage:
                return self._keep("", "dead-domain", False, math.inf)
            frontier, forbid_next, unknowns = [""], math.inf if t is None else t, False
            records.append((frontier, forbid_next, unknowns))
        for _ in range(len(records), cap + 1):
            cands, t = extend(frontier, stage, limit)
            forbid_next = t if t < forbid_next else forbid_next
            if blank:  # every candidate the domain leaves is UNKNOWN
                nxt, unknowns = cands, unknowns or bool(cands)
            else:
                nxt = []
                for cand in cands:
                    verdict = memo.get(cand) or star(cand).contains(view, stage)
                    if verdict is UNKNOWN:
                        unknowns = True
                    else:
                        verdicts[cand] = verdict
                        if verdict is NO:
                            continue
                    nxt.append(cand)
                    if len(nxt) > INVERSE_FRONTIER_CAP:
                        break
            if not nxt or len(nxt) > INVERSE_FRONTIER_CAP:
                reason = "frontier-cap" if nxt else "no-survivors"
                return self._keep(os.path.commonprefix(frontier), reason, unknowns, forbid_next)
            frontier = nxt
            records.append((frontier, forbid_next, unknowns))
        # character-wise, so exact on words
        prefix = os.path.commonprefix(frontier)
        self._keep(prefix, "depth" if len(prefix) == cap else "ambiguous", unknowns, forbid_next)

    def _keep(self, prefix: Bits, reason: str, unknowns: bool, forbid_next: float) -> None:
        self._records.append(((prefix, reason), forbid_next, unknowns))

    def stop_reason(self, table: "ProgramTable", stage: int) -> str:
        """Why the search at this stage stopped: "depth" (one survivor at the depth),
        "ambiguous" (survivors at the depth that differ before it), "frontier-cap",
        "no-survivors" or "dead-domain"."""
        return self._search(table, stage)[1]

    def real_prefix(self, table, n, stage):
        return self._search(table, stage)[0][: max(n, 0)]


class AliasEntry(Entry):
    """Explicit registry alias of another entry (padding also exists arithmetically)."""

    def __init__(self, base: int):
        self.base = _nonneg_int("base", base)

    def spec(self) -> dict:
        return {"entry": "alias", "base": self.base}


ORACLE_FLIP_PERIOD = 2


class ProgramTable:
    """Finite registry of entries with arithmetic padding aliases.

    Base indices are positions in the registry; indices >= PAD_BASE encode
    pad(i, j) via the Cantor pairing, so alias allocation is order-free and
    deterministic.  A table prints as its manifest.  It keeps the list and dict it
    is given, each flip index and horizon checked when it is built and at each oracle
    read and manifest: a str, bool or float one would never match an index, or
    write a key or horizon that reloads as another.
    """

    def __init__(self, entries: Optional[list[Entry]] = None, flip_schedules: Optional[dict[int, int]] = None):
        self.entries = [] if entries is None else entries
        if len(self.entries) > PAD_BASE:
            raise OverflowError(f"{len(self.entries)} entries reach into the padding index space")
        self.flip_schedules = {} if flip_schedules is None else flip_schedules  # index -> horizon
        self._flips()  # raises on a bad index or horizon

    def _flips(self) -> dict[int, int]:
        """The flip schedules, each index and horizon checked again, since the dict may have
        changed since the table was built."""
        return {_nonneg_int("flip index", k): _nonneg_int("flip horizon", v) for k, v in self.flip_schedules.items()}

    def __repr__(self) -> str:
        return f"ProgramTable({self.manifest()!r})"

    def add(self, entry: Entry) -> int:
        if len(self.entries) >= PAD_BASE:
            raise OverflowError("registry grew into the padding index space")
        self.entries.append(entry)
        return len(self.entries) - 1

    # -- index resolution ---------------------------------------------------

    def pad(self, i: int, j: int) -> int:
        """Alias index for (i, j): same object as i, strictly increasing in j."""
        if type(i) is not int or type(j) is not int:
            raise TypeError(f"pad arguments must be ints, got {i!r}, {j!r}")
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
            if type(e) is int and e >= PAD_BASE:
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
        if type(e) is not int:  # a bool would pass as 0 or 1
            raise TypeError(f"entry index must be an int, got {e!r}")
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

    def prefix_sup_bits(self, e: int, x: Bits, stage: int) -> SupWalk:
        """ceil(-log2) of the sup of measure entry e's stage knowledge on "" and
        each prefix of x, x checked once; see ``Entry.prefix_sup_bits``."""
        check_bits(x)
        entry = self.entry(e)
        if entry.kind != "measure":
            raise WrongKindError(f"entry {e} is not a measure")
        return entry.prefix_sup_bits(self, x, stage)

    def eval_real(self, e: int, j: int, stage: int) -> Optional[int]:
        """Bit j of real e: bit j of ``real_prefix(e, j + 1, stage)``, None where
        that prefix stops short; IndexError for j < 0, after the kind check."""
        bits = self.real_prefix(e, j + 1, stage)
        if j < 0:
            raise IndexError("negative position")
        return int(bits[j]) if j < len(bits) else None

    def real_prefix(self, e: int, n: int, stage: int) -> Bits:
        """The first n bits of real e at the stage, resolved once, cut at the
        first undefined one ("" for n <= 0); see ``Entry.real_prefix``."""
        entry = self.entry(e)
        if entry.kind != "real":
            raise WrongKindError(f"entry {e} is not a real")
        return entry.real_prefix(self, n, stage)

    def view(self, e: int) -> "EntryView":
        return EntryView(self, e)

    def is_total(self, e: int) -> bool:
        return self.entry(e).resolved_total(self)

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
        horizon = self._flips().get(e)
        if horizon is not None and stage < horizon:
            return truth if stage % ORACLE_FLIP_PERIOD == 0 else 1 - truth
        return truth

    def measures_equal(self, e1: int, e2: int, depth: int, stage: int) -> Verdict:
        if self.resolve(e1) == self.resolve(e2):
            return Verdict.YES
        tol_w = Fraction(1, 1 << (depth + 2))
        all_tight = True
        for n in range(depth + 1):
            for w in _words(n):
                i1 = self.eval_measure(e1, w, stage)
                i2 = self.eval_measure(e2, w, stage)
                if i1.disjoint(i2):
                    return Verdict.NO
                if i1.width > tol_w or i2.width > tol_w:
                    all_tight = False
        return Verdict.YES if all_tight else Verdict.UNKNOWN

    # -- manifest ----------------------------------------------------------------

    def manifest(self) -> dict:
        """The entries' specs and the checked flip schedules."""
        flips = sorted(self._flips().items())
        return {"entries": [ent.spec() for ent in self.entries], "flip_schedules": {str(k): v for k, v in flips}}

    def manifest_hash(self) -> str:
        blob = json.dumps(self.manifest(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class EntryView(MeasureView):
    """Adapter exposing a table entry's stage knowledge to ball membership checks.

    A view resolves its index once, when it is built, and evaluates each (word,
    stage) knowledge and each stage's parameter interval and blankness (whether
    the entry reveals nothing) once, keeping the answers, its read log, while it
    lives; ``ProgramTable.view`` returns a fresh view on every call.  An inverse-lift
    search asks one view at one stage, and ``replays`` tells whether a later view
    gives every answer a logged one gave."""

    def __init__(self, table: ProgramTable, index: int):
        self.table = table
        self.index = table.resolve(index)
        self._known: dict[tuple[Bits, int], Interval] = {}
        self._facts: dict[int, tuple[Optional[Interval], bool]] = {}

    def knowledge(self, word: Bits, stage: int) -> Interval:
        known = self._known.get((word, stage))
        if known is None:
            known = self._known[word, stage] = self.table.eval_measure(self.index, word, stage)
        return known

    def _stage_facts(self, stage: int) -> tuple[Optional[Interval], bool]:
        """The entry's parameter interval at the stage and whether it reveals nothing there."""
        if stage not in self._facts:
            entry = self.table.entry(self.index)
            self._facts[stage] = entry.param_interval(self.table, stage), entry.reveals_nothing(self.table, stage)
        return self._facts[stage]

    def param_interval(self, stage: int) -> Optional[Interval]:
        return self._stage_facts(stage)[0]

    def reveals_nothing(self, stage: int) -> bool:
        return self._stage_facts(stage)[1]

    def replays(self, log: "EntryView", stage: int) -> bool:
        """Whether this view, asked at this stage, gives every answer the log
        view gave (at whatever stage it was asked); the reads join this view's memo."""
        same = all(self.knowledge(w, stage) == iv for (w, _), iv in log._known.items())
        return same and all(self._stage_facts(stage) == facts for facts in log._facts.values())


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
    specs (dict values) are rebuilt first.  An unregistered kind (param
    lifts other than ``"bernoulli-lift"``, and inverse lifts) raises
    ValueError, a key the constructor does not take TypeError."""
    args = dict(spec)
    kind = args.pop("entry") if "entry" in args else args.pop("kind", None)
    if kind not in SPEC_KINDS:
        raise ValueError(f"no constructor for spec kind {kind!r}")
    return SPEC_KINDS[kind](**{k: from_spec(v) if isinstance(v, dict) else v for k, v in args.items()})


def table_from_manifest(manifest: dict) -> ProgramTable:
    entries = [from_spec(spec) for spec in manifest.get("entries", [])]
    flips = {}
    for k, v in manifest.get("flip_schedules", {}).items():
        if str(i := int(k)) != k:  # "01", " 1", "+1" or "1_0": two manifests would load as one table
            raise ValueError(f"flip index must be written as manifest() writes it, got {k!r}")
        flips[i] = v
    return ProgramTable(entries, flips)
