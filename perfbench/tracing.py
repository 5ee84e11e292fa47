"""Run-time tracing of the cantorlearn layers, installed from outside ``src/``.

A :class:`Tracer` replaces the public callables listed in :data:`POINTS` with
wrappers that record one span per call (id, name, start, end, parent id) and
fold it into per-name aggregates.  Each wrapper is set on the attribute that
callers actually look up: ``check_bits`` is imported by name into
``measures``, ``programs`` and ``randomness``, so it is patched in all four
module namespaces, and ``bernoulli_image`` in both ``measures`` and
``programs``.  :meth:`Tracer.uninstall` puts every original object back.

Self time is a span's duration minus the time covered by its child spans.
Calls are single-threaded and properly nested, so the children of a span are
disjoint and their durations simply add up.  The wrapper's own bookkeeping
lands in the parent's self time; the run reports the traced/untraced wall
time ratio so that cost is visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# spans kept verbatim for the trace file; aggregates always cover every span
MAX_SPANS = 20_000

CODECS = ("LiteralCodec", "RunLengthCodec", "PatternCodec", "KTCodec", "ZlibBlockCodec")


@dataclass
class Agg:
    calls: int = 0
    self_s: float = 0.0
    chars: int = 0
    bits: int = 0
    bytes_in: int = 0
    repeats: int = 0
    nos: int = 0
    prefixes: int = 0
    rejects: int = 0
    seen: dict = field(default_factory=dict)  # id(owner) -> (owner, set of keys)

    def note_repeat(self, owner, key) -> None:
        got = self.seen.get(id(owner))
        if got is None:
            got = self.seen[id(owner)] = (owner, set())
        keys = got[1]
        if key in keys:
            self.repeats += 1
        else:
            keys.add(key)


# hooks: (tracer, agg, args, kwargs, result, parent_frame) -> None


def _word_chars(tr, agg, args, kwargs, result, parent):
    agg.chars += len(args[0])


def _mass(tr, agg, args, kwargs, result, parent):
    measure, word = args[0], args[1]
    agg.chars += len(word)
    agg.note_repeat(measure, word)


def _eval_measure(tr, agg, args, kwargs, result, parent):
    agg.chars += len(args[2] if len(args) > 2 else kwargs["word"])


def _eval_real(tr, agg, args, kwargs, result, parent):
    e = args[1] if len(args) > 1 else kwargs["e"]
    stage = args[3] if len(args) > 3 else kwargs["stage"]
    agg.note_repeat(args[0], (e, stage))


def _sample_bits(tr, agg, args, kwargs, result, parent):
    agg.bits += len(result)


def _bytes_in(tr, agg, args, kwargs, result, parent):
    agg.bytes_in += len(args[0])


def _no(tr, agg, args, kwargs, result, parent):
    if getattr(result, "name", None) == "NO":
        agg.nos += 1


def _verdict_push(tr, agg, args, kwargs, result, parent):
    # random_verdict pushes one bit per prefix after the empty one
    if parent is not None and parent[2] == "randomness.random_verdict":
        tr.verdict_pushes += 1


def _verdict(tr, agg, args, kwargs, result, parent):
    if result is False:
        agg.rejects += 1
        agg.prefixes += tr.verdict_pushes + 1  # and the empty prefix
    tr.verdict_pushes = 0


@dataclass(frozen=True)
class Point:
    """One traced callable: metric prefix, the attributes to patch, printed stats.

    A site is ``(module, dotted path)``; the path segment ``tracker`` stands
    for the class of ``Owner().tracker()``, which is where a codec's
    incremental ``push``/``cost`` live.
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    stats: tuple[str, ...]
    hook: Optional[Callable] = None
    span: bool = True


def _codec_points() -> list[Point]:
    out = []
    for codec in CODECS:
        for method in ("push", "cost"):
            out.append(
                Point(
                    f"randomness.{codec}.{method}",
                    (("randomness", f"{codec}.tracker.{method}"),),
                    ("calls", "self_s"),
                )
            )
    return out


POINTS: tuple[Point, ...] = (
    Point(
        "cantor.check_bits",
        tuple((m, "check_bits") for m in ("cantor", "measures", "programs", "randomness")),
        ("calls", "chars", "self_s"),
        _word_chars,
    ),
    Point("cantor.BitSource.bit", (("cantor", "BitSource.bit"),), ("calls", "self_s")),
    Point("cantor.ClosedClass.alive", (("cantor", "ClosedClass.alive"),), ("calls", "self_s")),
    Point(
        "measures.Measure.mass",
        (("measures", "Measure.mass"),),
        ("calls", "chars", "repeat_ratio", "self_s"),
        _mass,
    ),
    Point("measures.Measure.knowledge", (("measures", "Measure.knowledge"),), ("calls", "self_s")),
    Point(
        "measures.sample_stream",
        (("measures", "sample_stream"),),
        ("calls", "bits", "self_s"),
        _sample_bits,
    ),
    Point("measures.Interval.new", (("measures", "Interval.__post_init__"),), ("calls",), span=False),
    Point(
        "measures.bernoulli_image",
        (("measures", "bernoulli_image"), ("programs", "bernoulli_image")),
        ("calls", "self_s"),
    ),
    Point(
        "measures.BernoulliCylinderBall.contains",
        (("measures", "BernoulliCylinderBall.contains"),),
        ("calls", "no_ratio", "self_s"),
        _no,
    ),
    Point(
        "measures.BernoulliCylinderBall.sup_mass",
        (("measures", "BernoulliCylinderBall.sup_mass"),),
        ("calls", "self_s"),
    ),
    Point(
        "programs.ProgramTable.eval_measure",
        (("programs", "ProgramTable.eval_measure"),),
        ("calls", "chars", "self_s"),
        _eval_measure,
    ),
    Point("programs.ProgramTable.resolve", (("programs", "ProgramTable.resolve"),), ("calls", "self_s")),
    Point(
        "programs.ProgramTable.eval_real",
        (("programs", "ProgramTable.eval_real"),),
        ("calls", "repeat_ratio", "self_s"),
        _eval_real,
    ),
    Point(
        "programs.ProgramTable.real_prefix",
        (("programs", "ProgramTable.real_prefix"),),
        ("calls", "self_s"),
    ),
    Point("programs.EntryView.knowledge", (("programs", "EntryView.knowledge"),), ("calls", "self_s")),
    Point("programs.EntryView.param_interval", (("programs", "EntryView.param_interval"),), ("calls",)),
    *_codec_points(),
    Point(
        "randomness.zlib_compress",
        (("randomness", "zlib.compress"),),
        ("calls", "bytes_in", "self_s"),
        _bytes_in,
    ),
    Point(
        "randomness.ComplexityEstimator.upper",
        (("randomness", "ComplexityEstimator.upper"),),
        ("calls", "self_s"),
    ),
    Point(
        "randomness.EstimatorTracker.push",
        (("randomness", "EstimatorTracker.push"),),
        ("calls", "self_s"),
        _verdict_push,
    ),
    Point("randomness.EstimatorTracker.upper", (("randomness", "EstimatorTracker.upper"),), ("calls", "self_s")),
    Point("randomness.ceil_neg_log2", (("randomness", "ceil_neg_log2"),), ("calls", "self_s")),
    # prefixes walked per rejecting call; accepts always walk every prefix
    Point("randomness.random_verdict", (("randomness", "random_verdict"),), ("prefixes",), _verdict),
)


class _ZlibView:
    """Stands in for the ``zlib`` module inside ``randomness`` with a traced ``compress``."""

    def __init__(self, real, compress):
        self._real = real
        self.compress = compress

    def __getattr__(self, name):
        return getattr(self._real, name)


def _resolve(mods, module: str, dotted: str):
    """(owner, attribute) for a site, or None when this version lacks it."""
    owner = getattr(mods, module)
    *path, attr = dotted.split(".")
    for part in path:
        if part == "tracker":
            owner = type(owner().tracker())
        else:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def stat_value(agg: Agg, stat: str):
    if stat == "calls":
        return agg.calls
    if stat == "self_s":
        return agg.self_s
    if stat in ("chars", "bits", "bytes_in"):
        return getattr(agg, stat)
    if stat == "repeat_ratio":
        return agg.repeats / agg.calls if agg.calls else 0.0
    if stat == "no_ratio":
        return agg.nos / agg.calls if agg.calls else 0.0
    if stat == "prefixes":
        return agg.prefixes / agg.rejects if agg.rejects else 0.0
    raise KeyError(stat)


STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "chars": "count",
    "bits": "count",
    "bytes_in": "bytes",
    "repeat_ratio": "ratio",
    "no_ratio": "ratio",
    "prefixes": "count",
}


def layer_metric_units() -> dict[str, str]:
    """Unit of every per-layer metric the tracer reports, in output order."""
    return {f"{p.name}.{s}": STAT_UNITS[s] for p in POINTS for s in p.stats}


class Tracer:
    """Patches the layers of one imported module set and records spans."""

    def __init__(self):
        self.aggs: dict[str, Agg] = {p.name: Agg() for p in POINTS}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.patched: list[tuple[object, str, object, bool]] = []
        self.unpatched: list[str] = []
        self.verdict_pushes = 0  # pushes inside the random_verdict call now running
        self._stack: list[list] = []  # frames: [span id, child seconds, name]

    # -- spans -----------------------------------------------------------------

    def _close(self, frame, name, start, end, parent):
        dur = end - start
        agg = self.aggs.get(name)
        if agg is not None:
            agg.calls += 1
            agg.self_s += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None))

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself (one op)."""
        return _Span(self, name)

    def _wrap(self, point: Point, fn):
        stack = self._stack
        clock = time.perf_counter
        name = point.name
        hook = point.hook
        agg = self.aggs[name]
        close = self._close
        tracer = self

        if not point.span:

            def counter(*args, **kwargs):
                agg.calls += 1
                return fn(*args, **kwargs)

            return counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer.span_count += 1
            frame = [tracer.span_count, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, name, start, end, parent)
            if hook is not None:
                hook(tracer, agg, args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self, mods) -> None:
        for point in POINTS:
            wrappers: dict[int, object] = {}
            for module, dotted in point.sites:
                found = _resolve(mods, module, dotted)
                if found is None:
                    self.unpatched.append(f"{module}.{dotted}")
                    continue
                owner, attr = found
                if attr == "compress":  # patch the name ``zlib`` that randomness looks up
                    owner, attr = getattr(mods, module), "zlib"
                    original = owner.zlib
                    replacement = _ZlibView(original, self._wrap(point, original.compress))
                else:
                    original = getattr(owner, attr)
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(point, original)
                    replacement = wrappers[id(original)]
                own = attr in vars(owner)
                self.patched.append((owner, attr, vars(owner).get(attr), own))
                setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self.patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for point in POINTS:
            for stat in point.stats:
                out[f"{point.name}.{stat}"] = stat_value(self.aggs[point.name], stat)
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        tr.span_count += 1
        self.frame = [tr.span_count, 0.0, self.name]
        tr._stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer._close(self.frame, self.name, self.start, end, self.parent)
        return False
