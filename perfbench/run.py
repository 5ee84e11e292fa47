"""Benchmark of cantorlearn: one process, one thread, a closed loop with one caller.

    python3 perfbench/run.py --workload verdict-bernoulli --seed 0 --seconds 30 --trace 0

Untraced (``--trace 0``) it repeats the workload's fixed op list, each round
after a fresh set-up, until ``--seconds`` have passed, and reports the
end-to-end metrics.  Traced (``--trace 1``) it runs one untraced and one
traced round plus the doubling-ratio rows, reports the per-layer metrics and
writes the spans to ``perfbench/out/``.  The last line of standard output is
the result object; the line before it records how to replay the run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import Tracer, layer_metric_units  # noqa: E402
from workloads import C, PACKAGE, WORKLOADS, fresh_import, iid_bits, is_bits  # noqa: E402

# extra timed set-ups before each round, so setup_s is a median of many,
# spread over the whole run
SETUPS_PER_ROUND = 5
# the seeds whose outputs are stored in reference.json
REFERENCE_SEEDS = (0, 1)


# The host's speed drifts by tens of percent over minutes, and it moves most
# timings together.  So each timed call is bracketed by a fixed pure-Python
# loop that uses nothing from cantorlearn, and is reported as its time divided
# by the mean of the two loop times, times CAL_REF_S: seconds on a machine
# where the loop takes 4 ms.  The loop mixes the kinds of work the program
# does: small-int bytecode, growing big-int products, and string slices used
# as dict keys.
CAL_REF_S = 0.004


def calibration_loop() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(15_000):
        s += i * i % 7
    x = 1
    for i in range(1, 2_000):
        x *= 2 * i + 1
    word, seen = "", {}
    for i in range(3_000):
        word += "01"[i % 3 == 0]
        seen[word[-32:]] = i
    return time.perf_counter() - start


class Calibrated:
    """Converts measured seconds to reference-speed seconds, one call at a time."""

    def __init__(self):
        self.loops = [calibration_loop()]

    def scale(self, seconds: float) -> float:
        """Reference-speed seconds of a call that has just taken ``seconds``."""
        self.loops.append(calibration_loop())
        return seconds * 2 * CAL_REF_S / (self.loops[-2] + self.loops[-1])


@dataclass
class Round:
    setup_s: float
    times: list = field(default_factory=list)  # (op kind, seconds) of ops that returned
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: list = field(default_factory=list)
    loops: list = field(default_factory=list)  # calibration loop seconds

    @property
    def wall_s(self) -> float:
        return sum(t for _, t in self.times)


def run_round(wl, reference=None, tracer=None) -> Round:
    """Set up, run the fixed op list once (timed per op), then check every output."""
    cal = Calibrated()
    t0 = time.perf_counter()
    ctx = wl.setup()
    rnd = Round(setup_s=cal.scale(time.perf_counter() - t0), loops=cal.loops)
    ops = wl.ops(ctx)
    outs = rnd.outputs
    if tracer is not None:
        tracer.install(ctx.mods)
    try:
        for op in ops:
            try:
                start = time.perf_counter()
                if tracer is None:
                    out = op.call(outs)
                else:
                    with tracer.span("op." + op.kind):
                        out = op.call(outs)
                dur = time.perf_counter() - start
            except Exception:
                print(f"op {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
                cal.scale(0.0)
                continue
            outs[op.key] = out
            rnd.times.append((op.kind, cal.scale(dur)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd.attempted = len(ops)
    for op in ops:
        if not _passes(op, outs, reference):
            rnd.failed.append(op.key)
    return rnd


def _passes(op, outs, reference) -> bool:
    if op.key not in outs:
        return False
    out = outs[op.key]
    try:
        if not op.check(out, outs):
            return False
        if reference is not None and op.record is not None and op.key in reference:
            return op.record(out) == reference[op.key]
    except Exception:
        return False
    return True


def reference_for(wl):
    if not wl.default_sizes or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(wl.name, {}).get(str(wl.seed))


def record_reference() -> None:
    """Store the checked outputs of one round per workload at each reference seed."""
    data = {}
    for name, cls in WORKLOADS.items():
        data[name] = {}
        for seed in REFERENCE_SEEDS:
            wl = cls(seed, SRC)
            rnd = run_round(wl)
            if rnd.failed:
                raise SystemExit(f"{name} seed {seed}: checks failed for {rnd.failed}")
            data[name][str(seed)] = {
                op.key: op.record(rnd.outputs[op.key]) for op in wl.ops(wl.setup()) if op.record
            }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _git_commit():
    """HEAD of the checkout's own repository, or None outside one (no search upwards)."""
    git = ROOT / ".git"
    if not git.exists():
        return None
    try:
        p = subprocess.run(["git", f"--git-dir={git}", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def replay_info(wl, args) -> dict:
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "prng": sys.modules[f"{PACKAGE}.measures"].PRNG_NAME,
    }


def op_medians(wl, rounds) -> dict:
    """Median latency of every op kind, in ms, with its sample count."""
    out = {}
    for kind in wl.kinds:
        times = [t for r in rounds for k, t in r.times if k == kind]
        if times:
            out[f"{kind}_p50_ms"] = {"value": 1000 * median(times), "unit": "ms", "n": len(times)}
    return out


def round_means(rounds, kind) -> list[float]:
    """Per round, the mean time of that round's ops of one kind.

    A round's ops of one kind run on a few fixed inputs of different cost, so
    a median over single ops would sit on the edge between two inputs' times.
    """
    out = []
    for r in rounds:
        times = [t for k, t in r.times if k == kind]
        if times:
            out.append(sum(times) / len(times))
    return out or [0.0]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def untraced(wl, args, reference):
    start = time.perf_counter()
    setups, loops, rounds = [], [], []
    while not rounds or time.perf_counter() - start < args.seconds:
        cal = Calibrated()
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(cal.scale(time.perf_counter() - t0))
        gc.collect()
        rounds.append(run_round(wl, reference))
        setups.append(rounds[-1].setup_s)
        loops += cal.loops + rounds[-1].loops
    ops = op_medians(wl, rounds)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(median(r.wall_s for r in rounds), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "walk_ms": metric(1000 * median(round_means(rounds, wl.walk)), "ms"),
        "probe_ms": metric(1000 * median(round_means(rounds, wl.probe)), "ms"),
    }
    extra = {
        "samples": {
            "setup_s": len(setups),
            "wall_s": len(rounds),
            "peak_rss_mb": 1,
            "walk_ms": len(rounds),
            "probe_ms": len(rounds),
        },
        "calibration_loop_p50_s": median(loops),
        "ops": ops,
    }
    return rounds, metrics, extra


def traced(wl, reference, scaling=None):
    """One untraced and one traced round, then the scaling rows (``scaling``: their sizes)."""
    base = run_round(wl, reference)
    gc.collect()
    tracer = Tracer()
    rnd = run_round(wl, reference, tracer)
    rows, attempted, failed = scaling_rows(wl.seed, SRC, **(scaling or {}))
    layer = tracer.layer_metrics()
    layer.update(rows)
    units = per_layer_units()
    metrics = {name: metric(value, units[name]) for name, value in layer.items()}
    overhead = rnd.wall_s / base.wall_s if base.wall_s else 0.0
    extra = {
        "tracing_overhead": overhead,
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": rnd.wall_s,
        "unpatched": tracer.unpatched,
        "scaling_ops": {"attempted": attempted, "failed": failed},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    path.write_text(
        json.dumps(
            {
                "span_fields": ["id", "name", "start", "end", "parent"],
                "span_count": tracer.span_count,
                "spans": tracer.spans,
                "metrics": layer,
                **extra,
            }
        )
    )
    extra["spans_file"] = os.path.relpath(path, ROOT)
    return [base, rnd], metrics, extra, attempted, failed


SCALING_METRICS = (
    "randomness.random_verdict.doubling_ratio",
    "measures.sample_stream.doubling_ratio",
    "randomness.KTCodec.cost.doubling_ratio",
)


def scaling_rows(seed: int, src: Path, reps: int = 5, bits=(1024, 2048), kt_bits=(16384, 32768)):
    """Calibrated time ratios per doubling of n, untraced: (rows, ops attempted, ops failed).

    Each row is median(time at the larger n) / median(time at the smaller n),
    over ``reps`` Bernoulli(1/3) streams or repeated KT costs.
    """
    rng = random.Random(f"scaling:{seed}")
    seeds = [rng.randrange(1 << 31) for _ in range(reps)]
    word = iid_bits(rng, kt_bits[1])
    mods = fresh_import(src)
    gc.collect()
    cal = Calibrated()
    ms, pg, rd = mods.measures, mods.programs, mods.randomness
    sample, accept, kt = ({n: [] for n in ns} for ns in (bits, bits, kt_bits))
    attempted = failed = 0
    for n in bits:
        for s in seeds:
            mu = ms.bernoulli(F(1, 3))
            table = pg.ProgramTable()
            own = table.add(pg.ExactMeasureEntry(mu))
            est = rd.ComplexityEstimator()
            t0 = time.perf_counter()
            x = ms.sample_stream(mu, s, n)
            sample[n].append(cal.scale(time.perf_counter() - t0))
            t0 = time.perf_counter()
            ok = rd.random_verdict(table, est, own, x, C)
            accept[n].append(cal.scale(time.perf_counter() - t0))
            attempted += 2
            failed += (not is_bits(x, n)) + (ok is not True)
    for n in kt_bits:
        for _ in range(reps):
            t0 = time.perf_counter()
            cost = rd.KTCodec().cost(word[:n])
            kt[n].append(cal.scale(time.perf_counter() - t0))
            attempted += 1
            failed += not (isinstance(cost, int) and cost > 0)

    def ratio(times):
        small, large = (median(times[n]) for n in sorted(times))
        return large / small

    rows = dict(zip(SCALING_METRICS, (ratio(accept), ratio(sample), ratio(kt))))
    return rows, attempted, failed


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in output order."""
    return {**layer_metric_units(), **{name: "ratio" for name in SCALING_METRICS}}


def run(args) -> tuple[dict, dict]:
    """(replay/detail record, result object) for one benchmark run."""
    wl = WORKLOADS[args.workload](args.seed, SRC)
    reference = reference_for(wl)
    if args.trace:
        rounds, metrics, extra, attempted, failed = traced(wl, reference)
    else:
        rounds, metrics, extra = untraced(wl, args, reference)
        attempted = failed = 0
    attempted += sum(r.attempted for r in rounds)
    failed += sum(len(r.failed) for r in rounds)
    info = replay_info(wl, args)
    info.update(extra)
    info["reference_checked"] = reference is not None
    info["failed_ratio"] = failed / attempted
    info["failed_ops"] = sorted({k for r in rounds for k in r.failed})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this commit's outputs for the reference seeds and exit")
    args = p.parse_args(argv)
    if not (SRC / "cantorlearn" / "__init__.py").is_file():
        print(f"no cantorlearn sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    info, result = run(args)
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
