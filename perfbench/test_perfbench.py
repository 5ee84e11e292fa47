"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CodecLong, TransferHat, VerdictBernoulli  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, seed=3):
    if name == "verdict-bernoulli":
        return VerdictBernoulli(seed, run.SRC, streams=2, bits=512)
    if name == "codec-long":
        return CodecLong(seed, run.SRC, bits=1024, cycle=100, run_mean=8)
    return TransferHat(
        seed, run.SRC, sample_bits=32, prefix_bits=8, stages=(8, 16, 24),
        stalls=1, stall_range=(8, 16), min_bits_at={16: 8},
    )


NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_every_op_kind_runs_and_passes(name):
    wl = tiny(name)
    rnd = run.run_round(wl)
    assert rnd.failed == []
    assert {kind for kind, _ in rnd.times} == set(wl.kinds)
    assert rnd.attempted == len(rnd.times)


def test_corrupted_verdict_is_counted_and_the_run_continues():
    wl = tiny("verdict-bernoulli")
    setup = wl.setup

    def corrupted():
        ctx = setup()
        real = ctx.mods.randomness.random_verdict
        ctx.mods.randomness.random_verdict = lambda *a: not real(*a)
        return ctx

    wl.setup = corrupted
    rnd = run.run_round(wl)
    assert len(rnd.failed) / rnd.attempted > 0
    assert len(rnd.times) == rnd.attempted  # every op still ran


def test_reference_mismatch_is_counted():
    wl = tiny("verdict-bernoulli")
    rnd = run.run_round(wl, reference={"0.sample": "0" * 64, "1.maxdef": -1})
    assert sorted(rnd.failed) == ["0.sample", "1.maxdef"]


def test_raising_op_is_counted():
    wl = tiny("codec-long")
    setup = wl.setup

    def broken():
        ctx = setup()
        ctx.est = None
        return ctx

    wl.setup = broken
    rnd = run.run_round(wl)
    assert len(rnd.failed) == rnd.attempted


def test_tracer_restores_every_attribute():
    wl = tiny("transfer-hat")
    tracer = Tracer()
    run.run_round(wl, tracer=tracer)
    assert tracer.unpatched == []
    assert tracer.patched
    for owner, attr, original, own in tracer.patched:
        if own:
            assert vars(owner)[attr] is original
        else:
            assert attr not in vars(owner)
    layer = tracer.layer_metrics()
    assert layer["cantor.BitSource.bit.calls"] > 0
    assert layer["programs.ProgramTable.eval_real.calls"] > 0


def test_trace_counts_repeat_exactly():
    def counts():
        tracer = Tracer()
        run.run_round(tiny("verdict-bernoulli"), tracer=tracer)
        return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith("self_s")}

    assert counts() == counts()


def test_verdict_prefixes_count_rejects_only():
    tracer = Tracer()
    run.run_round(tiny("verdict-bernoulli"), tracer=tracer)
    agg = tracer.aggs["randomness.random_verdict"]
    assert agg.rejects > 0 and agg.calls > agg.rejects
    walked = tracer.layer_metrics()["randomness.random_verdict.prefixes"]
    assert 1 <= walked < 512 + 1  # an early exit walks fewer than all 513 prefixes


def test_printed_metric_names_are_declared(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = Namespace(seconds=0, trace=0)
    end_to_end = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in NAMES:
        _, metrics, _ = run.untraced(tiny(name), args, None)
        assert {k: v["unit"] for k, v in metrics.items()} == end_to_end
        assert all(v["value"] > 0 for v in metrics.values())
    scaling = {"reps": 1, "bits": (64, 128), "kt_bits": (256, 512)}
    _, metrics, extra, _, failed = run.traced(tiny("codec-long"), None, scaling)
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer
    assert failed == 0 and extra["tracing_overhead"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout == ""
