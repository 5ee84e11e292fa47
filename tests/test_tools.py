"""The scripts in tools/, each run on a small tree or canned input of its own: the code-line
counter, the unused-import and dead-name scanners that CI runs, the fresh-import timer and the
benchmark-result reader; and the learner-trace timer, on this checkout at 512 bits."""

import itertools
import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from cantorlearn.measures import bernoulli, sample_stream
from cantorlearn.programs import ExactMeasureEntry, ProgramTable
from cantorlearn.randomness import ComplexityEstimator, random_verdict

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS / "code_lines.py"

MODULES = {
    "doc.py": '"""Only a docstring,\nover two lines."""\n',
    "code.py": (
        '"""Module docstring."""\n'
        "# a comment\n"
        "\n"
        "x = 1  # a trailing comment\n"
        "\n"
        "\n"
        "def f(a):\n"
        '    "A docstring, " \\\n'
        '    "implicitly concatenated."\n'
        "    # inside\n"
        "    return (a,\n"
        "            'a string that is code')\n"
    ),
}


def test_counts_only_code_lines(tmp_path):
    package = tmp_path / "src" / "cantorlearn"
    package.mkdir(parents=True)
    for name, text in MODULES.items():
        (package / name).write_text(text)
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True)
    counts = {line.split()[1]: int(line.split()[0]) for line in out.stdout.splitlines()}
    # x = 1, the def line and the two lines of the return
    assert counts == {str(package / "code.py"): 4, str(package / "doc.py"): 0, "total": 4}


# one fault of each kind the scanners look for, at the line in its comment
PLANTED = {
    "src/cantorlearn/planted.py": (
        '"""One fault of each kind."""\n'
        "import json\n"
        "import os\n"  # 3: imported, never read
        "\n"
        "\n"
        "def orphan():\n"  # 6: a top-level name no other line mentions
        "    return json.dumps(1)\n"
        "\n"
        "\n"
        "class Live:\n"
        "    def __init__(self, path):\n"
        "        self.kept, self.unread = 2, path\n"  # 12: unread is stored, never read
        "\n"
        "    def unused_method(self):\n"  # 14: a method no other line mentions
        "        return self.kept\n"
    ),
    "tests/test_planted.py": (
        "from cantorlearn.planted import Live\n"
        "\n"
        "\n"
        "def test_live():\n"
        "    os = None  # a local binding: it does not read the module's import\n"
        "    assert Live(os).kept == 2\n"
    ),
}

CLEAN = {
    "src/cantorlearn/clean.py": (
        '"""Nothing dead."""\n'
        "import json\n"
        "\n"
        "\n"
        "def dump(x):\n"
        "    return json.dumps(x)\n"
        "\n"
        "\n"
        "class Live:\n"
        "    def __init__(self):\n"
        "        self.kept = 2\n"
        "\n"
        "    def value(self):\n"
        "        return self.kept\n"
    ),
    "tests/test_clean.py": (
        "from cantorlearn.clean import Live, dump\n"
        "\n"
        "\n"
        "def test_live():\n"
        "    assert Live().value() == 2 and dump(1) == '1'\n"
    ),
}


def scan(script, root, files):
    """The script's (exit code, reported path:line places) on a tree holding the files."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    out = subprocess.run([sys.executable, str(TOOLS / script), str(root)], capture_output=True, text=True)
    assert not out.stderr
    return out.returncode, {line.split(": ")[0] for line in out.stdout.splitlines() if ": " in line}


def test_unused_imports_are_reported(tmp_path):
    assert scan("unused_imports.py", tmp_path, PLANTED) == (1, {"src/cantorlearn/planted.py:3"})


def test_dead_names_and_unread_attributes_are_reported(tmp_path):
    want = {"src/cantorlearn/planted.py:6", "src/cantorlearn/planted.py:12", "src/cantorlearn/planted.py:14"}
    assert scan("dead_names.py", tmp_path, PLANTED) == (1, want)


def test_a_clean_tree_passes_both_scanners(tmp_path):
    assert scan("unused_imports.py", tmp_path, CLEAN) == (0, set())
    assert scan("dead_names.py", tmp_path, CLEAN) == (0, set())


def test_the_import_timer_imports_the_root_afresh_each_round(tmp_path):
    # each of the tree's four modules logs its import: 20 rounds run each one 20 times, from source
    log = tmp_path / "imports.log"
    package = tmp_path / "src" / "cantorlearn"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    layers = ["cantor", "measures", "programs", "randomness"]
    for layer in layers:
        (package / f"{layer}.py").write_text(f"with open({str(log)!r}, 'a') as f:\n    f.write({layer!r} + ' ')\n")
    out = subprocess.run(
        [sys.executable, str(TOOLS / "import_time.py"), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert re.fullmatch(r"fresh import of the four modules from source: \d+\.\d ms, median of 20\n", out.stdout)
    assert log.read_text().split() == layers * 20
    assert not list(tmp_path.rglob("*.pyc"))  # no bytecode written


RUN = {"workload": "w", "seed": 0, "reference_checked": True}
RESULT = {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}


def bench_results(*args, stdin=""):
    """bench_results.py's (exit code, stdout, stderr) on canned input."""
    out = subprocess.run(
        [sys.executable, str(TOOLS / "bench_results.py"), *args], input=stdin, capture_output=True, text=True
    )
    return out.returncode, out.stdout, out.stderr


def perfbench_output(run=None, result=None, last=None):
    """Lines as perfbench/run.py prints them: a log line, the run object, the result object."""
    run = {"run": {**RUN, **(run or {})}}
    return "\n".join(["log", json.dumps(run), last or json.dumps({**RESULT, **(result or {})})]) + "\n"


def test_bench_results_reads_the_workload_names(tmp_path):
    names = [w["name"] for w in json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["workloads"]]
    assert bench_results("names", str(TOOLS.parent / "BENCHMARK.json")) == (0, " ".join(names) + "\n", "")
    (tmp_path / "empty.json").write_text('{"workloads": []}')
    code, _, err = bench_results("names", str(tmp_path / "empty.json"))
    assert code == 1 and "lists no workloads" in err


@pytest.mark.parametrize("mode", ["replay", "traced"])
def test_bench_results_passes_a_correct_run(mode):
    assert bench_results(mode, stdin=perfbench_output()) == (0, "", "")


@pytest.mark.parametrize(
    "mode,output,reason",
    [
        ("replay", perfbench_output(result={"correct": False}), "the output is wrong"),
        ("traced", perfbench_output(result={"correct": False}), "the output is wrong"),
        ("replay", perfbench_output(result={"failed": 1}), "1 ops failed"),
        ("traced", perfbench_output(result={"failed": 2}), "2 ops failed"),
        ("replay", perfbench_output(run={"reference_checked": False}), "the stored outputs were not compared"),
        ("replay", perfbench_output(last="Traceback (most recent call last):"), "not perfbench output"),
        ("traced", perfbench_output(last='{"correct": true}'), "not perfbench output"),
        ("replay", "", "not perfbench output"),
    ],
    ids=["wrong", "wrong-traced", "failed-op", "failed-op-traced", "unchecked", "malformed", "no-failed", "empty"],
)
def test_bench_results_fails_a_bad_run(mode, output, reason):
    code, out, err = bench_results(mode, stdin=output)
    assert (code, out) == (1, "") and err.startswith(f"{mode}: {reason}")


def test_an_unchecked_reference_passes_a_traced_round():
    # a traced round compares no stored output, so only the result line is read
    assert bench_results("traced", stdin=perfbench_output(run={"reference_checked": False})) == (0, "", "")


def test_the_learner_trace_reports_each_seed():
    # the calls and the outcome are those of the same learner run here: the least of the 16
    # entries that accepts each 16-bit-grid prefix
    out = subprocess.run(
        [sys.executable, str(TOOLS / "learner_trace.py"), str(TOOLS.parent), "512"],
        capture_output=True,
        text=True,
        check=True,
    )
    head = "class-A learner trace (16 bernoulli(i/17), truth 5/17, c = 8, a guess every 16 bits to 512): "
    assert out.stdout.startswith(head)
    seeds = re.findall(r"seed (\d): \d+\.\d\d s, (\d+) verdict calls, (EX at \d+|not converged by 512)", out.stdout)
    table = ProgramTable([ExactMeasureEntry(bernoulli(Fraction(i, 17))) for i in range(1, 17)])
    want = []
    for seed in (0, 1):
        x, calls, guesses = sample_stream(bernoulli(Fraction(5, 17)), seed, 512), 0, []
        for n in range(16, 513, 16):
            verdicts = (random_verdict(table, ComplexityEstimator(), e, x[:n], 8) for e in range(16))
            guesses.append(next((e for e, ok in enumerate(verdicts) if ok), None))
            calls += 16 if guesses[-1] is None else guesses[-1] + 1
        last = len(list(itertools.takewhile(lambda g: g == 4, reversed(guesses))))  # true guesses at the end
        want.append((str(seed), str(calls), f"EX at {16 * (33 - last)}" if last else "not converged by 512"))
    assert seeds == want
