"""The scripts in tools/, each run on a small tree of its own: the code-line counter, the
unused-import and dead-name scanners that CI runs, and the fresh-import timer."""

import pathlib
import re
import subprocess
import sys

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
