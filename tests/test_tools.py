"""The code-line counter in tools/, on a small tree of its own."""

import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

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
