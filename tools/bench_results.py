"""Read the benchmark's declaration and perfbench's output for CI, so that the workflow's
benchmark steps hold no Python:

    python3 tools/bench_results.py names BENCHMARK.json   # the workload names, on one line
    perfbench/run.py ... --trace 0 | python3 tools/bench_results.py replay
    perfbench/run.py ... --trace 1 | python3 tools/bench_results.py traced

perfbench/run.py exits 0 on a wrong output too, so its last line, the result object, is read:
it must say ``"correct": true`` and ``"failed": 0``.  A replay also reads the line before it,
the run object, whose ``reference_checked`` must be true: the stored outputs were compared.
A check that fails, or output that is not of this shape, exits 1 with the reason on stderr.
"""

import json
import sys


def problem(lines: list[str], replay: bool) -> str:
    """Why perfbench's output lines fail the check, "" when they pass."""
    try:
        result = json.loads(lines[-1])
        correct, failed = result["correct"], result["failed"]
        checked = json.loads(lines[-2])["run"]["reference_checked"] if replay else True
    except (IndexError, KeyError, TypeError, ValueError) as err:
        return f"not perfbench output ({type(err).__name__}: {err})"
    if correct is not True:
        return "the output is wrong"
    if failed != 0:
        return f"{failed} ops failed"
    if checked is not True:
        return "the stored outputs were not compared"
    return ""


def main(argv: list[str]) -> None:
    if argv[1:2] == ["names"] and len(argv) == 3:
        with open(argv[2]) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        if not names:
            sys.exit(f"{argv[2]} lists no workloads")
        print(" ".join(names))
    elif argv[1:] in (["replay"], ["traced"]):
        if why := problem(sys.stdin.read().splitlines(), argv[1] == "replay"):
            sys.exit(f"{argv[1]}: {why}")
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
