"""Time the measure learner's class-A trace under a checkout root, for seeds 0 and 1.

Class A is 16 exact ``bernoulli(i/17)`` entries, i = 1..16; the stream is a ``bernoulli(5/17)``
sample.  At every 16th bit the learner guesses the least index whose ``random_verdict`` accepts
the prefix at c = 8.  The EX point is the first guess from which every guess is the true index.
Prints one line with each seed's time (the least of three runs, as the host's speed drifts),
verdict calls and EX point:

    python3 tools/learner_trace.py <checkout root> [bits]

bits (default 4096) is the stream length, a multiple of 16.
"""

import pathlib, sys, time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(sys.argv[1], "src")))
from cantorlearn.measures import bernoulli, sample_stream  # noqa: E402
from cantorlearn.programs import ExactMeasureEntry, ProgramTable  # noqa: E402
from cantorlearn.randomness import ComplexityEstimator, random_verdict  # noqa: E402

BITS = int(sys.argv[2]) if len(sys.argv) > 2 else 4096
GRID, C, TRUTH = 16, 8, 4  # bernoulli(5/17) is the fifth entry


def trace(x: str) -> tuple[int, str]:
    table = ProgramTable([ExactMeasureEntry(bernoulli(Fraction(i, 17))) for i in range(1, 17)])
    est, calls, ex = ComplexityEstimator(), 0, None  # ex: the first grid point of the current run of true guesses
    for n in range(GRID, BITS + 1, GRID):
        guess = None
        for e in range(len(table.entries)):
            calls += 1
            if random_verdict(table, est, e, x[:n], C):
                guess = e
                break
        ex = (ex or n) if guess == TRUTH else None
    return calls, f"EX at {ex}" if ex else f"not converged by {BITS}"


def timed(seed: int) -> tuple[int, float, int, str]:
    x, best = sample_stream(bernoulli(Fraction(5, 17)), seed, BITS), float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        calls, ex = trace(x)
        best = min(best, time.perf_counter() - t0)
    return seed, best, calls, ex


if __name__ == "__main__":
    runs = [timed(seed) for seed in (0, 1)]
    print(
        f"class-A learner trace (16 bernoulli(i/17), truth 5/17, c = {C}, a guess every {GRID} bits to {BITS}): "
        + "; ".join(f"seed {s}: {t:.2f} s, {calls} verdict calls, {ex}" for s, t, calls, ex in runs)
    )
