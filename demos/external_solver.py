"""Bridge an external solver process into the toolkit.

Any executable that reads one whitespace-separated design vector per stdin
line and answers each with one decimal real per stdout line, in order, can
serve as a performance evaluator.  Sampling writes requests ahead of the
answers, so the executable must read its input as a stream: several
requests may be waiting when it takes the next one.  Here the "solver" is
this package's own line-protocol server (python3 -m tolalloc.serve), but
the same wiring works for a compiled simulation code.

Run with:  python3 demos/external_solver.py
"""

import sys

import numpy as np

from tolalloc import Interval, draw_samples
from tolalloc.evaluator import ExternalEvaluator, make_builtin

COMMAND = [
    sys.executable, "-m", "tolalloc.serve",
    "quadratic-bowl", "--parameters", '{"a": [1.0, 4.0]}',
]


def main():
    reference = make_builtin("quadratic-bowl", {"a": [1.0, 4.0]})

    with ExternalEvaluator(COMMAND, dim=2, timeout_seconds=30.0) as external:
        # Point queries round-trip through the child process.
        for mu in ([0.0, 0.0], [0.5, -0.25], [1.0, 0.5]):
            got = external(mu)
            want = reference(mu)
            print(f"Q({mu}) = {got:.12f}  (builtin: {want:.12f})")

        # The bridge plugs into the same sampling harness as builtins: the
        # resident child gets all 50 points as one pipelined batch, and
        # close() at the end of the block fails if it wrote any stray output.
        intervals = (Interval(-1.0, 1.0), Interval(-0.5, 0.5))
        samples = draw_samples(external, intervals, 50, seed=7)
        builtin_samples = draw_samples(reference, intervals, 50, seed=7)
        max_diff = np.max(np.abs(samples.values - builtin_samples.values))
        print()
        print(f"drew {len(samples)} samples over {intervals}")
        print(f"max |external - builtin| over the batch: {max_diff:.3e}")

    print()
    print("The line protocol transmits full-precision reprs, so external and")
    print("builtin evaluations agree bit for bit and downstream fits and")
    print("allocations are identical.")


if __name__ == "__main__":
    main()
