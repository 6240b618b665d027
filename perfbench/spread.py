"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload bowl-d6 --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
each metric the median, the quartiles and the spread (interquartile range as
a share of the median), next to the bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        figures = " ".join(f"{name}={metric['value']:.6g}"
                           for name, metric in result["metrics"].items())
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} "
              f"took {time.perf_counter() - start:.1f}s {figures}", flush=True)

    for name, series in values.items():
        if len(series) < 2:
            continue
        median, q1, q3, iqr = spread(series)
        bound = bounds[name]
        note = f"  bound {bound}  {'ok' if iqr <= bound / 3 else 'WIDE'}"
        print(f"{name:40s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {iqr:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
