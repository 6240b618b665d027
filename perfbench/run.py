"""Benchmark of the ``tolalloc`` CLI pipeline, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bowl-d2 --seed 1 --seconds 10 --trace 0

Each CLI command runs in its own ``python -m tolalloc.cli`` process, one after
another, as a user would run them.  With ``--trace 0`` the pipeline is run in
passes (at least two, and more while ``--seconds`` has not elapsed) and the
end-to-end metrics are medians over the passes.  With ``--trace 1`` one
untraced pass is followed by two traced passes, whose spans give the
per-layer metrics.  Every pass is checked against closed-form oracles, and
its artifacts must match the first pass byte for byte.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 if any check failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import procs
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3
MIN_PASSES = 2
TRACED_PASSES = 2
COMMANDS = spans.CLI_COMMANDS

END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "fit_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{command}.self_s": "s" for command in COMMANDS},
    "cli.artifact_bytes": "bytes",
    "domain.size_bounding_box.s": "s",
    "domain.evaluator_calls": "count",
    "evaluator.calls": "count",
    "evaluator.busy_s": "s",
    "evaluator.round_trip_us.p50": "us",
    "evaluator.round_trip_us.ptail": "us",
    "evaluator.round_trip_us.n": "count",
    "evaluator.spawn_s": "s",
    "evaluator.spawns": "count",
    "evaluator.failures": "count",
    "evaluator.leaked_children": "count",
    "surrogate.als_fit.s": "s",
    "surrogate.als_fit.sweeps": "count",
    "surrogate.als_fit.s_per_sweep": "s",
    "surrogate.als_fit.final_rank": "count",
    "surrogate.eval_many.calls": "count",
    "surrogate.eval_many.points": "count",
    "surrogate.eval_many.s": "s",
    "surrogate.grad_many.calls": "count",
    "surrogate.grad_many.points": "count",
    "surrogate.grad_many.s": "s",
    "boxmax.g_requests": "count",
    "boxmax.box_maximize.calls": "count",
    "boxmax.box_maximize.self_s": "s",
    "boxmax.box_maximize.ms_per_call.p50": "ms",
    "boxmax.box_maximize.ms_per_call.ptail": "ms",
    "boxmax.box_maximize.ms_per_call.n": "count",
    "boxmax.points_per_call": "count",
    "boxmax.cache_hit_ratio": "ratio",
    "manifold.iterations": "count",
    "manifold.line_search.calls": "count",
    "manifold.retract.calls": "count",
    "manifold.retract.failures": "count",
    "manifold.g_requests_per_iteration": "count",
    "manifold.self_s": "s",
    "manifold.initial_guess.s": "s",
    "metrics.surrogate_errors.s": "s",
    "metrics.allocation_errors.s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "size_domain_s": "s",
    "sample_s": "s",
    "allocate_s": "s",
    "check_s": "s",
    "tau_err_inf": "mu",
    "g_residual": "rel",
    "holdout_max_rel": "rel",
    "failed_ops": "ratio",
}

# Per-layer figures that must repeat exactly between two traced passes.
COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")
) + ("boxmax.cache_hit_ratio",)


@dataclass
class PassResult:
    steps: list               # workloads.Step per step that ran
    finished: list            # procs.Finished per step that ran
    errors: dict              # step index -> list of messages
    accuracy: dict
    digests: dict             # artifact name -> sha256
    artifact_bytes: int
    records: list             # traced command records, empty when untraced

    def time(self, kind: str | None = None, raw: bool = False) -> float:
        """Summed time of the steps of one kind (all steps if None), at the
        reference CPU speed, or as wall time if ``raw``."""
        return sum(f.wall_s if raw else f.ref_s for step, f in zip(self.steps, self.finished)
                   if kind is None or step.kind == kind)


def child_env() -> dict:
    """Environment of every command: the package from ``src/``, and BLAS on
    one thread.  A multi-threaded BLAS call waits for its slowest thread, so
    on a host whose other cores are shared its time follows the neighbours'
    load; single-threaded, the 50 000-sample fit of ``external-d2`` ran both
    faster and steadier."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in BLAS_THREAD_VARIABLES:
        env[name] = "1"
    return env


def run_pass(plan, pass_dir: Path, env: dict, traced: bool, run_id: str) -> PassResult:
    """Run the plan's commands in order in a fresh directory and check them."""
    pass_dir.mkdir(parents=True)
    for name, text in plan.files.items():
        (pass_dir / name).write_text(text)
    finished, records = [], []
    errors: dict = {}
    for index, step in enumerate(plan.steps):
        if traced:
            record = pass_dir / f"record{index}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(record), run_id, "--"]
        else:
            argv = [sys.executable, "-m", "tolalloc.cli"]
        done = procs.run(argv + list(step.args), env, str(pass_dir))
        finished.append(done)
        if done.returncode != 0:
            errors[index] = [f"exit {done.returncode}: {done.stderr.strip()[-300:]}"]
            break
        if traced:
            records.append(json.loads(record.read_text()))
    accuracy: dict = {}
    if not errors:
        try:
            found, accuracy = plan.check(pass_dir, finished)
            errors = {i: msgs for i, msgs in found.items() if msgs}
        except Exception as exc:  # a malformed artifact; counted against the last step
            errors = {len(plan.steps) - 1: [f"output check raised {exc!r}"]}
    digests, size = {}, 0
    for step in plan.steps[: len(finished)]:
        for name in step.artifacts:
            path = pass_dir / name
            if path.exists():
                data = path.read_bytes()
                digests[name] = hashlib.sha256(data).hexdigest()
                size += len(data)
    return PassResult(plan.steps[: len(finished)], finished, errors, accuracy, digests,
                      size, records)


def run_setup(env: dict, work: Path) -> procs.Finished:
    """One ``tolalloc --help`` process: the fixed cost every command pays."""
    return procs.run([sys.executable, "-m", "tolalloc.cli", "--help"], env, str(work))


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {p}" for p in problems)

    def add_pass(self, label: str, plan, result: PassResult, reference: PassResult) -> None:
        for index, step in enumerate(plan.steps):
            if index >= len(result.finished):
                self.add(f"{label} {step.kind}", ["not run: an earlier step failed"])
                continue
            problems = list(result.errors.get(index, []))
            for name in step.artifacts:
                if result.digests.get(name) != reference.digests.get(name):
                    problems.append(f"{name} differs from the first pass")
            self.add(f"{label} {step.kind}", problems)


def end_to_end(passes: list[PassResult], setups: list[procs.Finished],
               raw: bool = False) -> dict:
    """Medians over the passes: times at the reference CPU speed, or wall
    times if ``raw``."""
    metrics = {
        "pipeline_s": statistics.median(p.time(raw=raw) for p in passes),
        "setup_s": statistics.median(s.wall_s if raw else s.ref_s for s in setups),
        "peak_rss_mb": statistics.median(
            max(f.maxrss_kb for f in p.finished) / 1024.0 for p in passes
        ),
    }
    for command in COMMANDS:
        if any(step.kind == command for step in passes[0].steps):
            metrics[f"{command}_s"] = statistics.median(p.time(command, raw) for p in passes)
    return metrics


def per_layer(baseline: PassResult, traced: list[PassResult], tally: Tally) -> dict:
    """Counts of the first traced pass (checked against the others), medians
    of the times, and the tracing overhead against the untraced pass."""
    layers = [spans.pass_layers(p.records) for p in traced]
    counted = [name for name in COUNTS if name in layers[0]]
    mismatched = [name for name in counted if len({repr(l[name]) for l in layers}) > 1]
    tally.add("traced count repeat", [f"{name} differs between traced passes"
                                      for name in mismatched])
    metrics = {name: layers[0][name] for name in counted}
    for name in PER_LAYER:
        if name not in metrics and name in layers[0]:
            metrics[name] = statistics.median(l[name] for l in layers)
    metrics["cli.artifact_bytes"] = baseline.artifact_bytes
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.time() for p in traced) / baseline.time() - 1.0
    )
    return metrics


def source_stamp() -> dict:
    """Code-size and provenance of the program under test."""
    loc, digest = {}, hashlib.sha256()
    for path in sorted((SRC / "tolalloc").glob("*.py")):
        data = path.read_bytes()
        loc[path.stem] = data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_loc": loc,
            "src_loc_total": sum(loc.values())}


def environment_stamp() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_lines(workload: str, passes, setups, metrics: dict, tally: Tally,
                 trace: int) -> list[str]:
    """Every figure of the run with its unit, for humans.

    The untraced run also prints the end-to-end figures that only some
    workloads have (``n/a`` where this one has none) and the wall times
    behind the reference-speed times.
    """
    if trace == 1:
        lines = [f"{name} = {_fmt(metrics[name])} {PER_LAYER[name]}"
                 for name in PER_LAYER if name in metrics]
    else:
        ref, wall = end_to_end(passes, setups), end_to_end(passes, setups, raw=True)
        lines = []
        for name in list(END_TO_END) + ["size_domain_s", "sample_s", "allocate_s", "check_s"]:
            if name not in ref:
                lines.append(f"{name} = n/a")
            elif name == "peak_rss_mb":
                lines.append(f"{name} = {_fmt(ref[name])} MB")
            else:
                lines.append(f"{name} = {_fmt(ref[name])} s (wall {_fmt(wall[name])} s)")
        for name in ("tau_err_inf", "g_residual", "holdout_max_rel"):
            value = passes[0].accuracy.get(name)
            lines.append(f"{name} = {_fmt(value)} {PER_LAYER[name]}" if value is not None
                         else f"{name} = n/a")
        lines.append(f"failed_ops = {_fmt(tally.failed / tally.attempted)} ratio")
    lines.append(f"ops: {tally.failed} failed of {tally.attempted} attempted")
    return [f"[{workload}] {line}" for line in lines]


def measure(workload: str, args, work: Path) -> tuple[dict, Tally, dict]:
    """Run one workload; return its metrics, the tally and what to record."""
    plan = workloads.WORKLOADS[workload](args.seed)
    env = child_env()
    tally = Tally()
    label = f"{workload}/{args.seed}"
    detail: dict = {}
    if args.trace == 0:
        setups = [run_setup(env, work) for _ in range(SETUP_RUNS)]
        for setup in setups:
            ok = setup.returncode == 0 and "usage" in setup.stdout
            tally.add("setup", [] if ok else [f"--help exit {setup.returncode}"])
        passes: list[PassResult] = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            k = len(passes)
            passes.append(run_pass(plan, work / f"pass{k}", env, False, f"{label}/pass{k}"))
            tally.add_pass(f"pass{k}", plan, passes[-1], passes[0])
            if passes[-1].errors:
                break
        ok = not any(p.errors for p in passes)
        metrics = {name: value for name, value in end_to_end(passes, setups).items()
                   if name in END_TO_END} if ok else {}
        detail["passes"] = len(passes)
        detail["wall"] = end_to_end(passes, setups, raw=True) if ok else {}
    else:
        setups = []
        baseline = run_pass(plan, work / "pass0", env, False, f"{label}/pass0")
        tally.add_pass("pass0", plan, baseline, baseline)
        passes = [baseline]
        for k in range(1, TRACED_PASSES + 1):
            passes.append(run_pass(plan, work / f"pass{k}", env, True, f"{label}/pass{k}"))
            tally.add_pass(f"traced{k}", plan, passes[-1], baseline)
        metrics = {}
        if not any(p.errors for p in passes):
            metrics = per_layer(baseline, passes[1:], tally)
            for command in ("size_domain", "sample", "allocate", "check"):
                metrics[f"{command}_s"] = baseline.time(command)
            for name in ("tau_err_inf", "g_residual", "holdout_max_rel"):
                metrics[name] = baseline.accuracy.get(name, 0.0)
            metrics["failed_ops"] = tally.failed / tally.attempted
        detail["spans"] = [span for p in passes[1:] for r in p.records for span in r["spans"]]
    detail["lines"] = report_lines(workload, passes, setups, metrics, tally,
                                   args.trace) if metrics else []
    detail["plan"] = plan.description
    return metrics, tally, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tolalloc" / "cli.py").is_file():
        print(f"error: no tolalloc sources under {SRC}", file=sys.stderr)
        return 2
    workload = args.workload
    procs.become_subreaper()
    OUT.mkdir(exist_ok=True)
    stamp = {"workload": workload, "seed": args.seed, "trace": args.trace,
             **environment_stamp(), **source_stamp()}
    print(f"[{workload}] env {json.dumps(stamp, sort_keys=True)}", flush=True)

    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=OUT))
    try:
        metrics, tally, detail = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in tally.messages:
        print(f"[{workload}] FAIL {message}", flush=True)
    for line in detail.pop("lines"):
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    correct = tally.failed == 0 and set(metrics) == set(units)
    stem = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in detail:
        stem.with_suffix(".spans.json").write_text(json.dumps(detail.pop("spans")))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {**result, "env": stamp, "detail": detail, "failures": tally.messages},
        indent=2, sort_keys=True,
    ))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
