"""Run one ``tolalloc`` CLI command with spans around each module's public calls.

Usage::

    python perfbench/traced_cli.py RECORD_JSON RUN_ID -- CLI_ARGS...

The wrappers are installed from here; nothing in the package changes.  Spans
stay in memory and are written to RECORD_JSON, with the counters and the
import time of ``tolalloc.cli``, when the command returns.  The exit code is
the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from spans import CLI_COMMANDS

perf_counter = time.perf_counter


class Recorder:
    """In-memory spans and counters of one command process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent, error, meta]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, meta=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``meta(args)`` runs before the call and returns a dict stored on the
        span; ``after(result)`` runs on success.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None,
                    meta(args) if meta else None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if after:
                after(result)
            return result

        setattr(owner, attr, wrapper)

    def to_json(self) -> list[dict]:
        out = []
        for index, (name, start, end, parent, error, meta) in enumerate(self.spans):
            span = {"id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id}
            if error:
                span["error"] = error
            if meta:
                span["meta"] = meta
            out.append(span)
        return out


def _child_state(args):
    """Span meta of an external evaluator call: does it start a child?"""
    proc = args[0]._proc
    return {"spawn": True} if proc is None or proc.poll() is not None else None


def _close_state(args):
    """Span meta of ``ExternalEvaluator.close``: does it stop a live child?"""
    proc = args[0]._proc
    return {"live": True} if proc is not None and proc.poll() is None else None


def install(rec: Recorder, cli) -> None:
    """Wrap the public calls of every module the CLI pipeline goes through."""
    from tolalloc import boxmax, domain, evaluator, manifold, metrics, surrogate

    for command in CLI_COMMANDS:
        rec.wrap(cli, f"cmd_{command}", f"cli.cmd_{command}")

    # ``cli`` imported these by name, so its references are wrapped as well.
    rec.wrap(domain, "size_bounding_box", "domain.size_bounding_box")
    cli.size_bounding_box = domain.size_bounding_box
    rec.wrap(domain, "axis_threshold", "domain.axis_threshold")

    rec.wrap(evaluator, "draw_samples", "evaluator.draw_samples")
    for cls in list(evaluator.builtin_catalog().values()) + [evaluator.TabulatedEvaluator]:
        rec.wrap(cls, "__call__", "evaluator.call")
    rec.wrap(evaluator.ExternalEvaluator, "__call__", "evaluator.call", meta=_child_state)
    rec.wrap(evaluator.ExternalEvaluator, "close", "evaluator.close", meta=_close_state)

    def fit_done(result):
        report = result[1]
        rec.count("surrogate.als_fit.sweeps", report.sweeps_used)
        rec.counters["surrogate.als_fit.final_rank"] = report.final_rank

    rec.wrap(surrogate, "als_fit", "surrogate.als_fit", after=fit_done)
    cli.als_fit = surrogate.als_fit

    def points_of(args):
        points = args[1]
        return {"points": len(points) if getattr(points, "ndim", 1) > 1 else 1}

    rec.wrap(surrogate.SeparatedModel, "eval_many", "surrogate.eval_many", meta=points_of)
    rec.wrap(surrogate.SeparatedModel, "grad_many", "surrogate.grad_many", meta=points_of)

    rec.wrap(boxmax, "box_maximize", "boxmax.box_maximize")
    rec.wrap(boxmax, "grad_G", "boxmax.grad_G")
    rec.wrap(boxmax.SurrogateWorstCase, "value", "boxmax.G.value")
    rec.wrap(boxmax.SurrogateWorstCase, "grad", "boxmax.G.grad")
    starts = boxmax._starts

    def counted_starts(*args, **kwargs):
        points = starts(*args, **kwargs)
        rec.count("boxmax.starts", len(points))
        return points

    boxmax._starts = counted_starts

    def traversal_done(result):
        rec.count("manifold.iterations", result.iterations)

    for name in ("gradient_ascent", "conjugate_gradient"):
        rec.wrap(manifold, name, f"manifold.{name}", after=traversal_done)
    for name in ("initial_guess", "line_search", "retract"):
        rec.wrap(manifold, name, f"manifold.{name}")

    rec.wrap(metrics, "surrogate_errors", "metrics.surrogate_errors")
    rec.wrap(metrics, "allocation_errors", "metrics.allocation_errors")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    record_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    start = perf_counter()
    from tolalloc import cli
    import_s = perf_counter() - start

    rec = Recorder(run_id)
    install(rec, cli)
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    with open(record_path, "w") as fh:
        json.dump({
            "command": cli_args[0] if cli_args else "",
            "exit_code": code,
            "import_s": import_s,
            "counters": rec.counters,
            "spans": rec.to_json(),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
