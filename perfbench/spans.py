"""Span arithmetic: self time, tail percentiles and per-layer aggregation.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent`` (the id
of the enclosing span or None), ``run`` (the run id) and optional ``error``
and ``meta`` fields.  One traced command process writes one list of spans;
ids are unique within that list only.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried for a tail figure, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

CLI_COMMANDS = ("size_domain", "sample", "fit", "allocate", "check")


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children's intervals."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = union_length(
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], ())
            if min(e, span["end"]) > max(s, span["start"])
        )
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def rank_of(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(sorted_values, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule."""
    return sorted_values[rank_of(pct, len(sorted_values)) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """Return ``(pct, value)`` for the highest ladder percentile with at least
    ``MIN_BEYOND`` samples above its rank.  With too few samples for any rung
    the median is returned as ``(50.0, median)``; with none, ``(0.0, 0.0)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    for pct in TAIL_LADDER:
        rank = rank_of(pct, n)
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, nearest_rank(ordered, 50.0)


def _distribution(prefix: str, values, scale: float) -> dict:
    ordered = sorted(values)
    pct, tail = tail_percentile(ordered)
    return {
        f"{prefix}.p50": nearest_rank(ordered, 50.0) * scale if ordered else 0.0,
        f"{prefix}.ptail": tail * scale,
        f"{prefix}.ptail_pct": pct,
        f"{prefix}.n": len(ordered),
    }


def _duration(span) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def command_layers(record: dict) -> dict:
    """Per-layer figures of one traced command process.

    ``record`` is what ``traced_cli.py`` writes: ``spans``, ``import_s``,
    ``counters`` and ``command``.
    """
    spans = record["spans"]
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)

    def named(*names):
        return [span for span in spans if span["name"] in names]

    def under(span, prefix: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor["name"].startswith(prefix):
                return True
            parent = ancestor["parent"]
        return False

    evaluator_calls = named("evaluator.call")
    spawn_calls = [s for s in evaluator_calls if s.get("meta", {}).get("spawn")]
    round_trips = [s for s in evaluator_calls if not s.get("meta", {}).get("spawn")]
    fits = named("surrogate.als_fit")
    evals = named("surrogate.eval_many")
    grads = named("surrogate.grad_many")
    g_requests = named("boxmax.G.value", "boxmax.G.grad")
    boxmax_calls = named("boxmax.box_maximize")
    retracts = named("manifold.retract")
    counters = record["counters"]

    out = {
        "cli.import_s": record["import_s"],
        "domain.size_bounding_box.s": sum(map(_duration, named("domain.size_bounding_box"))),
        "domain.evaluator_calls": sum(
            1 for s in evaluator_calls if under(s, "domain.size_bounding_box")
        ),
        "evaluator.calls": len(evaluator_calls),
        "evaluator.busy_s": sum(map(_duration, evaluator_calls)),
        "evaluator.spawn_s": sum(map(_duration, spawn_calls)),
        "evaluator.spawns": len(spawn_calls),
        "evaluator.failures": sum(1 for s in evaluator_calls if s.get("error")),
        # Every child started (restarts too) that no close() stopped.
        "evaluator.leaked_children": len(spawn_calls) - sum(
            1 for s in named("evaluator.close") if s.get("meta", {}).get("live")
        ),
        "surrogate.als_fit.s": sum(map(_duration, fits)),
        "surrogate.als_fit.sweeps": counters.get("surrogate.als_fit.sweeps", 0),
        "surrogate.als_fit.final_rank": counters.get("surrogate.als_fit.final_rank", 0),
        "surrogate.eval_many.calls": len(evals),
        "surrogate.eval_many.points": sum(s["meta"]["points"] for s in evals),
        "surrogate.eval_many.s": sum(map(_duration, evals)),
        "surrogate.grad_many.calls": len(grads),
        "surrogate.grad_many.points": sum(s["meta"]["points"] for s in grads),
        "surrogate.grad_many.s": sum(map(_duration, grads)),
        "boxmax.g_requests": len(g_requests),
        "boxmax.box_maximize.calls": len(boxmax_calls),
        "boxmax.box_maximize.self_s": sum(own[s["id"]] for s in boxmax_calls),
        "boxmax.starts": counters.get("boxmax.starts", 0),
        "manifold.iterations": counters.get("manifold.iterations", 0),
        "manifold.line_search.calls": len(named("manifold.line_search")),
        "manifold.retract.calls": len(retracts),
        "manifold.retract.failures": sum(
            1 for s in retracts if s.get("error") == "RetractionError"
        ),
        "manifold.traversal_g_requests": sum(
            1 for s in g_requests if under(s, "manifold.gradient_ascent")
            or under(s, "manifold.conjugate_gradient")
        ),
        "manifold.self_s": sum(
            own[s["id"]] for s in spans if s["name"].startswith("manifold.")
        ),
        "manifold.initial_guess.s": sum(map(_duration, named("manifold.initial_guess"))),
        "metrics.surrogate_errors.s": sum(map(_duration, named("metrics.surrogate_errors"))),
        "metrics.allocation_errors.s": sum(map(_duration, named("metrics.allocation_errors"))),
        "trace.spans": len(spans),
        "_round_trip_s": [_duration(s) for s in round_trips],
        "_box_maximize_s": [_duration(s) for s in boxmax_calls],
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = sum(
            own[s["id"]] for s in named(f"cli.cmd_{command}")
        )
    return out


# Figures summed over a pass's commands; everything else is derived below.
_SUMMED = (
    "domain.size_bounding_box.s", "domain.evaluator_calls", "evaluator.calls",
    "evaluator.busy_s", "evaluator.spawn_s", "evaluator.spawns", "evaluator.failures",
    "evaluator.leaked_children", "surrogate.als_fit.s", "surrogate.als_fit.sweeps",
    "surrogate.eval_many.calls", "surrogate.eval_many.points", "surrogate.eval_many.s",
    "surrogate.grad_many.calls", "surrogate.grad_many.points", "surrogate.grad_many.s",
    "boxmax.g_requests", "boxmax.box_maximize.calls", "boxmax.box_maximize.self_s",
    "boxmax.starts", "manifold.iterations", "manifold.line_search.calls",
    "manifold.retract.calls", "manifold.retract.failures", "manifold.traversal_g_requests",
    "manifold.self_s", "manifold.initial_guess.s", "metrics.surrogate_errors.s",
    "metrics.allocation_errors.s", "trace.spans",
) + tuple(f"cli.{command}.self_s" for command in CLI_COMMANDS)


def pass_layers(records) -> dict:
    """Per-layer metrics of one traced pass, from its command records."""
    per_command = [command_layers(record) for record in records]
    out = {key: sum(c[key] for c in per_command) for key in _SUMMED}
    out["cli.import_s"] = statistics.median(c["cli.import_s"] for c in per_command)
    out["surrogate.als_fit.final_rank"] = max(
        (c["surrogate.als_fit.final_rank"] for c in per_command), default=0
    )
    out["surrogate.als_fit.s_per_sweep"] = _ratio(
        out["surrogate.als_fit.s"], out["surrogate.als_fit.sweeps"]
    )
    out["boxmax.points_per_call"] = _ratio(
        out["boxmax.starts"], out["boxmax.box_maximize.calls"]
    )
    out["boxmax.cache_hit_ratio"] = (
        1.0 - _ratio(out["boxmax.box_maximize.calls"], out["boxmax.g_requests"])
        if out["boxmax.g_requests"] else 0.0
    )
    out["manifold.g_requests_per_iteration"] = _ratio(
        out["manifold.traversal_g_requests"], out["manifold.iterations"]
    )
    round_trips = [v for c in per_command for v in c["_round_trip_s"]]
    box_calls = [v for c in per_command for v in c["_box_maximize_s"]]
    out.update(_distribution("evaluator.round_trip_us", round_trips, 1e6))
    out.update(_distribution("boxmax.box_maximize.ms_per_call", box_calls, 1e3))
    return out
