"""Batch front end: sample generation, surrogate fitting, domain sizing,
tolerance allocation, verification, and report emission.

One JSON config file drives one reproducible run; flags override config
fields.  Exit codes: 0 success, 1 threshold/constraint failure, 2 usage/IO
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import boxmax, evaluator as evaluator_mod, manifold, measures, metrics
from .domain import BoundingBox, ConstraintError, SamplingDomain, size_bounding_box
from .evaluator import EvaluatorError
from .surrogate import FitConfig, FitError, Interval, SampleSet, SeparatedModel, als_fit

CONFIG_FORMAT_VERSION = 1
EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _atomic_write(path, write) -> None:
    """Call ``write(tmp)`` on a fresh temporary file beside ``path``, then
    rename it over ``path``, so readers never see a partial artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def _load_json(path, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc}")


def load_config(path) -> dict:
    config = _load_json(path, "config")
    version = config.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        raise UsageError(f"unsupported config format_version {version!r} in {path}")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise UsageError(f"config is missing required field {key!r}")
    return config[key]


def _seed_of(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    raise UsageError("--seed is required when the config has no seed field")


def _section(cls, name: str, fields, **defaults):
    """Build ``cls`` from a config section; unknown keys are a usage error."""
    try:
        return cls(**{**defaults, **fields})
    except TypeError as exc:
        raise UsageError(f"malformed {name!r} section in config: {exc}")


@contextmanager
def _open_evaluator(config: dict):
    """The config's evaluator, closed (child processes stopped) on exit."""
    try:
        evaluator = evaluator_mod.from_config(_require(config, "evaluator"))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad evaluator spec: {exc}")
    try:
        yield evaluator
    finally:
        evaluator_mod.close_evaluator(evaluator)


def _domain_from(args, config: dict) -> tuple[BoundingBox | None, list[Interval]]:
    """Domain intervals from --domain file or the config, in that order."""
    if getattr(args, "domain", None):
        data = _load_json(args.domain, "domain")
        bbox = BoundingBox(
            tau_min=np.asarray(data["tau_min"], dtype=float),
            tau_max=np.asarray(data["tau_max"], dtype=float),
        )
        intervals = [Interval(float(lo), float(hi)) for lo, hi in data["sampling_domain"]]
        return bbox, intervals
    if "sampling_domain" in config:
        return None, [Interval(float(lo), float(hi)) for lo, hi in config["sampling_domain"]]
    raise UsageError("need --domain FILE or a sampling_domain entry in the config")


def _gfun_for(model: SeparatedModel, config: dict) -> boxmax.SurrogateWorstCase:
    nominal = np.asarray(_require(config, "nominal"), dtype=float)
    bm_config = _section(boxmax.BoxMaxConfig, "boxmax", config.get("boxmax", {}))
    return boxmax.SurrogateWorstCase(model, nominal, bm_config)


def _measure_for(config: dict, model: SeparatedModel | None):
    nominal = np.asarray(_require(config, "nominal"), dtype=float)
    return measures.from_config(_require(config, "measure"), model=model, mu_hat=nominal)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    config = load_config(args.config)
    _, intervals = _domain_from(args, config)
    seed = _seed_of(args, config)
    with _open_evaluator(config) as evaluator:
        samples = evaluator_mod.draw_samples(evaluator, intervals, args.n, seed)
    _atomic_write(args.out, samples.write_csv)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_size_domain(args) -> int:
    config = load_config(args.config)
    nominal = np.asarray(_require(config, "nominal"), dtype=float)
    q_allow = float(_require(config, "q_allow"))
    overrides = config.get("bbox", {})
    caps = np.asarray(overrides.get("caps", 10.0), dtype=float)
    tau_min = overrides.get("tau_min")
    with _open_evaluator(config) as evaluator:
        bbox, sampling = size_bounding_box(evaluator, nominal, q_allow, caps, tau_min=tau_min)
    if "tau_max" in overrides:
        bbox = BoundingBox(
            tau_min=bbox.tau_min,
            tau_max=np.minimum(bbox.tau_max, np.asarray(overrides["tau_max"], dtype=float)),
        )
        sampling = SamplingDomain.from_tau_max(nominal, bbox.tau_max)
    capped = [bool(t >= c) for t, c in zip(bbox.tau_max, np.broadcast_to(caps, nominal.shape))]
    _write_json(args.out, {
        "format_version": 1,
        "tau_min": bbox.tau_min.tolist(),
        "tau_max": bbox.tau_max.tolist(),
        "sampling_domain": [[iv.lo, iv.hi] for iv in sampling.intervals],
        "capped": capped,
    })
    print(f"tau_max = {bbox.tau_max.tolist()}")
    if any(capped):
        print("warning: some axes hit the search cap", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    config = load_config(args.config)
    _, intervals = _domain_from(args, config)
    seed = _seed_of(args, config)
    fit_config = _section(FitConfig, "fit", _require(config, "fit"), seed=seed)
    if not Path(args.samples).exists():
        raise UsageError(f"missing sample file {args.samples}")
    samples = SampleSet.read_csv(args.samples)
    model, report = als_fit(samples, fit_config, intervals)
    _write_json(args.out, model.to_dict())
    summary = {
        "final_rank": report.final_rank,
        "sweeps_used": report.sweeps_used,
        "final_residual": report.residual_history[-1],
        "converged": report.converged,
    }
    if args.holdout:
        holdout = SampleSet.read_csv(args.holdout)
        summary["holdout"] = metrics.surrogate_errors(model, holdout).to_dict()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_allocate(args) -> int:
    config = load_config(args.config)
    model = SeparatedModel.from_dict(_load_json(args.model, "model"))
    bbox, _ = _domain_from(args, config)
    if bbox is None:
        raise UsageError("allocate requires --domain FILE with tau_min/tau_max")
    q_allow = float(_require(config, "q_allow"))
    gfun = _gfun_for(model, config)
    measure = _measure_for(config, model)
    traversal = _section(manifold.TraversalConfig, "traversal", config.get("traversal", {}))
    tau0 = manifold.initial_guess(bbox, measure, gfun, q_allow, traversal.retraction_tol)
    run = manifold.gradient_ascent if args.method == "ga" else manifold.conjugate_gradient
    result = run(tau0, bbox, gfun, q_allow, measure, traversal)
    _write_json(args.out, {
        "format_version": 1,
        "method": result.method,
        "tau": result.tau.tolist(),
        "f_opt": result.f_opt,
        "g_residual": result.g_residual,
        "iterations": result.iterations,
        "stalled": result.stalled,
        "restarts": result.trace.restarts,
    })
    if args.trace:
        _atomic_write(args.trace, result.trace.write_csv)
    if args.emit_manifold_scan:
        _emit_manifold_scan(args.emit_manifold_scan, gfun, bbox)
    print(f"tau_hat = {result.tau.tolist()}  F = {result.f_opt}")
    return EXIT_OK


def _emit_manifold_scan(path, gfun, bbox: BoundingBox, resolution: int = 101) -> None:
    if bbox.dim != 2:
        raise UsageError("--emit-manifold-scan requires a 2-parameter problem")
    axis_1 = np.linspace(bbox.tau_min[0], bbox.tau_max[0], resolution)
    axis_2 = np.linspace(bbox.tau_min[1], bbox.tau_max[1], resolution)
    lines = ["tau_1,tau_2,G"]
    for t1 in axis_1:
        for t2 in axis_2:
            g = gfun.value(np.array([t1, t2]))
            lines.append(f"{t1!r},{t2!r},{g!r}")
    _atomic_write(path, lambda tmp: Path(tmp).write_text("\n".join(lines) + "\n"))


def cmd_check(args) -> int:
    config = load_config(args.config)
    candidate = _load_json(args.tau, "tolerance result")
    reference = _load_json(args.reference, "reference result")
    try:
        tau = np.asarray(candidate["tau"], dtype=float)
        tau_ref = np.asarray(reference["tau"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed tolerance file: {exc}")
    model = SeparatedModel.from_dict(_load_json(args.model, "model"))
    gfun = _gfun_for(model, config)
    measure = _measure_for(config, model)
    q_allow = float(_require(config, "q_allow"))
    report = metrics.allocation_errors(tau, tau_ref, measure, gfun, q_allow)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    thresholds = config.get("check_thresholds", {})
    failed = [
        name for name, limit in thresholds.items()
        if getattr(report, name) > float(limit)
    ]
    if failed:
        print(f"thresholds exceeded: {', '.join(sorted(failed))}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_report(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise UsageError(f"not a directory: {directory}")
    summary: dict = {"format_version": 1, "artifacts": {}}
    rows = []
    for path in sorted(directory.glob("*.json")):
        data = _load_json(path, "artifact")
        summary["artifacts"][path.name] = data
        if "tau" in data:
            rows.append((path.name, data.get("method", "?"), data["tau"], data.get("f_opt")))
    _write_json(directory / "summary.json", summary)
    if rows:
        print(f"{'artifact':<28} {'method':<7} {'F':<22} tau")
        for name, method, tau, f_opt in rows:
            print(f"{name:<28} {method:<7} {f_opt!r:<22} {tau}")
    print(f"wrote {directory / 'summary.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tolalloc",
        description="Worst-case tolerance allocation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw Monte Carlo samples of the evaluator")
    p.add_argument("--config", required=True)
    p.add_argument("--domain", help="domain file from size-domain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("size-domain", help="size the tolerance bounding box")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_size_domain)

    p = sub.add_parser("fit", help="fit a separated surrogate to samples")
    p.add_argument("--config", required=True)
    p.add_argument("--domain", help="domain file from size-domain")
    p.add_argument("--samples", required=True)
    p.add_argument("--holdout")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("allocate", help="solve the tolerance allocation problem")
    p.add_argument("--config", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=("ga", "cg"), default="ga")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--emit-manifold-scan")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("check", help="compare an allocation against a reference")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="summarize result artifacts in a directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (UsageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        FitError,
        EvaluatorError,
        ArithmeticError,
        manifold.RetractionError,
        manifold.InitializationError,
        manifold.DegenerateNormalError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
