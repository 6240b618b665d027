"""Batch front end: sample generation, surrogate fitting, domain sizing,
tolerance allocation, verification, and report emission.

One JSON config file drives one reproducible run; flags override config
fields.  Exit codes: 0 success, 1 threshold/constraint failure, 2 usage/IO
error, 3 numeric failure.  A query outside a tabulated evaluator's grid
(``DomainError``) and an undefined relative error (``MetricError``) are
numeric failures, although both subclass ``ValueError``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import boxmax, evaluator as evaluator_mod, manifold, measures, metrics
from .domain import BoundingBox, ConstraintError, size_bounding_box
from .evaluator import DomainError, EvaluatorError
from .surrogate import FitConfig, FitError, Interval, MissingFieldError, SampleSet, SeparatedModel
from .surrogate import als_fit, write_csv, write_json

CONFIG_FORMAT_VERSION = 1
CONFIG_FIELDS = {"format_version", "seed", "evaluator", "nominal", "q_allow", "measure", "fit",
                 "bbox", "check_thresholds"}
# The keys each object-valued config field accepts.  The ALS seed is the
# top-level ``seed`` (or ``--seed``), not a 'fit' key.
CONFIG_SECTION_FIELDS = {
    "bbox": {"caps", "tau_min"},
    "check_thresholds": {field.name for field in dataclasses.fields(metrics.AllocationErrorReport)},
    "fit": {field.name for field in dataclasses.fields(FitConfig)} - {"seed"},
}
EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _load_json(path, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc}")


def _load_object(path, what: str) -> dict:
    data = _load_json(path, what)
    if not isinstance(data, dict):
        raise UsageError(f"{what} file {path} must hold a JSON object")
    return data


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # excludes bool


def load_config(path) -> dict:
    config = _load_json(path, "config")
    objects = ("evaluator", "measure", *CONFIG_SECTION_FIELDS)
    if not isinstance(config, dict) or not all(
            isinstance(config.get(name, {}), dict) for name in objects):
        raise UsageError(f"config {path} and its {', '.join(map(repr, objects))} "
                         "fields must be JSON objects")
    version = config.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        raise UsageError(f"unsupported config format_version {version!r} in {path}")
    unknown = sorted(set(config) - CONFIG_FIELDS)
    if unknown:
        raise UsageError(f"unknown config field(s) {', '.join(unknown)} in {path}")
    for name, fields in CONFIG_SECTION_FIELDS.items():
        unknown = sorted(set(config.get(name, {})) - fields)
        if unknown:
            raise UsageError(f"malformed '{name}' section in config {path}: "
                             f"unknown field(s) {', '.join(unknown)}")
    for name, limit in config.get("check_thresholds", {}).items():
        if not _is_finite_number(limit):
            raise UsageError(f"'check_thresholds' field {name!r} must be a finite number, "
                             f"got {limit!r} in {path}")
    nominal = config.get("nominal")
    if "nominal" in config and not (isinstance(nominal, list) and nominal and all(
            type(value) in (int, float) for value in nominal)):  # excludes bool
        raise UsageError(f"config field 'nominal' must be a non-empty list of numbers, "
                         f"got {nominal!r} in {path}")
    if "q_allow" in config and not _is_finite_number(config["q_allow"]):
        raise UsageError(f"config field 'q_allow' must be a finite number, "
                         f"got {config['q_allow']!r} in {path}")
    seed = config.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise UsageError(f"config field 'seed' must be an integer >= 0, got {seed!r} in {path}")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise UsageError(f"config is missing required field {key!r}")
    return config[key]


def _seed_of(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in config:
        return config["seed"]
    raise UsageError("--seed is required when the config has no seed field")


@contextmanager
def _open_evaluator(config: dict):
    """The config's evaluator, closed (child processes stopped) on exit."""
    try:
        evaluator = evaluator_mod.from_config(_require(config, "evaluator"))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad evaluator spec: {exc}")
    try:
        yield evaluator
    finally:
        evaluator_mod.close_evaluator(evaluator)


def _domain_from(path) -> tuple[BoundingBox, list[Interval]]:
    """Bounding box and sampling intervals from a size-domain file."""
    data = _load_object(path, "domain")
    missing = sorted({"tau_min", "tau_max", "sampling_domain"} - set(data))
    if missing:
        raise UsageError(f"domain file {path} lacks field(s) {', '.join(missing)}")

    def field(name, parse):
        try:
            return parse(data[name])
        except (TypeError, ValueError) as exc:
            raise UsageError(f"field {name!r} of domain file {path} is malformed: {exc}")

    tau_min, tau_max = (field(name, lambda value: np.asarray(value, dtype=float))
                        for name in ("tau_min", "tau_max"))
    try:
        bbox = BoundingBox(tau_min, tau_max)
    except ValueError as exc:
        raise UsageError(f"fields 'tau_min' and 'tau_max' of domain file {path} "
                         f"are malformed: {exc}")
    intervals = field("sampling_domain",
                      lambda rows: [Interval(float(lo), float(hi)) for lo, hi in rows])
    if len(intervals) != bbox.dim:
        raise UsageError(f"domain file {path} has {len(intervals)} sampling_domain row(s) "
                         f"for {bbox.dim} tolerance(s)")
    return bbox, intervals


def _model_from(path) -> SeparatedModel:
    """Surrogate from a model file that ``fit`` wrote."""
    data = _load_object(path, "model")
    try:
        return SeparatedModel.from_dict(data)
    except MissingFieldError as exc:
        raise UsageError(f"model file {path} {exc}")
    except ValueError as exc:
        raise UsageError(f"bad model file {path}: {exc}")


def _tau_from(path, what: str) -> np.ndarray:
    """The ``tau`` vector of an ``allocate`` result file."""
    data = _load_object(path, what)
    try:
        tau = np.asarray(data["tau"], dtype=float)
        if tau.ndim == 1 and np.all(np.isfinite(tau)):
            return tau
    except (KeyError, TypeError, ValueError):
        pass
    raise UsageError(f"{what} file {path} lacks a 'tau' vector of finite numbers")


def _config_vectors(config: dict) -> dict:
    """The config fields that hold one number per parameter, by name."""
    spec = config.get("measure", {})
    kind = spec.get("kind")
    keys = measures.KIND_KEYS.get(kind, set()) if isinstance(kind, str) else set()
    return {"nominal": _require(config, "nominal"),
            **{f"measure.{key}": spec[key] for key in sorted(keys) if key in spec}}


def _check_dims(model: SeparatedModel, files: dict) -> None:
    """Exit 2, naming the file and the field, when a vector of ``files``
    ({path: {field: value}}) does not hold one number per model parameter."""
    for path, fields in files.items():
        for name, value in fields.items():
            if np.shape(value) != (model.dim,):
                raise UsageError(f"{name!r} in {path} must hold {model.dim} numbers, "
                                 "one per parameter of the model")


def _problem(config: dict, path, model: SeparatedModel):
    """G, the measure and Q_allow of ``allocate`` and ``check``."""
    nominal = np.asarray(_require(config, "nominal"), dtype=float)
    q_allow = float(_require(config, "q_allow"))
    try:
        model(nominal)
    except ValueError as exc:
        raise UsageError(f"'nominal' in config {path} lies outside the model's intervals: {exc}")
    try:
        measure = measures.from_config(_require(config, "measure"), model=model, mu_hat=nominal)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad 'measure' in config {path}: {exc}")
    return boxmax.SurrogateWorstCase(model, nominal), measure, q_allow


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    config = load_config(args.config)
    _, intervals = _domain_from(args.domain)
    seed = _seed_of(args, config)
    with _open_evaluator(config) as evaluator:
        samples = evaluator_mod.draw_samples(evaluator, intervals, args.n, seed)
    samples.write_csv(args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_size_domain(args) -> int:
    config = load_config(args.config)
    nominal = np.asarray(_require(config, "nominal"), dtype=float)
    q_allow = float(_require(config, "q_allow"))
    bbox_config = config.get("bbox", {})
    try:
        caps = np.broadcast_to(np.asarray(bbox_config.get("caps", 10.0), dtype=float),
                               nominal.shape)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"'bbox' field 'caps' in config {args.config} is malformed: {exc}")
    if not np.all(np.isfinite(caps) & (caps > 0.0)):
        raise UsageError(f"'bbox' field 'caps' in config {args.config} must be finite and "
                         f"> 0, got {bbox_config['caps']!r}")
    tau_min = bbox_config.get("tau_min", [0.0] * nominal.size)
    if not (isinstance(tau_min, list) and len(tau_min) == nominal.size
            and all(_is_finite_number(t) and t >= 0 for t in tau_min)):
        raise UsageError(f"'bbox' field 'tau_min' in config {args.config} must be a list of "
                         f"{nominal.size} numbers >= 0, one per 'nominal' entry, got {tau_min!r}")
    with _open_evaluator(config) as evaluator:
        sized, intervals = size_bounding_box(evaluator, nominal, q_allow, caps)
    if any(low >= high for low, high in zip(tau_min, sized.tau_max)):
        raise UsageError(f"'bbox' field 'tau_min' in config {args.config} must lie below the "
                         f"sized tau_max: tau_min = {tau_min}, tau_max = {sized.tau_max.tolist()}")
    bbox = BoundingBox(np.asarray(tau_min, dtype=float), sized.tau_max)
    capped = [bool(t >= c) for t, c in zip(bbox.tau_max, caps)]
    write_json(args.out, {
        "format_version": 1,
        "tau_min": bbox.tau_min.tolist(),
        "tau_max": bbox.tau_max.tolist(),
        "sampling_domain": [[iv.lo, iv.hi] for iv in intervals],
        "capped": capped,
    })
    print(f"tau_max = {bbox.tau_max.tolist()}")
    if any(capped):
        print("warning: some axes hit the search cap", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    config = load_config(args.config)
    _, intervals = _domain_from(args.domain)
    seed = _seed_of(args, config)
    try:
        fit_config = FitConfig(**_require(config, "fit"), seed=seed)
    except TypeError as exc:
        raise UsageError(f"malformed 'fit' section in config: {exc}")
    if not Path(args.samples).exists():
        raise UsageError(f"missing sample file {args.samples}")
    samples = SampleSet.read_csv(args.samples)
    model, report = als_fit(samples, fit_config, intervals)
    model.save(args.out)
    summary = {
        "additive_residual": report.additive_residual,
        "final_rank": report.final_rank,
        "sweeps_used": report.sweeps_used,
        "final_residual": report.residual_history[-1],
        "converged": report.converged,
    }
    if args.holdout:
        holdout = SampleSet.read_csv(args.holdout)
        summary["holdout"] = dataclasses.asdict(metrics.surrogate_errors(model, holdout))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_allocate(args) -> int:
    config = load_config(args.config)
    model = _model_from(args.model)
    bbox, _ = _domain_from(args.domain)
    if args.emit_manifold_scan and bbox.dim != 2:
        raise UsageError("--emit-manifold-scan requires a 2-parameter problem")
    _check_dims(model, {args.config: _config_vectors(config),
                        args.domain: {"tau_min": bbox.tau_min, "tau_max": bbox.tau_max}})
    gfun, measure, q_allow = _problem(config, args.config, model)
    tau0 = manifold.initial_guess(bbox, measure, gfun, q_allow)
    run = manifold.gradient_ascent if args.method == "ga" else manifold.conjugate_gradient
    result = run(tau0, bbox, gfun, q_allow, measure)
    write_json(args.out, {
        "format_version": 1,
        "method": result.method,
        "tau": result.tau.tolist(),
        "f_opt": result.f_opt,
        "g_residual": result.g_residual,
        "iterations": result.iterations,
        "stop": result.stop,
        "restarts": result.trace.restarts,
    })
    if args.trace:
        result.trace.write_csv(args.trace)
    if args.emit_manifold_scan:
        _emit_manifold_scan(args.emit_manifold_scan, gfun, bbox)
    print(f"tau_hat = {result.tau.tolist()}  F = {result.f_opt}")
    return EXIT_OK


def _emit_manifold_scan(path, gfun, bbox: BoundingBox) -> None:
    """G on a 101 x 101 grid of the box of a 2-parameter problem."""
    axis_1, axis_2 = (np.linspace(lo, hi, 101) for lo, hi in zip(bbox.tau_min, bbox.tau_max))
    table = [(t1, t2, gfun.value(np.array([t1, t2]))) for t1 in axis_1 for t2 in axis_2]
    write_csv(path, ["tau_1", "tau_2", "G"], np.array(table))


def cmd_check(args) -> int:
    config = load_config(args.config)
    tau = _tau_from(args.tau, "tolerance result")
    tau_ref = _tau_from(args.reference, "reference result")
    model = _model_from(args.model)
    _check_dims(model, {args.config: _config_vectors(config), args.tau: {"tau": tau},
                        args.reference: {"tau": tau_ref}})
    gfun, measure, q_allow = _problem(config, args.config, model)
    report = metrics.allocation_errors(tau, tau_ref, measure, gfun, q_allow)
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    thresholds = config.get("check_thresholds", {})
    failed = [
        name for name, limit in thresholds.items()
        if getattr(report, name) > limit
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
        if path.name == "summary.json":  # the previous run's output, not an artifact
            continue
        data = _load_json(path, "artifact")
        summary["artifacts"][path.name] = data
        if "tau" in data:
            rows.append((path.name, data.get("method", "?"), data["tau"], data.get("f_opt")))
    write_json(directory / "summary.json", summary)
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
    p.add_argument("--domain", required=True, help="domain file from size-domain")
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
    p.add_argument("--domain", required=True, help="domain file from size-domain")
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
    except (
        FitError,
        EvaluatorError,
        DomainError,
        metrics.MetricError,
        ArithmeticError,
        manifold.RetractionError,
        manifold.InitializationError,
        manifold.DegenerateNormalError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
