"""Batch front end: sample generation, surrogate fitting, domain sizing,
tolerance allocation, verification, and report emission.

One JSON config file drives one reproducible run; flags override config
fields.  Exit codes: 0 success, 1 threshold/constraint failure, 2 usage/IO
error, 3 numeric failure (a ``NumericError``, an ``ArithmeticError`` or a
``LinAlgError``).

Every command pays for numpy, ``files`` (every file goes through it),
``surrogate``, ``domain`` and ``metrics``; the evaluator, worst-case, manifold
and measure modules are imported only by the commands that run them.  No
record class is a dataclass, whose methods are generated and compiled at
import.  A process enters through :func:`run`, which skips interpreter
teardown: ``main`` closes every evaluator and renames every artifact into
place before it returns.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import closing, contextmanager
from typing import NoReturn

import numpy as np

from . import metrics
from .domain import BoundingBox, ConstraintError, size_bounding_box
from .files import Interval, _fields, _integer, _number_array, model_fields
from .files import read_domain, read_json, read_samples, read_tau, write_domain
from .files import write_result, write_samples, write_scan, write_summary, write_trace
from .surrogate import FitConfig, NumericError, SampleSet, SeparatedModel, _standardize, als_fit

# The keys each object-valued config field reads; the evaluator and measure
# modules read the keys of theirs.  The top-level ``seed`` (or ``sample
# --seed``) drives sampling only: the fit draws nothing.
CONFIG_SECTIONS = {
    "bbox": {"caps", "tau_min"},
    "check_thresholds": set(metrics.AllocationErrorReport._fields),
    "fit": set(FitConfig.__slots__),
    "evaluator": None,
    "measure": None,
}
EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


@contextmanager
def _input(where: str):
    """Exit 2 with ``WHERE: detail`` for an OSError, ValueError or (unquoted)
    KeyError raised in the block.  Wrap no call that can raise ConstraintError
    or LinAlgError: they are ValueErrors that exit 1 and 3."""
    try:
        yield
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"{where}: {exc.args[0] if isinstance(exc, KeyError) else exc}") from exc


def _load_json(path, what: str) -> dict:
    with _input(f"cannot read {what} file {path}"):
        return read_json(path)


def load_config(path, required=()) -> dict:
    """The config file at ``path``, which must hold each top-level key of
    ``required``: the keys the command reads."""
    config = _fields(_load_json(path, "config"), f"config {path}", ["format_version", *required],
                     {"seed", "nominal", "q_allow", *CONFIG_SECTIONS})
    for name, keys in CONFIG_SECTIONS.items():
        _fields(config.get(name, {}), f"'{name}' in config {path}", (), keys)
    scalars = {f"'check_thresholds' field {name!r} in {path}": limit
               for name, limit in config.get("check_thresholds", {}).items()}
    if "q_allow" in config:
        scalars[f"config field 'q_allow' in {path}"] = config["q_allow"]
    for name, value in scalars.items():
        if _number_array(value, name).ndim:
            raise UsageError(f"{name} must be a number, got {value!r}")
    if "nominal" in config:
        nominal = _number_array(config["nominal"], f"config field 'nominal' in {path}")
        if nominal.ndim != 1 or not nominal.size:
            raise UsageError(f"config field 'nominal' in {path} must be a non-empty list of "
                             f"numbers, got {config['nominal']!r}")
    _integer(config.get("seed", 0), f"config field 'seed' in {path}", 0, 2**64)
    return config


@contextmanager
def _open_evaluator(config: dict, path, files: dict):
    """The evaluator of the config at ``path``, once ``_check_dims`` passes its
    dim and ``files``; closed (child processes stopped) on exit."""
    from . import evaluator as evaluator_mod

    with _input(f"bad evaluator spec in config {path}"):
        evaluator = evaluator_mod.from_config(config["evaluator"])
    with closing(evaluator):
        _check_dims(evaluator.dim, files)
        yield evaluator


def _domain_from(path) -> tuple[BoundingBox, tuple[Interval, ...]]:
    """Bounding box and sampling intervals from a size-domain file."""
    def box(tau_min, tau_max) -> BoundingBox:
        _check_dims(tau_max.size, {f"domain file {path}": {"'tau_min'": tau_min}})
        with _input(f"fields 'tau_min' and 'tau_max' of domain file {path} are malformed"):
            return BoundingBox(tau_min, tau_max)

    bbox, intervals = read_domain(_load_json(path, "domain"), path, box)
    _check_dims(bbox.dim, {f"domain file {path}": {"'sampling_domain'": intervals}})
    return bbox, intervals


def _model_from(path) -> SeparatedModel:
    """Surrogate from a model file that ``fit`` wrote."""
    with _input(f"bad model file {path}"):
        return SeparatedModel(**model_fields(_load_json(path, "model")))


def _check_dims(d: int, files: dict) -> None:
    """Exit 2, naming the file, the field and ``d``, when a vector of ``files``
    ({file: {field: value}}) does not hold d entries, one per parameter."""
    for where, fields in files.items():
        for name, value in fields.items():
            if np.shape(value) != (d,):
                raise UsageError(f"{name} in {where} must hold {d} entries, one per parameter")


def _check_inside(intervals, points, what: str) -> None:
    """Exit 2 with ``what`` (the points, the intervals and their files) when a
    row of ``points`` leaves ``intervals``: the check that fitting or
    evaluating a model there makes, without running either."""
    lo, hi = np.array([[iv.lo, iv.hi] for iv in intervals]).T
    with _input(what):
        _standardize(np.atleast_2d(points), lo, hi - lo)


# The config keys of ``allocate`` and ``check``, read by _problem.
PROBLEM_KEYS = ("nominal", "q_allow", "measure")


def _problem(config: dict, path, model: SeparatedModel, files: dict, box: tuple[str, str]):
    """G, the measure and Q_allow of ``allocate`` and ``check``, once 'nominal'
    and ``files`` pass ``_check_dims`` and 'nominal' +- tau, tau the vector of
    ``files`` that ``box`` (file, field) names, lies inside the model."""
    from . import boxmax, measures

    _check_dims(model.dim, {f"config {path}": {"'nominal'": config["nominal"]}, **files})
    nominal = np.asarray(config["nominal"], dtype=float)
    q_allow = float(config["q_allow"])
    _check_inside(model.intervals, nominal,
                  f"'nominal' in config {path} lies outside the model's intervals")
    with _input(f"bad 'measure' in config {path}"):
        measure = measures.from_config(config["measure"], model=model, mu_hat=nominal)
    where, field = box
    tau = files[where][field]
    _check_inside(model.intervals, [nominal - tau, nominal + tau],
                  f"the box 'nominal' +- {field} of {where} lies outside the model's intervals")
    return boxmax.SurrogateWorstCase(model, nominal), measure, q_allow


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    from . import evaluator as evaluator_mod

    config = load_config(args.config, ("evaluator",))
    _, intervals = _domain_from(args.domain)
    n = _integer(args.n, "--n", 1)
    seed = config.get("seed") if args.seed is None else _integer(args.seed, "--seed", 0, 2**64)
    if seed is None:
        raise UsageError("--seed is required when the config has no seed field")
    domain = {f"domain file {args.domain}": {"'sampling_domain'": intervals}}
    with _open_evaluator(config, args.config, domain) as evaluator:
        samples = evaluator_mod.draw_samples(evaluator, intervals, n, seed)
    write_samples(args.out, samples)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_size_domain(args) -> int:
    config = load_config(args.config, ("evaluator", "nominal", "q_allow"))
    nominal = np.asarray(config["nominal"], dtype=float)
    q_allow = float(config["q_allow"])
    bbox_config = config.get("bbox", {})
    caps_name = f"'bbox' field 'caps' in config {args.config}"
    caps = _number_array(bbox_config.get("caps", 10.0), caps_name)
    if not np.all(caps > 0.0):
        raise UsageError(f"{caps_name} must be > 0, got {bbox_config['caps']!r}")
    name = f"'bbox' field 'tau_min' in config {args.config}"
    tau_min = _number_array(bbox_config.get("tau_min", [0.0] * nominal.size), name)
    if np.any(tau_min < 0.0):
        raise UsageError(f"{name} must hold numbers >= 0, got {bbox_config['tau_min']!r}")
    vectors = {"'nominal'": nominal, "'bbox' field 'tau_min'": tau_min}
    if caps.ndim:  # a list; a number caps every axis
        vectors["'bbox' field 'caps'"] = caps
    with _open_evaluator(config, args.config, {f"config {args.config}": vectors}) as evaluator:
        sized, intervals = size_bounding_box(evaluator, nominal, q_allow, caps)
    if np.any(tau_min >= sized.tau_max):
        raise UsageError(f"{name} must lie below the sized tau_max: "
                         f"tau_min = {tau_min.tolist()}, tau_max = {sized.tau_max.tolist()}")
    bbox = BoundingBox(tau_min, sized.tau_max)
    capped = (bbox.tau_max >= caps).tolist()
    write_domain(args.out, bbox, intervals, capped)
    print(f"tau_max = {bbox.tau_max.tolist()}")
    if any(capped):
        print("warning: some axes hit the search cap", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    config = load_config(args.config, ("fit",))
    bbox, intervals = _domain_from(args.domain)
    name = f"'fit' in config {args.config}"
    fit_fields = _fields(config["fit"], name, ("target_rank", "degree"))
    with _input(name):
        fit_config = FitConfig(**fit_fields)
    sets = {path: SampleSet(*read_samples(path)) for path in (args.samples, args.holdout) if path}
    _check_dims(bbox.dim, {f"sample file {path}": {"the mu of each row": data.points[0]}
                           for path, data in sets.items()})
    for path, data in sets.items():
        _check_inside(intervals, data.points, f"sample file {path} lies outside the "
                      f"'sampling_domain' of domain file {args.domain}")
    model, report = als_fit(sets[args.samples], fit_config, intervals)
    summary = {
        "additive_residual": report.additive_residual,
        "final_rank": report.final_rank,
        "sweeps_used": report.sweeps_used,
        "final_residual": report.residual_history[-1],
        "converged": report.converged,
    }
    if args.holdout:
        errors = metrics.surrogate_errors(model, sets[args.holdout])
        summary["holdout"] = errors._asdict()
    model.save(args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_allocate(args) -> int:
    from . import manifold

    config = load_config(args.config, PROBLEM_KEYS)
    model = _model_from(args.model)
    bbox, _ = _domain_from(args.domain)
    if args.emit_manifold_scan and bbox.dim != 2:
        raise UsageError("--emit-manifold-scan requires a 2-parameter problem")
    where = f"domain file {args.domain}"
    gfun, measure, q_allow = _problem(config, args.config, model, {
        where: {"'tau_min'": bbox.tau_min, "'tau_max'": bbox.tau_max}}, (where, "'tau_max'"))
    tau0 = manifold.initial_guess(bbox, measure, gfun, q_allow)
    run = manifold.gradient_ascent if args.method == "ga" else manifold.conjugate_gradient
    result = run(tau0, bbox, gfun, q_allow, measure)
    write_result(args.out, result)
    if args.trace:
        write_trace(args.trace, result.trace)
    if args.emit_manifold_scan:  # G on a 101 x 101 grid of the box, from one solve
        axes = (np.linspace(lo, hi, 101) for lo, hi in zip(bbox.tau_min, bbox.tau_max))
        taus = np.column_stack([axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")])
        write_scan(args.emit_manifold_scan, taus, gfun.solve(taus)[0])
    print(f"tau_hat = {result.tau.tolist()}  F = {result.f_opt}")
    return EXIT_OK


def cmd_check(args) -> int:
    config = load_config(args.config, PROBLEM_KEYS)
    tau, tau_ref = (read_tau(_load_json(path, what), f"{what} file {path}") for path, what
                    in ((args.tau, "tolerance result"), (args.reference, "reference result")))
    model = _model_from(args.model)
    where = f"tolerance result file {args.tau}"
    gfun, measure, q_allow = _problem(config, args.config, model, {
        where: {"'tau'": tau}, f"reference result file {args.reference}": {"'tau'": tau_ref}},
        (where, "'tau'"))
    report = metrics.allocation_errors(tau, tau_ref, measure, gfun, q_allow)
    print(json.dumps(report._asdict(), indent=2, sort_keys=True))
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
    summary, rows = write_summary(args.dir, lambda path: _load_json(path, "artifact"))
    if rows:
        print(f"{'artifact':<28} {'method':<7} {'F':<22} tau")
        for name, method, tau, f_opt in rows:
            print(f"{name:<28} {method:<7} {f_opt!r:<22} {tau}")
    print(f"wrote {summary}")
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
        error, code = exc, EXIT_THRESHOLD
    except (NumericError, ArithmeticError, np.linalg.LinAlgError) as exc:
        error, code = exc, EXIT_NUMERIC
    except (UsageError, OSError, ValueError, KeyError) as exc:
        error, code = exc, EXIT_USAGE
    print(f"error: {error}", file=sys.stderr)
    return code


def run(argv=None) -> NoReturn:
    """``main`` for a process entry point, which ends the process with its exit
    code, or with that of the ``SystemExit`` argparse raises.  It freezes what
    the imports made, so that no collection walks those objects again, and it
    skips interpreter teardown: once ``main`` returns, every evaluator is closed
    (its children reaped) and every artifact renamed into place, so only the
    standard streams are left to flush.  Frozen objects are never freed, so
    ``main`` itself neither freezes nor exits: tests call it in-process."""
    gc.freeze()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
