"""The four benchmark workloads: generated inputs, CLI steps and output checks.

Every input is made from the benchmark seed; the CLI only sees the files.
All problems are the quadratic bowl Q(mu) = sum_i a_i mu_i^2 about mu = 0 with
Q_allow = 1, so domain, samples and the optimal tolerances have closed forms.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
SERVER = HERE / "bowl_server.py"

Q_ALLOW = 1.0


@dataclass(frozen=True)
class Step:
    kind: str                    # size_domain | sample | fit | allocate | check
    args: tuple[str, ...]        # arguments after ``python -m tolalloc.cli``
    artifacts: tuple[str, ...]   # files the step writes, relative to the pass dir


@dataclass
class Plan:
    """One seeded instance of a workload."""

    files: dict[str, str]        # input file name -> text
    steps: list[Step]
    # check(pass_dir, finished) -> (errors per step index, accuracy figures)
    check: Callable
    description: dict            # recorded with the run


def _config(seed: int, evaluator: dict, d: int, rank: int, tol_err_inf=None) -> str:
    config = {
        "format_version": 1,
        "evaluator": evaluator,
        "nominal": [0.0] * d,
        "q_allow": Q_ALLOW,
        "seed": seed,
        "fit": {"target_rank": rank, "degree": 2},
        "measure": {"kind": "one-norm"},
        "bbox": {"caps": 10.0},
    }
    if tol_err_inf is not None:
        config["check_thresholds"] = {"tol_err_inf": tol_err_inf}
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


def _size_domain() -> Step:
    return Step("size_domain", ("size-domain", "--config", "config.json", "--out", "domain.json"),
                ("domain.json",))


def _sample(n: int, out: str, *seed_flag: str) -> Step:
    return Step("sample", ("sample", "--config", "config.json", "--domain", "domain.json",
                           "--n", str(n), *seed_flag, "--out", out), (out,))


def _fit(*holdout_flag: str) -> Step:
    return Step("fit", ("fit", "--config", "config.json", "--domain", "domain.json",
                        "--samples", "samples.csv", *holdout_flag, "--out", "model.json"),
                ("model.json",))


def _builtin(a) -> dict:
    return {"variant": "builtin", "name": "quadratic-bowl",
            "parameters": {"a": [float(v) for v in a]}}


def _draw_a(seed: int, d: int) -> np.ndarray:
    """Bowl coefficients: d values evenly spaced over [0.5, 5] in a seeded order.

    The seed moves each coefficient to another axis (and, through the config
    seed, changes the samples and the ALS start), while the spectrum, and so
    the conditioning of the problem, stays the same.  Independent uniform
    draws made the allocation cost of one seed up to three times another's.
    """
    return np.random.default_rng([seed, d]).permutation(np.linspace(0.5, 5.0, d))


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------

def _check_domain(pass_dir: Path, a) -> list[str]:
    domain = json.loads((pass_dir / "domain.json").read_text())
    err = np.max(np.abs(np.asarray(domain["tau_max"]) - oracle.tau_max(a, Q_ALLOW)))
    if not err <= 1e-9:
        return [f"tau_max off the closed form by {err:.3e}"]
    if any(domain["tau_min"]) or any(domain["capped"]):
        return ["unexpected tau_min or capped axis"]
    return []


def _check_samples(pass_dir: Path, name: str, a, n: int, value_of) -> list[str]:
    points, values = oracle.read_samples(pass_dir / name)
    if len(values) != n:
        return [f"{name}: {len(values)} rows, expected {n}"]
    expected = np.array([value_of(a, p) for p in points])
    bad = np.flatnonzero(values != expected)
    if bad.size:
        return [f"{name}: {bad.size} values differ from the bowl, first at row {bad[0]}"]
    return []


def _check_fit(pass_dir: Path, stdout: str, rank: int) -> tuple[list[str], dict]:
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        return ["fit printed no JSON summary"], {}
    errors = []
    if summary.get("final_rank") != rank:
        errors.append(f"final rank {summary.get('final_rank')}, expected {rank}")
    points, values = oracle.read_samples(pass_dir / "samples.csv")
    mine = oracle.rel_residual(pass_dir / "model.json", points, values)
    theirs = summary.get("final_residual", float("nan"))
    if not abs(mine - theirs) <= 1e-9 + 1e-6 * abs(theirs):
        errors.append(f"final residual {theirs} but the saved model gives {mine}")
    return errors, summary


def _check_allocation(pass_dir: Path, a, tol: float, gres_tol: float,
                      check_stdout: str) -> tuple[list[str], list[str], dict]:
    result = json.loads((pass_dir / "result.json").read_text())
    tau = np.asarray(result["tau"], dtype=float)
    tau_err = float(np.max(np.abs(tau - oracle.tau_star(a))))
    g_res = abs(oracle.g_true(a, tau) - Q_ALLOW) / Q_ALLOW
    alloc_errors = []
    if not tau_err <= tol:
        alloc_errors.append(f"tau_err_inf {tau_err:.3e} > {tol:.1e}")
    if not g_res <= gres_tol:
        alloc_errors.append(f"true G residual {g_res:.3e} > {gres_tol:.1e}")
    if not (pass_dir / "trace.csv").read_text().count("\n") >= 2:
        alloc_errors.append("empty traversal trace")
    check_errors = []
    try:
        reported = json.loads(check_stdout)["tol_err_inf"]
        if reported != tau_err:
            check_errors.append(f"check reports tol_err_inf {reported}, recomputed {tau_err}")
    except (json.JSONDecodeError, KeyError):
        check_errors.append("check printed no report")
    return alloc_errors, check_errors, {"tau_err_inf": tau_err, "g_residual": g_res}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _bowl_plan(seed: int, a, n: int, tol: float, gres_tol: float) -> Plan:
    d = len(a)
    reference = {"format_version": 1, "tau": oracle.tau_star(a).tolist()}
    steps = [
        _size_domain(),
        _sample(n, "samples.csv"),
        _fit(),
        Step("allocate", ("allocate", "--config", "config.json", "--domain", "domain.json",
                          "--model", "model.json", "--method", "cg", "--out", "result.json",
                          "--trace", "trace.csv"), ("result.json", "trace.csv")),
        Step("check", ("check", "--config", "config.json", "--model", "model.json",
                       "--tau", "result.json", "--reference", "reference.json"), ()),
    ]

    def check(pass_dir: Path, finished) -> tuple[dict, dict]:
        errors = {
            0: _check_domain(pass_dir, a),
            1: _check_samples(pass_dir, "samples.csv", a, n, oracle.builtin_value),
        }
        errors[2], _ = _check_fit(pass_dir, finished[2].stdout, d)
        errors[3], errors[4], accuracy = _check_allocation(
            pass_dir, a, tol, gres_tol, finished[4].stdout
        )
        return errors, accuracy

    return Plan(
        files={
            "config.json": _config(seed, _builtin(a), d, d, tol_err_inf=tol),
            "reference.json": json.dumps(reference, indent=2, sort_keys=True) + "\n",
        },
        steps=steps,
        check=check,
        description={"a": [float(v) for v in a], "samples": n, "rank": d},
    )


def build_bowl_d2(seed: int) -> Plan:
    return _bowl_plan(seed, np.array([1.0, 4.0]), 300, tol=1e-4, gres_tol=1e-4)


def build_bowl_d6(seed: int) -> Plan:
    return _bowl_plan(seed, _draw_a(seed, 6), 240, tol=5e-2, gres_tol=5e-2)


def build_fit_d10(seed: int) -> Plan:
    d, n = 10, 400
    a = _draw_a(seed, d)
    holdout_seed = seed + 1_000_003
    steps = [
        _size_domain(),
        _sample(n, "samples.csv"),
        _sample(n, "holdout.csv", "--seed", str(holdout_seed)),
        _fit("--holdout", "holdout.csv"),
    ]

    def check(pass_dir: Path, finished) -> tuple[dict, dict]:
        errors = {
            0: _check_domain(pass_dir, a),
            1: _check_samples(pass_dir, "samples.csv", a, n, oracle.builtin_value),
            2: _check_samples(pass_dir, "holdout.csv", a, n, oracle.builtin_value),
        }
        errors[3], summary = _check_fit(pass_dir, finished[3].stdout, d)
        points, values = oracle.read_samples(pass_dir / "holdout.csv")
        mine = oracle.max_rel_error(pass_dir / "model.json", points, values)
        theirs = summary.get("holdout", {}).get("max_rel", float("nan"))
        if not abs(mine - theirs) <= 1e-9 * max(abs(theirs), 1.0):
            errors[3].append(f"holdout max_rel {theirs} but the saved model gives {mine}")
        return errors, {"holdout_max_rel": mine}

    return Plan(
        files={"config.json": _config(seed, _builtin(a), d, d)},
        steps=steps,
        check=check,
        description={"a": [float(v) for v in a], "samples": n, "holdout_seed": holdout_seed},
    )


def build_external_d2(seed: int) -> Plan:
    a = [1.0, 4.0]
    n = 50_000
    evaluator = {
        "variant": "external",
        "command": [sys.executable, str(SERVER), ",".join(repr(v) for v in a)],
        "dim": 2,
        "timeout_seconds": 60.0,
    }
    steps = [_size_domain(), _sample(n, "samples.csv"), _fit()]

    def check(pass_dir: Path, finished) -> tuple[dict, dict]:
        errors = {
            0: _check_domain(pass_dir, a),
            1: _check_samples(pass_dir, "samples.csv", a, n, oracle.server_value),
        }
        errors[2], _ = _check_fit(pass_dir, finished[2].stdout, len(a))
        return errors, {}

    return Plan(
        files={"config.json": _config(seed, evaluator, 2, 2)},
        steps=steps,
        check=check,
        description={"a": a, "samples": n, "evaluator": "external line protocol"},
    )


# Workload name -> function making its plan from the seed; BENCHMARK.json
# records why each workload was chosen.
WORKLOADS = {
    "bowl-d2": build_bowl_d2,
    "bowl-d6": build_bowl_d6,
    "fit-d10": build_fit_d10,
    "external-d2": build_external_d2,
}
