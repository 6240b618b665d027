import csv
import gc
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tolalloc import (ConstraintError, DegenerateNormalError, EvaluatorError, FitConfig, FitError,
                      InitializationError, Interval, RetractionError, SampleSet, SeparatedModel,
                      SurrogateWorstCase, als_fit, boxmax, cli)
from tolalloc.cli import main
from tolalloc.evaluator import REQUEST_BLOCK_ROWS, DomainError, QuadraticBowl, draw_samples
from tolalloc.metrics import MetricError
from tolalloc.files import model_dict, model_fields, read_samples, write_json, write_samples

from conftest import random_model

BOWL_CONFIG = {
    "format_version": 1,
    "evaluator": {
        "variant": "builtin",
        "name": "quadratic-bowl",
        "parameters": {"a": [1.0, 4.0]},
    },
    "nominal": [0.0, 0.0],
    "q_allow": 1.0,
    "seed": 7,
    "fit": {"target_rank": 2, "degree": 2},
    "measure": {"kind": "one-norm"},
    "bbox": {"caps": 10.0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BOWL_CONFIG))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_pipeline(tmp_path, capsys, config_path, method="ga", n=300):
    domain = tmp_path / "domain.json"
    samples = tmp_path / "samples.csv"
    model = tmp_path / "model.json"
    result = tmp_path / f"result_{method}.json"

    code, _, _ = run(capsys, "size-domain", "--config", config_path, "--out", str(domain))
    assert code == 0
    code, _, _ = run(capsys, "sample", "--config", config_path, "--domain", str(domain),
                     "--n", str(n), "--out", str(samples))
    assert code == 0
    code, _, _ = run(capsys, "fit", "--config", config_path, "--domain", str(domain),
                     "--samples", str(samples), "--out", str(model))
    assert code == 0
    code, _, _ = run(capsys, "allocate", "--config", config_path, "--domain", str(domain),
                     "--model", str(model), "--method", method, "--out", str(result))
    assert code == 0
    return domain, samples, model, result


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------

def test_size_domain_quadratic_reference(tmp_path, capsys, config_path):
    out = tmp_path / "domain.json"
    code, stdout, _ = run(capsys, "size-domain", "--config", config_path, "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    np.testing.assert_allclose(data["tau_max"], [1.0, 0.5], rtol=1e-10)
    np.testing.assert_array_equal(data["tau_min"], [0.0, 0.0])
    np.testing.assert_allclose(data["sampling_domain"], [[-1.0, 1.0], [-0.5, 0.5]],
                               rtol=1e-10)
    assert data["capped"] == [False, False]
    assert "tau_max" in stdout


def test_size_domain_writes_the_configured_tau_min(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "bbox": {"caps": 5.0, "tau_min": [0.1, 0.05]}}))
    out = tmp_path / "domain.json"
    code, _, _ = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    np.testing.assert_array_equal(data["tau_min"], [0.1, 0.05])
    np.testing.assert_allclose(data["tau_max"], [1.0, 0.5], rtol=1e-10)


def test_full_pipeline_reaches_closed_form(tmp_path, capsys, config_path):
    *_, result = run_pipeline(tmp_path, capsys, config_path, method="ga")
    data = json.loads(result.read_text())
    # Maximizing tau_1 + tau_2 on tau_1^2 + 4 tau_2^2 = 1 has the closed-form
    # optimum (2, 1/2) / sqrt(5).
    expected = np.array([2.0, 0.5]) / np.sqrt(5.0)
    np.testing.assert_allclose(data["tau"], expected, atol=1e-3)
    assert data["f_opt"] == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-4)
    assert data["g_residual"] < 1e-8
    assert data["method"] == "GA"
    assert data["stop"] == "stationary"


def test_cg_restarts_and_wall_hits_reach_the_result_and_the_trace(tmp_path, capsys):
    # Q = mu_1^2 + 4 mu_2^2 + 2 mu_3^2 with tau_1 capped at 0.4: maximizing the
    # one-norm on Q = 1 binds that wall, and the optimum on the face is
    # (0.4, sqrt(0.07), 2 sqrt(0.07)).
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        **BOWL_CONFIG, "nominal": [0.0, 0.0, 0.0], "fit": {"target_rank": 3, "degree": 2},
        "evaluator": {"variant": "builtin", "name": "quadratic-bowl",
                      "parameters": {"a": [1.0, 4.0, 2.0]}},
        "bbox": {"caps": [0.4, 10.0, 10.0]}}))
    with pytest.warns(UserWarning, match="no performance crossing within search cap 0.4"):
        domain, _, model, _ = run_pipeline(tmp_path, capsys, str(path), n=200)
    result, trace = tmp_path / "result_cg.json", tmp_path / "trace.csv"
    code, _, _ = run(capsys, "allocate", "--config", str(path), "--domain", str(domain),
                     "--model", str(model), "--method", "cg", "--out", str(result),
                     "--trace", str(trace))
    assert code == 0
    data = json.loads(result.read_text())
    assert data["restarts"]
    np.testing.assert_allclose(data["tau"], [0.4, np.sqrt(0.07), 2.0 * np.sqrt(0.07)], atol=1e-4)
    events = {event for row in _read_csv(trace)[1:] for event in row[-1].split(";")}
    assert {"wall:0", "restart"} <= events


def test_allocate_cg_and_trace_and_scan(tmp_path, capsys, config_path):
    domain, samples, model, _ = run_pipeline(tmp_path, capsys, config_path)
    result = tmp_path / "result_cg.json"
    trace = tmp_path / "trace.csv"
    scan = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "allocate", "--config", config_path, "--domain", str(domain),
                     "--model", str(model), "--method", "cg", "--out", str(result),
                     "--trace", str(trace), "--emit-manifold-scan", str(scan))
    assert code == 0
    assert json.loads(result.read_text())["method"] == "CG"
    trace_lines = trace.read_text().splitlines()
    assert trace_lines[0] == "iter,tau_1,tau_2,F,G_residual,event"
    assert len(trace_lines) >= 2
    scan_lines = scan.read_text().splitlines()
    assert scan_lines[0] == "tau_1,tau_2,G"
    assert len(scan_lines) == 1 + 101 * 101
    # Every numeric cell of the three CSV artifacts is a float literal.
    tables = {name: _read_csv(path) for name, path in
              [("samples", samples), ("trace", trace), ("scan", scan)]}
    assert tables["samples"][0] == ["mu_1", "mu_2", "q"]
    for name, rows in tables.items():
        numeric = rows[1:] if name != "trace" else [row[:-1] for row in rows[1:]]
        values = np.array([[float(cell) for cell in row] for row in numeric])
        assert np.all(np.isfinite(values)), name
    # Every scan row holds, bit for bit, the G of a one-tau solve at its tau.
    gfun = SurrogateWorstCase(SeparatedModel(**model_fields(json.loads(model.read_text()))),
                              BOWL_CONFIG["nominal"])
    for row in tables["scan"][1:]:
        t1, t2, g = map(float, row)
        assert g == gfun.value(np.array([t1, t2]))


def test_d10_bowl_pipeline_reaches_the_closed_form(tmp_path, capsys):
    # Q = sum_i a_i mu_i^2 with Q_allow = 1: the 1-norm optimum is
    # tau_i = (1 / a_i) / sqrt(sum_j 1 / a_j).
    a = np.linspace(0.5, 5.0, 10)
    config = {**BOWL_CONFIG,
              "evaluator": {**BOWL_CONFIG["evaluator"], "parameters": {"a": a.tolist()}},
              "nominal": [0.0] * 10, "fit": {"target_rank": 10, "degree": 2},
              "check_thresholds": {"tol_err_inf": 1e-4}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"format_version": 1,
                                     "tau": ((1.0 / a) / np.sqrt(np.sum(1.0 / a))).tolist()}))
    _, _, model, result = run_pipeline(tmp_path, capsys, str(config_path), method="cg", n=400)
    assert json.loads(result.read_text())["stop"] == "stationary"
    code, stdout, _ = run(capsys, "check", "--config", str(config_path), "--model", str(model),
                          "--tau", str(result), "--reference", str(reference))
    assert code == 0
    assert json.loads(stdout)["tol_err_inf"] <= 1e-4


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_check_passes_against_itself(tmp_path, capsys, config_path):
    _, _, model, result = run_pipeline(tmp_path, capsys, config_path)
    code, stdout, _ = run(capsys, "check", "--config", config_path, "--model", str(model),
                          "--tau", str(result), "--reference", str(result))
    assert code == 0
    report = json.loads(stdout)
    assert report["tol_err_inf"] == 0.0
    assert report["objective_rel_err"] == 0.0


def test_check_enforces_thresholds(tmp_path, capsys, config_path):
    _, _, model, result = run_pipeline(tmp_path, capsys, config_path)
    strict = dict(BOWL_CONFIG)
    strict["check_thresholds"] = {"constraint_rel_err": 0.0}
    worse = tmp_path / "worse.json"
    data = json.loads(result.read_text())
    data["tau"] = [0.5 * t for t in data["tau"]]
    worse.write_text(json.dumps(data))
    strict_path = tmp_path / "strict.json"
    strict_path.write_text(json.dumps(strict))
    code, _, stderr = run(capsys, "check", "--config", str(strict_path), "--model",
                          str(model), "--tau", str(worse), "--reference", str(result))
    assert code == 1
    assert "thresholds exceeded" in stderr


def test_report_summarizes_artifacts(tmp_path, capsys, config_path):
    run_pipeline(tmp_path, capsys, config_path)
    code, stdout, _ = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "result_ga.json" in summary["artifacts"]
    assert "result_ga.json" in stdout


def test_report_takes_table_rows_only_from_objects(tmp_path, capsys):
    # A string or a list that holds "tau" is summarized but is not a result.
    artifacts = {"a.json": "tautology", "b.json": ["tau", 1],
                 "c.json": {"tau": [0.5], "method": "cg", "f_opt": 0.5}}
    for name, data in artifacts.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, "report", "--dir", str(tmp_path))
    assert (code, stderr) == (0, "")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["artifacts"] == artifacts
    assert [line.split()[0] for line in stdout.splitlines()[1:-1]] == ["c.json"]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_sample_is_byte_identical_across_runs(tmp_path, capsys, config_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        code, _, _ = run(capsys, "sample", "--config", config_path, "--domain",
                         _write_domain(tmp_path), "--n", "50", "--out", str(out))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_artifacts_take_the_umask_mode(tmp_path, capsys, config_path):
    domain = tmp_path / "domain.json"
    samples = tmp_path / "samples.csv"
    model = tmp_path / "model.json"
    previous = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "size-domain", "--config", config_path, "--out", str(domain))
        assert code == 0
        code, _, _ = run(capsys, "sample", "--config", config_path, "--domain", str(domain),
                         "--n", "20", "--out", str(samples))
        assert code == 0
        code, _, _ = run(capsys, "fit", "--config", config_path, "--domain", str(domain),
                         "--samples", str(samples), "--out", str(model))
        assert code == 0
    finally:
        os.umask(previous)
    for path in (domain, samples, model):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "domain.json", "model.json", "samples.csv",
    ]


def test_fit_writes_what_model_save_writes(tmp_path, capsys, config_path):
    domain = _write_domain(tmp_path)
    samples, model = tmp_path / "samples.csv", tmp_path / "model.json"
    run(capsys, "sample", "--config", config_path, "--domain", domain, "--n", "60",
        "--out", str(samples))
    code, _, _ = run(capsys, "fit", "--config", config_path, "--domain", domain,
                     "--samples", str(samples), "--out", str(model))
    assert code == 0
    saved = tmp_path / "saved.json"
    restored = SeparatedModel(**model_fields(json.loads(model.read_text())))
    restored.save(saved)
    assert saved.read_bytes() == model.read_bytes()
    assert model.read_text() == json.dumps(
        json.loads(model.read_text()), indent=2, sort_keys=True) + "\n"
    # The file reads back to the fitted model, bit for bit.
    fitted, _ = als_fit(SampleSet(*read_samples(samples)), FitConfig(**BOWL_CONFIG["fit"]),
                        (Interval(-1.0, 1.0), Interval(-0.5, 0.5)))
    assert ((restored.dim, restored.rank, restored.degree, restored.intervals)
            == (fitted.dim, fitted.rank, fitted.degree, fitted.intervals))
    assert restored.scales.tobytes() == fitted.scales.tobytes()
    assert restored.coeffs.tobytes() == fitted.coeffs.tobytes()


def test_fit_reports_the_additive_residual(tmp_path, capsys, config_path):
    domain = _write_domain(tmp_path)
    samples = tmp_path / "samples.csv"
    run(capsys, "sample", "--config", config_path, "--domain", domain, "--n", "60",
        "--out", str(samples))
    reports = {}
    for rank in (1, 2):
        path = tmp_path / f"config{rank}.json"
        path.write_text(json.dumps({**BOWL_CONFIG, "fit": {"target_rank": rank, "degree": 2}}))
        code, stdout, _ = run(capsys, "fit", "--config", str(path), "--domain", domain,
                              "--samples", str(samples), "--out", str(tmp_path / "model.json"))
        assert code == 0
        reports[rank] = json.loads(stdout)
    # Rank 1 < d starts from the term prod_i (1 + x_i); rank 2 = d from the exact
    # additive bowl.
    assert reports[1]["additive_residual"] is None
    assert reports[2]["additive_residual"] <= 1e-9
    assert reports[2]["sweeps_used"] == 0
    assert reports[2]["final_residual"] == reports[2]["additive_residual"]


SCIPY_PROBE = """
import json, sys
from tolalloc.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = [["import", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append([argv[0], scipy_modules()])
print(json.dumps(loaded))
"""


def test_cli_commands_do_not_import_scipy(tmp_path, config_path):
    domain = str(tmp_path / "domain.json")
    samples, model = str(tmp_path / "samples.csv"), str(tmp_path / "model.json")
    result = str(tmp_path / "result.json")
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"tau": [0.5, 0.2]}))
    commands = [
        ["size-domain", "--config", config_path, "--out", domain],
        ["sample", "--config", config_path, "--domain", domain, "--n", "60", "--out", samples],
        ["fit", "--config", config_path, "--domain", domain, "--samples", samples,
         "--out", model],
        ["allocate", "--config", config_path, "--domain", domain, "--model", model,
         "--out", result],
        ["check", "--config", config_path, "--model", model, "--tau", result,
         "--reference", str(tau)],
    ]
    # A tabulated evaluator interpolates in numpy too: Q = mu_1^2 + 4 mu_2^2
    # on a grid that holds the whole Q = 1 box.
    grid = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    table = tmp_path / "table.csv"
    table.write_text("mu_1,mu_2,q\n" + "".join(
        f"{x!r},{y!r},{x * x + 4.0 * y * y!r}\n" for x in grid for y in grid))
    tabulated = tmp_path / "tabulated.json"
    tabulated.write_text(json.dumps(
        {**BOWL_CONFIG, "evaluator": {"variant": "tabulated", "path": str(table)}}))
    commands += [
        ["size-domain", "--config", str(tabulated), "--out", domain],
        ["sample", "--config", str(tabulated), "--domain", domain, "--n", "60", "--out", samples],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [[name, []] for name in ["import", "size-domain", "sample", "fit",
                                              "allocate", "check", "size-domain", "sample"]]


def _package_env() -> dict:
    """The environment with this package's sources on PYTHONPATH."""
    import tolalloc

    src = os.path.dirname(os.path.dirname(tolalloc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs ``python -m MODULE ARGS...`` (or only imports the package when MODULE is
# "tolalloc"), then prints the exit code, the tolalloc submodules loaded, with
# ``subprocess``, ``select``, ``numpy.random``, ``hashlib`` and ``dataclasses``
# if they were, and the frozen object count.  ``os._exit`` raises SystemExit
# instead, so that the probe outlives the CLI's exit.
IMPORT_PROBE = """
import gc, json, os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
sys.argv = sys.argv[1:]
code = 0
if sys.argv[0] == "tolalloc":
    import tolalloc
else:
    try:
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("tolalloc.")
                               or name in ("subprocess", "select", "numpy.random", "hashlib",
                                           "dataclasses")),
                  gc.get_freeze_count()]))
"""


def test_each_cli_process_imports_only_the_modules_its_command_runs(tmp_path, config_path,
                                                                     monkeypatch):
    domain = str(tmp_path / "domain.json")
    samples, model = str(tmp_path / "samples.csv"), str(tmp_path / "model.json")
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"tau": [0.5, 0.2]}))
    rank1 = tmp_path / "rank1.json"
    rank1.write_text(json.dumps({**BOWL_CONFIG, "fit": {"target_rank": 1, "degree": 2}}))
    commands = {
        "--help": ["--help"],
        "size-domain": ["size-domain", "--config", config_path, "--out", domain],
        "sample": ["sample", "--config", config_path, "--domain", domain, "--n", "60",
                   "--out", samples],
        "fit": ["fit", "--config", config_path, "--domain", domain, "--samples", samples,
                "--out", model],
        "allocate": ["allocate", "--config", config_path, "--domain", domain, "--model", model,
                     "--out", str(tmp_path / "result.json")],
        "fit-rank1": ["fit", "--config", str(rank1), "--domain", domain, "--samples", samples,
                      "--out", str(tmp_path / "rank1.model.json")],
        "check": ["check", "--config", config_path, "--model", model, "--tau", str(tau),
                  "--reference", str(tau)],
        # The rank-1 fit is a product of both axes, so G comes from the multistart.
        "allocate-rank1": ["allocate", "--config", config_path, "--domain", domain, "--model",
                           str(tmp_path / "rank1.model.json"), "--method", "cg",
                           "--out", str(tmp_path / "rank1.result.json")],
        "check-rank1": ["check", "--config", config_path, "--model",
                        str(tmp_path / "rank1.model.json"), "--tau", str(tau),
                        "--reference", str(tau)],
    }
    runs = {
        "import": (["tolalloc"], None),
        **{name: (["tolalloc.cli", *argv], None) for name, argv in commands.items()},
        "serve": (["tolalloc.serve", "quadratic-bowl", "--parameters", '{"a": [1.0, 4.0]}'],
                  "0.5 0.25\n"),
    }
    loaded, frozen = {}, {}
    for name, (argv, stdin) in runs.items():  # in order: each command reads the last one's file
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], input=stdin,
                              capture_output=True, text=True, env=_package_env(), timeout=60)
        assert proc.returncode == 0, (name, proc.stderr)
        code, modules, frozen[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        assert code == 0, (name, proc.stderr)
        loaded[name] = {module.removeprefix("tolalloc.") for module in modules}
    # Each command loads exactly the modules it runs.  None starts a process
    # (the external evaluator imports subprocess and select only when it does)
    # or draws from numpy.random, so hashlib and OpenSSL stay unloaded too: the
    # fit draws nothing, and sampling and the multistart use SplitMix64.  No
    # record class is a dataclass, so no command loads ``dataclasses``.
    # BOWL_CONFIG's fit is additive; `check` evaluates nothing, and the
    # allocation reads the model and the domain file only.
    base = {"brent", "domain", "files", "metrics", "surrogate"}
    worst_case = base | {"boxmax", "measures"}
    assert loaded == {
        "import": set(), "--help": base, "size-domain": base | {"evaluator"},
        "sample": base | {"evaluator"}, "fit": base, "fit-rank1": base,
        "allocate": worst_case | {"manifold"}, "allocate-rank1": worst_case | {"manifold"},
        "check": worst_case, "check-rank1": worst_case,
        "serve": {"evaluator", "files", "surrogate"}}
    # The rank-1 fit is a product of both axes, so G comes from the multistart.
    rank1 = SeparatedModel(**model_fields(json.loads((tmp_path / "rank1.model.json").read_text())))
    maximizes, box_maximize = [], boxmax.box_maximize
    monkeypatch.setattr(boxmax, "box_maximize",
                        lambda *args: maximizes.append(args) or box_maximize(*args))
    SurrogateWorstCase(rank1, BOWL_CONFIG["nominal"]).solve([[0.5, 0.2]])
    assert len(maximizes) == 1
    # The process entry point freezes what the imports made; importing does not.
    assert frozen.pop("import") == 0 and frozen.pop("serve") == 0
    assert all(count > 0 for count in frozen.values()), frozen


def _cli_process(*argv) -> subprocess.CompletedProcess:
    """``python -m tolalloc.cli ARGV...`` with its output on pipes."""
    return subprocess.run([sys.executable, "-m", "tolalloc.cli", *argv], capture_output=True,
                          text=True, env=_package_env(), timeout=60)


def test_main_in_process_freezes_nothing(tmp_path, capsys, config_path):
    before = gc.get_freeze_count()
    run_pipeline(tmp_path, capsys, config_path)
    assert gc.get_freeze_count() == before


def test_cli_process_writes_what_main_writes(tmp_path, capsys, config_path):
    domain, samples, model, _ = run_pipeline(tmp_path, capsys, config_path)
    holdout, again = tmp_path / "holdout.csv", tmp_path / "again.json"
    code, _, _ = run(capsys, "sample", "--config", config_path, "--domain", str(domain),
                     "--n", "40", "--seed", "3", "--out", str(holdout))
    assert code == 0
    fit = ["fit", "--config", config_path, "--domain", str(domain), "--samples", str(samples),
           "--holdout", str(holdout)]
    code, out, _ = run(capsys, *fit, "--out", str(model))
    assert code == 0
    proc = _cli_process(*fit, "--out", str(again))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == out and "holdout" in json.loads(proc.stdout)
    assert again.read_bytes() == model.read_bytes()


@pytest.mark.parametrize("nominal, code, named", [
    ([5.0, 5.0], 1, "constraint violated"),
    ("not a list", 2, "config field 'nominal'"),
    ([1e200, 0.0], 3, "non-finite performance"),
], ids=["1", "2", "3"])
def test_cli_process_exit_codes(tmp_path, nominal, code, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "nominal": nominal}))
    proc = _cli_process("size-domain", "--config", str(path), "--out", str(tmp_path / "d.json"))
    assert proc.returncode == code
    assert named in proc.stderr and proc.stdout == ""


def test_cli_process_usage_error_exits_2(tmp_path, config_path):
    proc = _cli_process("fit", "--config", config_path, "--out", str(tmp_path / "m.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: tolalloc fit")
    assert "--domain" in proc.stderr


# Appends its pid to the file ARGV[1], then runs the line-protocol child ARGV[2:].
PID_CHILD = """
import os, runpy, sys
with open(sys.argv[1], "a") as pids:
    pids.write(f"{os.getpid()}\\n")
sys.argv = sys.argv[2:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("child, code", [
    (["tests/helpers/quadratic_bowl_server.py", "1.0,4.0"], 0),
    (["tests/helpers/misbehaving_server.py", "early-close", "5000"], 3),
], ids=["exit-0", "unsolicited-exit-3"])
def test_no_external_child_outlives_a_cli_process(tmp_path, child, code):
    # The process entry point ends with os._exit, which runs no finalizer:
    # every child must be stopped and reaped before main returns.
    pids = tmp_path / "pids"
    evaluator = {"variant": "external", "dim": 2,
                 "command": [sys.executable, "-c", PID_CHILD, str(pids), *child]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "evaluator": evaluator}))
    for argv in (["size-domain", "--out", str(tmp_path / "domain.json")],
                 ["sample", "--domain", _write_domain(tmp_path), "--n", "5000",
                  "--out", str(tmp_path / "samples.csv")]):
        proc = _cli_process(*argv, "--config", str(path))
        assert proc.returncode == code, proc.stderr
    started = [int(pid) for pid in pids.read_text().split()]
    assert len(started) == 2
    for pid in started:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_console_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"tolalloc": "tolalloc.cli:run"}


def _write_domain(tmp_path):
    path = tmp_path / "fixed_domain.json"
    path.write_text(json.dumps({
        "tau_min": [0.0, 0.0],
        "tau_max": [1.0, 0.5],
        "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]],
    }))
    return str(path)


def test_seed_flag_overrides_config(tmp_path, capsys, config_path):
    domain = _write_domain(tmp_path)
    base = tmp_path / "base.csv"
    override = tmp_path / "override.csv"
    run(capsys, "sample", "--config", config_path, "--domain", domain, "--n", "20",
        "--out", str(base))
    # The largest seed the sampler takes.
    code, _, _ = run(capsys, "sample", "--config", config_path, "--domain", domain,
                     "--n", "20", "--seed", str(2**64 - 1), "--out", str(override))
    assert code == 0
    assert base.read_bytes() != override.read_bytes()


# The sampler's state is 64 bits wide: a seed outside [0, 2**64) exits 2
# naming the flag, and writes nothing.
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_flag_outside_64_bits_exits_2(tmp_path, capsys, config_path, seed):
    out = tmp_path / "samples.csv"
    code, _, stderr = run(capsys, "sample", "--config", config_path,
                          "--domain", _write_domain(tmp_path), "--n", "5", "--seed", seed,
                          "--out", str(out))
    assert code == 2
    assert stderr.startswith(f"error: --seed must be an integer in [0, {2**64}), got {seed}")
    assert not out.exists()


def test_sample_without_a_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in BOWL_CONFIG.items() if k != "seed"}))
    out = tmp_path / "samples.csv"
    code, _, stderr = run(capsys, "sample", "--config", str(path),
                          "--domain", _write_domain(tmp_path), "--n", "5", "--out", str(out))
    assert (code, stderr) == (2, "error: --seed is required when the config has no seed field\n")
    assert not out.exists()


def test_n_flag_below_1_exits_2(tmp_path, capsys, config_path):
    out = tmp_path / "samples.csv"
    code, _, stderr = run(capsys, "sample", "--config", config_path,
                          "--domain", _write_domain(tmp_path), "--n", "0", "--out", str(out))
    assert (code, stderr) == (2, "error: --n must be an integer >= 1, got 0\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# Failure modes and exit codes
# ---------------------------------------------------------------------------

def test_bad_config_version_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 99}))
    code, _, stderr = run(capsys, "size-domain", "--config", str(bad),
                          "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert f"unsupported format_version in config {bad}" in stderr
    assert not (tmp_path / "d.json").exists()


def test_missing_sample_file_exits_2_without_writing(tmp_path, capsys, config_path):
    domain, samples = _write_domain(tmp_path), tmp_path / "samples.csv"
    run(capsys, "sample", "--config", config_path, "--domain", domain, "--n", "60",
        "--out", str(samples))
    missing = str(tmp_path / "nope.csv")
    out = tmp_path / "model.json"
    # The holdout is read before the fit, so a missing one leaves no model.
    for files in (["--samples", missing], ["--samples", str(samples), "--holdout", missing]):
        code, stdout, stderr = run(capsys, "fit", "--config", config_path, "--domain", domain,
                                   *files, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and missing in stderr
        assert not out.exists() and not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("body, named", [
    ("", "no sample rows"),
    ("1.0,0.0,1.0\r\n\r\n", "line 3 is blank"),
    ("0.0,0.0,0.0\r\n0.5,0.25,nan\r\n", "line 3 holds a non-finite number"),
    ("inf,0.0,1.0\r\n", "line 2 holds a non-finite number"),
], ids=["header-only", "blank-line", "nan-q", "inf-coordinate"])
def test_malformed_sample_file_exits_2_without_writing(tmp_path, capsys, config_path, body,
                                                       named):
    table = tmp_path / "samples.csv"
    table.write_text("mu_1,mu_2,q\r\n" + body, newline="")
    out = tmp_path / "model.json"
    code, _, stderr = run(capsys, "fit", "--config", config_path,
                          "--domain", _write_domain(tmp_path),
                          "--samples", str(table), "--out", str(out))
    assert code == 2
    assert f"malformed sample file {table}: {named}" in stderr
    assert not out.exists()
    tabulated = tmp_path / "tabulated.json"
    tabulated.write_text(json.dumps(
        {**BOWL_CONFIG, "evaluator": {"variant": "tabulated", "path": str(table)}}))
    code, _, stderr = run(capsys, "size-domain", "--config", str(tabulated),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 2
    assert f"malformed sample file {table}: {named}" in stderr
    assert not (tmp_path / "domain.json").exists()


def test_unknown_measure_kind_exits_2(tmp_path, capsys):
    config = dict(BOWL_CONFIG)
    config["measure"] = {"kind": "p-norm"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    domain = _write_domain(tmp_path)
    model = tmp_path / "model.json"
    # Build a model first with the good config.
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BOWL_CONFIG))
    samples = tmp_path / "s.csv"
    run(capsys, "sample", "--config", str(good), "--domain", domain, "--n", "200",
        "--out", str(samples))
    run(capsys, "fit", "--config", str(good), "--domain", domain, "--samples",
        str(samples), "--out", str(model))
    code, _, stderr = run(capsys, "allocate", "--config", str(path), "--domain", domain,
                          "--model", str(model), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "kind" in stderr


def test_infeasible_nominal_exits_1(tmp_path, capsys):
    config = dict(BOWL_CONFIG)
    config["nominal"] = [5.0, 5.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "d.json"))
    assert code == 1
    assert "constraint violated" in stderr


def test_non_finite_nominal_performance_exits_3(tmp_path, capsys):
    # A finite nominal whose performance overflows: a NaN nominal is a usage
    # error, caught when the config loads.
    config = dict(BOWL_CONFIG)
    config["nominal"] = [1e200, 0.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "d.json"))
    assert code == 3
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "non-finite performance" in stderr


# The ALS sweep schedule is constants in tolalloc.surrogate, not fit settings,
# and the fit draws nothing, so it takes no seed.
@pytest.mark.parametrize("section, key", [
    ("fit", "bogus"),
    ("fit", "max_sweeps"),
    ("fit", "sweep_stall_tol"),
    ("fit", "regularization"),
    ("fit", "seed"),
], ids=["fit", "fit.max_sweeps", "fit.sweep_stall_tol", "fit.regularization", "fit.seed"])
def test_unknown_key_in_config_section_exits_2(tmp_path, capsys, section, key):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BOWL_CONFIG))
    config = dict(BOWL_CONFIG)
    config[section] = {**config[section], key: 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    domain = _write_domain(tmp_path)
    samples = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sample", "--config", str(good), "--domain", domain,
                     "--n", "200", "--out", str(samples))
    assert code == 0
    model = tmp_path / "model.json"
    for argv in (["sample", "--n", "200", "--out", str(tmp_path / "s2.csv")],
                 ["fit", "--samples", str(samples), "--out", str(model)]):
        code, _, stderr = run(capsys, argv[0], "--config", str(path), "--domain", domain,
                              *argv[1:])
        assert code == 2
        assert f"'{section}' in config {path} does not read key(s) {key}" in stderr
    assert not model.exists()


@pytest.mark.parametrize("field, value, named", [
    ("boxmax", {"n_multistarts": 4}, "boxmax"),
    ("traversal", {"max_iters": 5}, "traversal"),
    ("sampling_domain", [[-1.0, 1.0], [-0.5, 0.5]], "sampling_domain"),
    ("bbox", {"caps": 10.0, "tau_max": [0.5, 0.5]}, "tau_max"),
    ("check_thresholds", {"tol_err": 1e-3}, "tol_err"),
    ("q_alow", 1.0, "q_alow"),
], ids=["boxmax", "traversal", "sampling_domain", "bbox.tau_max", "check_thresholds.tol_err",
        "misspelled"])
def test_unknown_config_field_exits_2(tmp_path, capsys, field, value, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, field: value}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert named in stderr
    assert not out.exists()


# json.loads raises a bare ValueError on an integer beyond Python's digit
# limit, and read_text a UnicodeDecodeError on bytes that are not UTF-8.
@pytest.mark.parametrize("data", [b"{", b'{"q_allow": 1' + b"0" * 5000 + b"}", b"\xff{}"],
                         ids=["truncated", "5001-digit-integer", "not-utf-8"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 2
    assert stderr.startswith(f"error: cannot read config file {path}: ")


@pytest.mark.parametrize("text", [
    "[1]",
    json.dumps({**BOWL_CONFIG, "bbox": 10.0}),
    pytest.param(json.dumps({**BOWL_CONFIG, "check_thresholds": [["tol_err_inf", 1e-3]]}),
                 id="check_thresholds"),
    pytest.param(json.dumps({**BOWL_CONFIG, "measure": "one-norm"}), id="measure"),
])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 2
    assert f"config {path} must be a JSON object" in stderr


@pytest.mark.parametrize("command, flag, text", [
    ("sample", "--domain", "[]"),
    ("sample", "--domain", "{}"),
    ("sample", "--domain", '{"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5]}'),
    ("sample", "--domain", json.dumps({"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                                       "sampling_domain": [[0.0, 1.0]]})),
    ("allocate", "--model", "[]"),
    ("allocate", "--model", json.dumps({"format_version": 1})),
], ids=["domain-list", "domain-empty", "domain-no-sampling_domain", "domain-rows-differ-from-tau",
        "model-list", "model-no-fields"])
def test_domain_or_model_file_that_is_not_an_object_exits_2(tmp_path, capsys, config_path,
                                                            command, flag, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files = {"--domain": _write_domain(tmp_path), "--model": str(tmp_path / "model.json"),
             flag: str(bad)}
    out = tmp_path / "out"
    argv = {"sample": ["--domain", files["--domain"], "--n", "10"],
            "allocate": ["--domain", files["--domain"], "--model", files["--model"]]}[command]
    code, _, stderr = run(capsys, command, "--config", config_path, *argv, "--out", str(out))
    assert code == 2
    assert str(bad) in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


# json.dumps writes a non-finite float as the raw JSON text NaN, Infinity or
# -Infinity, which the config loader reads back.
@pytest.mark.parametrize("nominal", [None, 0.5, [], [[0.0, 0.0]], ["0", "0"],
                                     [float("nan"), 0.0], [0.0, float("inf")],
                                     [float("-inf"), 0.0]],
                         ids=["null", "scalar", "empty", "nested", "strings", "nan", "inf",
                              "minus-inf"])
def test_nominal_that_is_not_a_list_of_numbers_exits_2(tmp_path, capsys, nominal):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "nominal": nominal}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert str(path) in stderr and "'nominal'" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("caps", "x"),
    ("caps", [1.0, 2.0, 3.0]),
    ("caps", -1.0),
    ("caps", [1.0, 0.0]),
    ("tau_min", "x"),
    ("tau_min", [0.0, 0.0, 0.0]),
    ("tau_min", [-1.0, 0.0]),
    ("tau_min", [0.0, True]),
    ("caps", True),
    ("caps", "5"),
    ("caps", [True, 2.0]),
    ("caps", ["1", 2.0]),
], ids=["string", "wrong-length", "caps-negative", "caps-zero", "tau_min-string",
        "tau_min-wrong-length", "tau_min-negative", "tau_min-bool", "caps-bool",
        "caps-numeric-string", "caps-bool-entry", "caps-numeric-string-entry"])
def test_malformed_bbox_caps_exits_2(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "bbox": {"caps": 10.0, field: value}}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert str(path) in stderr and f"'{field}'" in stderr
    if value in ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]):
        assert stderr == (f"error: 'bbox' field '{field}' in config {path} must hold 2 entries, "
                          "one per parameter\n")
    assert not out.exists()


def test_bbox_tau_min_is_checked_before_the_evaluator_starts(tmp_path, capsys):
    config = {**BOWL_CONFIG, "bbox": {"tau_min": [-1.0, 0.0]},
              "evaluator": {"variant": "external", "dim": 2,
                            "command": [str(tmp_path / "no-such-solver")]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 2
    assert "'tau_min'" in stderr and "cannot start" not in stderr


def test_bbox_tau_min_above_the_sized_tau_max_prints_both(tmp_path, capsys):
    # The bowl's tau_max is (1, 0.5), so tau_min_2 = 0.5 is not below it.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "bbox": {"tau_min": [0.1, 0.5]}}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert str(path) in stderr and "'tau_min'" in stderr
    assert "tau_min = [0.1, 0.5], tau_max = [1.0, 0.5]" in stderr
    assert not out.exists()


def test_domain_file_with_tau_min_not_below_tau_max_exits_2(tmp_path, capsys, config_path):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({"tau_min": [0.0, 0.5], "tau_max": [1.0, 0.5],
                                "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]]}))
    out = tmp_path / "samples.csv"
    code, _, stderr = run(capsys, "sample", "--config", config_path, "--domain", str(path),
                          "--n", "10", "--out", str(out))
    assert code == 2
    assert str(path) in stderr and "'tau_min'" in stderr and "'tau_max'" in stderr
    assert not out.exists()


def test_sampling_domain_of_another_dimension_than_the_evaluator_exits_2(tmp_path, capsys,
                                                                         config_path):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({"tau_min": [0.0], "tau_max": [1.0],
                                "sampling_domain": [[0.0, 1.0]]}))
    out = tmp_path / "samples.csv"
    code, _, stderr = run(capsys, "sample", "--config", config_path, "--domain", str(path),
                          "--n", "10", "--out", str(out))
    assert code == 2
    assert stderr == (f"error: 'sampling_domain' in domain file {path} must hold 2 entries, "
                      "one per parameter\n")
    assert not out.exists()


RESULT = json.dumps({"tau": [0.1, 0.1]})
MODEL_FIELDS = "coeffs, degree, dim, intervals, rank, scales"


@pytest.mark.parametrize("flag, text, named", [
    ("--tau", "[]", "file PATH must be a JSON object, got []"),
    ("--reference", "[]", "file PATH must be a JSON object, got []"),
    ("--tau", "{}", "file PATH lacks key(s) tau"),
    ("--reference", json.dumps({"tau": "wide"}),
     "file PATH lacks a 'tau' vector of finite numbers"),
    ("--tau", json.dumps({"tau": [None, None]}),
     "file PATH lacks a 'tau' vector of finite numbers"),
    ("--tau", json.dumps({"tau": [-0.1, 0.2]}),
     "file PATH lacks a 'tau' vector of finite numbers >= 0"),
    ("--model", json.dumps({"format_version": 1}), f"file PATH: model lacks key(s) {MODEL_FIELDS}"),
    ("--tau", json.dumps({"format_version": "x", "tau": [0.1, 0.1]}),
     "unsupported format_version in tolerance result file PATH: format_version must be an "
     "integer in [1, 2), got 'x'"),
], ids=["tau-list", "reference-list", "tau-empty", "reference-tau-string", "tau-nulls",
        "tau-negative", "model-no-fields", "tau-version-string"])
def test_check_file_that_is_malformed_exits_2(tmp_path, capsys, config_path, flag, text, named):
    files = {"--tau": tmp_path / "tau.json", "--reference": tmp_path / "reference.json",
             "--model": tmp_path / "model.json"}
    for path in files.values():
        path.write_text(RESULT)
    files[flag].write_text(text)
    argv = [str(arg) for pair in files.items() for arg in pair]
    code, _, stderr = run(capsys, "check", "--config", config_path, *argv)
    assert code == 2
    assert named.replace("PATH", str(files[flag])) in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("field, value, reason", [
    *[("format_version", version, "unsupported format_version in model: format_version must be "
       f"an integer in [1, 2), got {version!r}") for version in (2, True, 1.0)],
    ("intervals", 5, "intervals must be a list of [lo, hi] pairs with lo < hi, got 5"),
    ("scales", "x", "scales must hold only numbers, got 'x'"),
    ("dim", 2.5, "dim must be an integer >= 1, got 2.5"),
    ("degree", 3.9, "degree must be an integer >= 0, got 3.9"),
    ("rank", True, "rank must be an integer >= 1, got True"),
], ids=["version", "version-bool", "version-float", "intervals", "scales", "dim-fraction",
        "degree-fraction", "rank-bool"])
def test_model_file_with_a_bad_value_exits_2(tmp_path, capsys, config_path, field, value,
                                             reason):
    data = model_dict(random_model(np.random.default_rng(17)))
    data[field] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    files = {"--tau": tmp_path / "tau.json", "--reference": tmp_path / "reference.json"}
    for path in files.values():
        path.write_text(RESULT)
    argv = [str(arg) for pair in files.items() for arg in pair]
    code, _, stderr = run(capsys, "check", "--config", config_path, "--model", str(model), *argv)
    assert code == 2
    assert stderr == f"error: bad model file {model}: {reason}\n"


THREE = [0.1, 0.2, 0.3]


FILE_KINDS = {"config": "config", "domain": "domain file", "tau": "tolerance result file",
              "reference": "reference result file"}


# Each names the file and the field whose length is not the d = 2 model's.
@pytest.mark.parametrize("command, name, text, field", [
    ("allocate", "config", {**BOWL_CONFIG, "nominal": [0.0, 0.0, 0.0]}, "nominal"),
    ("allocate", "domain", {"tau_min": [0.0] * 3, "tau_max": [1.0] * 3,
                            "sampling_domain": [[-1.0, 1.0]] * 3}, "tau_min"),
    ("allocate", "config", {**BOWL_CONFIG, "measure": {"kind": "mu-norm", "weights": THREE}},
     "measure.weights"),
    ("allocate", "config", {**BOWL_CONFIG, "measure": {
        "kind": "reciprocal-power-cost", "a": [0.0, 0.0], "b": THREE, "k": [1.0, 1.0]}},
     "measure.b"),
    ("allocate", "config", {**BOWL_CONFIG, "measure": {
        "kind": "reciprocal-power-cost", "a": [0.0, 0.0], "b": [1.0, 1.0], "k": [1.0]}},
     "measure.k"),
    ("check", "config", {**BOWL_CONFIG, "measure": {"kind": "mu-norm", "weights": THREE}},
     "measure.weights"),
    ("check", "tau", {"tau": THREE}, "tau"),
    ("check", "reference", {"tau": THREE}, "tau"),
], ids=["allocate-nominal", "allocate-domain", "allocate-weights", "allocate-cost-b",
        "allocate-cost-k", "check-weights", "check-tau", "check-reference"])
def test_vector_of_another_dimension_than_the_model_exits_2(tmp_path, capsys, command, name,
                                                            text, field):
    files = {key: tmp_path / f"{key}.json" for key in ("config", "tau", "reference", "model")}
    files["config"].write_text(json.dumps(BOWL_CONFIG))
    files["tau"].write_text(RESULT)
    files["reference"].write_text(RESULT)
    files["domain"] = _write_domain(tmp_path)
    SeparatedModel(dim=2, rank=1, degree=2, intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                   scales=np.ones(1), coeffs=np.ones((1, 2, 3))).save(files["model"])
    files[name] = tmp_path / f"bad_{name}.json"
    files[name].write_text(json.dumps(text))
    out = tmp_path / "out.json"
    argv = {"allocate": ["--domain", files["domain"], "--model", files["model"], "--out", out],
            "check": ["--model", files["model"], "--tau", files["tau"],
                      "--reference", files["reference"]]}[command]
    code, _, stderr = run(capsys, command, "--config", *map(str, [files["config"], *argv]))
    assert code == 2
    if field.startswith("measure."):  # the measure module checks its own vectors
        assert stderr.startswith(f"error: bad 'measure' in config {files[name]}: "
                                 f"{field[8:]} must hold 2 numbers, one per parameter, got ")
    else:
        assert stderr == (f"error: '{field}' in {FILE_KINDS[name]} {files[name]} must hold 2 "
                          "entries, one per parameter\n")
    assert not out.exists()


# A sample file whose rows hold mu_1, mu_2, mu_3 and q.
SAMPLES_D3 = "mu_1,mu_2,mu_3,q\r\n0.1,0.2,0.3,1.0\r\n"


# Each names the file, the field and d = 2, which size-domain and sample take
# from the evaluator and fit from the domain file.  The evaluator is an
# external one whose command does not exist, so a check made after it
# started would fail with "cannot start" instead.
@pytest.mark.parametrize("command, name, text, where, field", [
    ("size-domain", "config", {"nominal": THREE}, "config", "'nominal'"),
    ("size-domain", "config", {"bbox": {"caps": THREE}}, "config", "'bbox' field 'caps'"),
    ("size-domain", "config", {"bbox": {"tau_min": THREE}}, "config", "'bbox' field 'tau_min'"),
    ("sample", "domain", {"tau_min": [0.0], "tau_max": [1.0], "sampling_domain": [[0.0, 1.0]]},
     "domain file", "'sampling_domain'"),
    ("sample", "domain", {"sampling_domain": [[-1.0, 1.0]]}, "domain file", "'sampling_domain'"),
    ("fit", "samples", SAMPLES_D3, "sample file", "the mu of each row"),
    ("fit", "holdout", SAMPLES_D3, "sample file", "the mu of each row"),
    ("fit", "domain", {"tau_min": [0.0]}, "domain file", "'tau_min'"),
], ids=["size-domain-nominal", "size-domain-caps", "size-domain-tau_min", "sample-1-row-domain",
        "sample-rows-differ-from-tau_max", "fit-samples", "fit-holdout", "fit-domain-tau_min"])
def test_vector_of_another_dimension_than_the_evaluator_or_domain_exits_2(
        tmp_path, capsys, monkeypatch, command, name, text, where, field):
    config = {**BOWL_CONFIG, "evaluator": {"variant": "external", "dim": 2,
                                           "command": [str(tmp_path / "no-such-solver")]}}
    files = {"config": tmp_path / "config.json", "domain": Path(_write_domain(tmp_path)),
             "samples": tmp_path / "samples.csv", "holdout": tmp_path / "holdout.csv"}
    files["config"].write_text(json.dumps(config))
    for key in ("samples", "holdout"):
        files[key].write_text("mu_1,mu_2,q\r\n0.1,0.2,1.0\r\n")
    base = {"config": config, "domain": json.loads(files["domain"].read_text())}
    files[name] = tmp_path / f"bad_{name}"
    files[name].write_text(text if isinstance(text, str) else json.dumps({**base[name], **text}))
    fits = []
    monkeypatch.setattr(cli, "als_fit", lambda *args: fits.append(args))
    out = tmp_path / "out"
    argv = {"size-domain": [],
            "sample": ["--domain", files["domain"], "--n", "10"],
            "fit": ["--domain", files["domain"], "--samples", files["samples"],
                    "--holdout", files["holdout"]]}[command]
    code, stdout, stderr = run(capsys, command, "--config",
                               *map(str, [files["config"], *argv, "--out", out]))
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: {field} in {where} {files[name]} must hold 2 entries, "
                      "one per parameter\n")
    assert "cannot start" not in stderr and not fits
    assert not out.exists() and not list(tmp_path.glob("*.tmp"))


# A sample row outside the domain file's intervals exits 2 naming the sample
# file and the domain file, before the fit, whichever file holds it.
@pytest.mark.parametrize("name, row", [("samples", "3.0,0.0,9.0"), ("holdout", "5.0,0.0,25.0")],
                         ids=["samples", "holdout"])
def test_fit_sample_outside_the_domain_exits_2(tmp_path, capsys, monkeypatch, config_path,
                                               name, row):
    domain = _write_domain(tmp_path)  # [-1, 1] x [-0.5, 0.5]
    files = {key: tmp_path / f"{key}.csv" for key in ("samples", "holdout")}
    for path in files.values():
        path.write_text("mu_1,mu_2,q\r\n0.1,0.2,0.17\r\n")
    files[name].write_text(f"mu_1,mu_2,q\r\n0.1,0.2,0.17\r\n{row}\r\n")
    fits = []
    monkeypatch.setattr(cli, "als_fit", lambda *args: fits.append(args))
    out = tmp_path / "model.json"
    code, stdout, stderr = run(capsys, "fit", "--config", config_path, "--domain", domain,
                               "--samples", str(files["samples"]),
                               "--holdout", str(files["holdout"]), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: sample file {files[name]} lies outside the "
                             f"'sampling_domain' of domain file {domain}: points fall outside "
                             "interval for dimension 0")
    assert not fits and not out.exists() and not list(tmp_path.glob("*.tmp"))


# A measure key that the kind does not read, or lacks, a kind that is not a
# known name and a vector that holds a bool or a string exit 2 naming the
# config file and the key; a one-norm's 'weights' is not length-checked.
@pytest.mark.parametrize("command", ["allocate", "check"])
@pytest.mark.parametrize("measure, named", [
    ({"kind": "mu-norm", "weight": [1.0, 1.0]}, "does not read key(s) weight"),
    ({"kind": "one-norm", "weights": THREE}, "does not read key(s) weights"),
    ({"kind": "reciprocal-power-cost", "a": [0.0, 0.0], "b": [1.0, 1.0]}, "lacks key(s) k"),
    ({"kind": ["one-norm"]}, "unknown measure kind ['one-norm']"),
    ({}, "measure lacks key(s) kind"),
    ({"kind": "mu-norm", "weights": ["1", True]}, "weights must hold only numbers"),
    ({"kind": "reciprocal-power-cost", "a": [0.0, 0.0], "b": [1.0, "1"], "k": [1.0, 1.0]},
     "b must hold only numbers"),
    ({"kind": "reciprocal-power-cost", "a": [0.0, 0.0], "b": [1.0, 1.0], "k": [True, 1.0]},
     "k must hold only numbers"),
], ids=["mu-norm-weight", "one-norm-weights", "cost-without-k", "kind-list", "no-kind",
        "mu-norm-weights-string-and-bool", "cost-b-string", "cost-k-bool"])
def test_measure_key_the_kind_does_not_read_exits_2(tmp_path, capsys, command, measure, named):
    config, model = tmp_path / "config.json", tmp_path / "model.json"
    config.write_text(json.dumps({**BOWL_CONFIG, "measure": measure}))
    SeparatedModel(dim=2, rank=1, degree=2, intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                   scales=np.ones(1), coeffs=np.ones((1, 2, 3))).save(model)
    (tmp_path / "tau.json").write_text(RESULT)
    out = tmp_path / "out.json"
    argv = {"allocate": ["--domain", _write_domain(tmp_path), "--out", out],
            "check": ["--tau", tmp_path / "tau.json", "--reference", tmp_path / "tau.json"]}
    code, stdout, stderr = run(capsys, command, "--config", str(config), "--model", str(model),
                               *map(str, argv[command]))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: bad 'measure' in config {config}: ") and named in stderr
    assert not out.exists()


# A nominal design outside the model's intervals exits 2 naming the config
# file and 'nominal', whichever measure the config asks for.
@pytest.mark.parametrize("command", ["allocate", "check"])
@pytest.mark.parametrize("measure", [{"kind": "one-norm"}, {"kind": "mu-norm"}],
                         ids=["one-norm", "mu-norm"])
def test_nominal_outside_the_model_intervals_exits_2(tmp_path, capsys, command, measure):
    config, model = tmp_path / "config.json", tmp_path / "model.json"
    config.write_text(json.dumps({**BOWL_CONFIG, "nominal": [5.0, 0.0], "measure": measure}))
    SeparatedModel(dim=2, rank=1, degree=2, intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                   scales=np.ones(1), coeffs=np.ones((1, 2, 3))).save(model)
    (tmp_path / "tau.json").write_text(RESULT)
    out = tmp_path / "out.json"
    argv = {"allocate": ["--domain", _write_domain(tmp_path), "--out", out],
            "check": ["--tau", tmp_path / "tau.json", "--reference", tmp_path / "tau.json"]}
    code, stdout, stderr = run(capsys, command, "--config", str(config), "--model", str(model),
                               *map(str, argv[command]))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: 'nominal' in config {config} lies outside the model's "
                             "intervals: points fall outside interval for dimension 0")
    assert not out.exists()


# A box nominal +- tau that leaves the model's intervals exits 2 naming the
# file and the field: the domain's 'tau_max' in allocate, the result's 'tau'
# in check.
@pytest.mark.parametrize("command", ["allocate", "check"])
def test_box_outside_the_model_intervals_exits_2(tmp_path, capsys, config_path, command):
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    SeparatedModel(dim=2, rank=1, degree=2, intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                   scales=np.ones(1), coeffs=np.ones((1, 2, 3))).save(model)
    domain, tau = tmp_path / "domain.json", tmp_path / "tau.json"
    domain.write_text(json.dumps({"tau_min": [0.0, 0.0], "tau_max": [3.0, 1.5],
                                  "sampling_domain": [[-3.0, 3.0], [-1.5, 1.5]]}))
    tau.write_text(json.dumps({"tau": [5.0, 5.0]}))
    bad, field, argv = {"allocate": (domain, "tau_max", ["--domain", domain, "--out", out]),
                        "check": (tau, "tau", ["--tau", tau, "--reference", tau])}[command]
    code, stdout, stderr = run(capsys, command, "--config", config_path, "--model", str(model),
                               *map(str, argv))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: the box 'nominal' +- '{field}' of ")
    assert (f"file {bad} lies outside the model's intervals: "
            "points fall outside interval for dimension 0") in stderr
    assert not out.exists()


# Two faults at once: each command reports the one it checks first.  The
# dimension checks come before the nominal and box checks in allocate and
# check; sample reads the domain file, and size-domain its caps, before either
# checks the evaluator's dimension.
@pytest.mark.parametrize("case", ["allocate", "check-tau", "check-reference", "sample",
                                  "size-domain"])
def test_the_first_of_two_faults_is_the_one_reported(tmp_path, capsys, case):
    model, out = tmp_path / "model.json", tmp_path / "out"
    SeparatedModel(dim=2, rank=1, degree=2, intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                   scales=np.ones(1), coeffs=np.ones((1, 2, 3))).save(model)
    config, domain = tmp_path / "config.json", tmp_path / "domain.json"
    tau, reference = tmp_path / "tau.json", tmp_path / "reference.json"
    bowl_d3 = {**BOWL_CONFIG, "evaluator": {**BOWL_CONFIG["evaluator"],
                                            "parameters": {"a": [1.0, 4.0, 9.0]}}}
    if case == "allocate":  # a domain of d = 3, and a nominal outside the model
        config.write_text(json.dumps({**BOWL_CONFIG, "nominal": [5.0, 0.0]}))
        domain.write_text(json.dumps({"tau_min": [0.0] * 3, "tau_max": [1.0] * 3,
                                      "sampling_domain": [[-1.0, 1.0]] * 3}))
        argv = ["allocate", "--domain", domain, "--model", model, "--out", out]
        named = f"'tau_min' in domain file {domain} must hold 2 entries, one per parameter"
    elif case.startswith("check"):  # a tau of d = 3, and a box outside the model
        config.write_text(json.dumps(BOWL_CONFIG))
        tau.write_text(json.dumps({"tau": [5.0] * (3 if case == "check-tau" else 2)}))
        reference.write_text(json.dumps({"tau": [0.1] * (2 if case == "check-tau" else 3)}))
        argv = ["check", "--model", model, "--tau", tau, "--reference", reference]
        named = (f"'tau' in tolerance result file {tau}" if case == "check-tau" else
                 f"'tau' in reference result file {reference}")
        named += " must hold 2 entries, one per parameter"
    elif case == "sample":  # an evaluator of d = 3, and tau_min above tau_max
        config.write_text(json.dumps(bowl_d3))
        domain.write_text(json.dumps({"tau_min": [2.0, 0.0], "tau_max": [1.0, 0.5],
                                      "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]]}))
        argv = ["sample", "--domain", domain, "--n", "10", "--out", out]
        named = (f"fields 'tau_min' and 'tau_max' of domain file {domain} are malformed: "
                 "require 0 <= tau_min_i < tau_max_i < inf for all i")
    else:  # an evaluator of d = 3, and a cap <= 0
        config.write_text(json.dumps({**bowl_d3, "bbox": {"caps": [1.0, 0.0]}}))
        argv = ["size-domain", "--out", out]
        named = f"'bbox' field 'caps' in config {config} must be > 0, got [1.0, 0.0]"
    code, stdout, stderr = run(capsys, argv[0], "--config", str(config), *map(str, argv[1:]))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {named}\n"
    assert not out.exists()


def test_sample_with_a_non_finite_value_exits_3(tmp_path, capsys):
    # exp-cos overflows to inf above mu_1 = 709.78.
    path, domain = tmp_path / "config.json", tmp_path / "domain.json"
    path.write_text(json.dumps({**BOWL_CONFIG,
                                "evaluator": {"variant": "builtin", "name": "exp-cos"}}))
    domain.write_text(json.dumps({"tau_min": [0.0, 0.0], "tau_max": [10.0, 1.0],
                                  "sampling_domain": [[700.0, 720.0], [-1.0, 1.0]]}))
    samples = tmp_path / "samples.csv"
    argv = ["sample", "--config", str(path), "--domain", str(domain), "--n", "50",
            "--out", str(samples)]
    code, _, stderr = run(capsys, *argv)
    assert code == 3
    assert stderr.startswith("error: evaluation failed at mu=[7")
    assert stderr.endswith(": non-finite value inf\n") and stderr.count("\n") == 1
    # A process prints no numpy warning ahead of the error either.
    proc = _cli_process(*argv)
    assert (proc.returncode, proc.stderr) == (3, stderr)
    assert not samples.exists()


@pytest.mark.parametrize("fit, named", [
    ({"target_rank": 2, "degree": 2.5}, ": degree must be an integer >= 0, got 2.5"),
    ({"target_rank": 1.5, "degree": 2}, ": target_rank must be an integer"),
    ({"target_rank": True, "degree": 2}, ": target_rank must be an integer"),
    ({"target_rank": 2, "degree": 2, "rel_residual_tol": float("nan")},
     ": rel_residual_tol must hold only finite numbers"),
    ({"target_rank": 2, "degree": 2, "rel_residual_tol": "1e-8"},
     ": rel_residual_tol must hold only numbers"),
    ({"target_rank": 2, "degree": 2, "rel_residual_tol": 0},
     ": rel_residual_tol must be a finite number > 0, got 0"),
    ({"target_rank": 2}, " lacks key(s) degree"),
], ids=["degree-float", "rank-float", "rank-bool", "tol-nan", "tol-string", "tol-zero",
        "no-degree"])
def test_bad_fit_value_exits_2(tmp_path, capsys, fit, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "fit": fit}))
    domain, samples = _write_domain(tmp_path), tmp_path / "samples.csv"
    code, _, _ = run(capsys, "sample", "--config", str(path), "--domain", domain,
                     "--n", "60", "--out", str(samples))
    assert code == 0
    model = tmp_path / "model.json"
    code, _, stderr = run(capsys, "fit", "--config", str(path), "--domain", domain,
                          "--samples", str(samples), "--out", str(model))
    assert code == 2
    assert stderr.startswith(f"error: 'fit' in config {path}{named}")
    assert not model.exists()


def _external_bowl(timeout) -> dict:
    return {"variant": "external", "dim": 2, "timeout_seconds": timeout,
            "command": [sys.executable, "-m", "tolalloc.serve", "quadratic-bowl",
                        "--parameters", json.dumps({"a": [1.0, 4.0]})]}


# Each is rejected before any work: no evaluator child is started.
@pytest.mark.parametrize("field, value, named", [
    ("check_thresholds", {"tol_err_inf": "tight"},
     "'tol_err_inf' in PATH must hold only numbers, got 'tight'"),
    ("check_thresholds", {"tol_err_inf": True},
     "'tol_err_inf' in PATH must hold only numbers, got True"),
    ("check_thresholds", {"tol_err_inf": None},
     "'tol_err_inf' in PATH must hold only numbers, got None"),
    ("check_thresholds", {"tol_err_inf": float("nan")},
     "'tol_err_inf' in PATH must hold only finite numbers, got nan"),
    ("check_thresholds", {"tol_err_inf": [1e-3]},
     "'tol_err_inf' in PATH must be a number, got [0.001]"),
    *[("evaluator", _external_bowl(timeout), "bad evaluator spec in config PATH: timeout_seconds")
      for timeout in (-1.0, 0.0, float("nan"), float("inf"))],
    *[("format_version", version, "unsupported format_version in config PATH: format_version "
       f"must be an integer in [1, 2), got {version!r}") for version in (True, 1.0, 2, None)],
], ids=["threshold-string", "threshold-bool", "threshold-null", "threshold-nan",
        "threshold-list", "timeout-negative", "timeout-zero", "timeout-nan", "timeout-inf",
        "version-bool", "version-float", "version-2", "version-null"])
def test_bad_config_value_exits_2(tmp_path, capsys, field, value, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, field: value}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert named in stderr.replace(str(path), "PATH")
    assert not out.exists()


UNIT_MODEL = model_dict(SeparatedModel(dim=2, rank=1, degree=2,
                                       intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                                       scales=np.ones(1), coeffs=np.ones((1, 2, 3))))
# Domain files that break the number rule: bools and numeric strings, and NaN.
STRING_DOMAIN = {"tau_min": [0, 0], "tau_max": [True, "0.5"],
                 "sampling_domain": [["-1", 1], [-0.5, True]]}
STRING_ROWS_DOMAIN = {**STRING_DOMAIN, "tau_max": [1, 0.5]}
NAN_DOMAIN = {"tau_min": [0.0, 0.0], "tau_max": [float("nan"), 0.5],
              "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]]}
BIG = 10**400  # a JSON integer too big for a float


# Each exits 2, naming the file and the field, and writes nothing.
@pytest.mark.parametrize("command, name, text, field", [
    ("allocate", "config", {**BOWL_CONFIG, "q_allow": [1, 2]}, "'q_allow'"),
    ("allocate", "config", {**BOWL_CONFIG, "q_allow": None}, "'q_allow'"),
    ("allocate", "config", {**BOWL_CONFIG, "measure": None}, "'measure'"),
    ("sample", "config", {**BOWL_CONFIG, "seed": [1]}, "'seed'"),
    ("sample", "config", {**BOWL_CONFIG, "seed": 1.5}, "'seed'"),
    ("sample", "config", {**BOWL_CONFIG, "seed": -1}, "'seed'"),
    ("sample", "config", {**BOWL_CONFIG, "seed": 2**64}, "'seed'"),
    ("sample", "domain", {"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                          "sampling_domain": 5}, "'sampling_domain'"),
    ("sample", "domain", {"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                          "sampling_domain": None}, "'sampling_domain'"),
    ("sample", "domain", {"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                          "sampling_domain": [5, 6]}, "'sampling_domain'"),
    ("allocate", "domain", {"tau_min": [0.0, 0.0], "tau_max": {"a": 1},
                            "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]]}, "'tau_max'"),
    ("check", "tau", {"tau": [True, "0.1"]}, "'tau'"),
    ("check", "tau", {"tau": [BIG, 0.1]}, "'tau'"),
    *[(command, "domain", text, field) for command in ("sample", "fit", "allocate")
      for text, field in [(STRING_DOMAIN, "'tau_max'"), (STRING_ROWS_DOMAIN, "'sampling_domain'"),
                          (NAN_DOMAIN, "'tau_max'")]],
    *[(command, "model", {**UNIT_MODEL, **bad}, field) for command in ("allocate", "check")
      for bad, field in [({"scales": ["1.0"]}, "scales must hold only numbers"),
                         ({"intervals": [[True, 1.0], [-0.5, 0.5]]},
                          "intervals must hold only numbers")]],
    ("allocate", "config", {**BOWL_CONFIG, "q_allow": BIG}, "'q_allow'"),
    ("fit", "domain", {"format_version": 2, "tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                       "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]]}, "format_version"),
    ("check", "tau", {"format_version": 1.0, "tau": [0.1, 0.1]}, "format_version"),
    *[(command, "config", {k: v for k, v in BOWL_CONFIG.items() if k != key},
       f"lacks key(s) {key}") for command, key in [("sample", "evaluator"), ("fit", "fit"),
                                                   ("allocate", "measure"), ("check", "nominal")]],
    ("sample", "config", {**BOWL_CONFIG, "evaluator": {
        **BOWL_CONFIG["evaluator"], "parameters": {"a": [BIG, 4.0]}}},
     "a must hold only finite numbers"),
], ids=["q_allow-list", "q_allow-null", "measure-null", "seed-list", "seed-float",
        "seed-negative", "seed-2**64",
        "sampling_domain-number", "sampling_domain-null", "sampling_domain-flat", "tau_max-object",
        "tau-bool-and-string", "tau-10**400",
        *[f"{command}-{kind}" for command in ("sample", "fit", "allocate")
          for kind in ("tau_max-strings", "sampling_domain-strings", "tau_max-nan")],
        *[f"{command}-{kind}" for command in ("allocate", "check")
          for kind in ("model-scales-string", "model-intervals-bool")],
        "q_allow-10**400", "domain-version-2", "tau-version-float", "sample-no-evaluator",
        "fit-no-fit", "allocate-no-measure", "check-no-nominal", "builtin-a-10**400"])
def test_malformed_field_exits_2(tmp_path, capsys, command, name, text, field):
    files = {"config": tmp_path / "config.json", "model": tmp_path / "model.json",
             "domain": _write_domain(tmp_path), "samples": tmp_path / "samples.csv",
             "tau": tmp_path / "tau.json"}
    files["config"].write_text(json.dumps(BOWL_CONFIG))
    write_json(files["model"], UNIT_MODEL)
    write_samples(files["samples"], draw_samples(
        QuadraticBowl(a=[1.0, 4.0]), (Interval(-1.0, 1.0), Interval(-0.5, 0.5)), 20, seed=0))
    files["tau"].write_text(RESULT)
    files[name] = tmp_path / f"bad_{name}.json"
    files[name].write_text(json.dumps(text))
    out = tmp_path / "out"
    argv = {"sample": ["--domain", files["domain"], "--n", "10", "--out", out],
            "fit": ["--domain", files["domain"], "--samples", files["samples"], "--out", out],
            "allocate": ["--domain", files["domain"], "--model", files["model"], "--out", out],
            "check": ["--model", files["model"], "--tau", files["tau"],
                      "--reference", files["tau"]]}[command]
    code, stdout, stderr = run(capsys, command, "--config", *map(str, [files["config"], *argv]))
    assert code == 2
    assert str(files[name]) in stderr and field in stderr
    assert stdout == ""
    assert not out.exists()


# A JSON integer reads as the float it equals: each command prints and
# writes the same from the integer spelling of a file as from its float twin.
@pytest.mark.parametrize("command, name, integral, floating", [
    ("size-domain", "config",
     {**BOWL_CONFIG, "q_allow": 1, "bbox": {"caps": 10, "tau_min": [0, 0]}},
     {**BOWL_CONFIG, "q_allow": 1.0, "bbox": {"caps": 10.0, "tau_min": [0.0, 0.0]}}),
    ("size-domain", "config",
     {**BOWL_CONFIG, "evaluator": _external_bowl(5)},
     {**BOWL_CONFIG, "evaluator": _external_bowl(5.0)}),
    ("sample", "domain",
     {"tau_min": [0, 0], "tau_max": [1, 1], "sampling_domain": [[-1, 1], [-1, 1]]},
     {"tau_min": [0.0, 0.0], "tau_max": [1.0, 1.0],
      "sampling_domain": [[-1.0, 1.0], [-1.0, 1.0]]}),
    ("check", "model",
     {**UNIT_MODEL, "intervals": [[-1, 1], [-1, 1]], "scales": [1],
      "coeffs": [[[1, 0, 1], [1, 1, 0]]]},
     {**UNIT_MODEL, "intervals": [[-1.0, 1.0], [-1.0, 1.0]], "scales": [1.0],
      "coeffs": [[[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]]}),
], ids=["q_allow-and-bbox", "timeout_seconds", "domain", "model"])
def test_json_integers_read_as_the_floats_they_equal(tmp_path, capsys, command, name, integral,
                                                    floating):
    outputs = []
    for spelling, text in (("integral", integral), ("floating", floating)):
        directory = tmp_path / spelling
        directory.mkdir()
        files = {"config": directory / "config.json", "domain": Path(_write_domain(directory)),
                 "model": directory / "model.json", "tau": directory / "tau.json"}
        files["config"].write_text(json.dumps(BOWL_CONFIG))
        write_json(files["model"], UNIT_MODEL)
        files["tau"].write_text(RESULT)
        files[name].write_text(json.dumps(text))
        out = directory / "out"
        argv = {"size-domain": ["--out", out],
                "sample": ["--domain", files["domain"], "--n", "10", "--out", out],
                "check": ["--model", files["model"], "--tau", files["tau"],
                          "--reference", files["tau"]]}[command]
        code, stdout, stderr = run(capsys, command, "--config", *map(str, [files["config"], *argv]))
        assert (code, stderr) == (0, "")
        outputs.append((stdout.replace(str(directory), "DIR"),
                        out.read_bytes() if out.exists() else None))
    assert outputs[0] == outputs[1]


def test_manifold_scan_of_three_parameters_exits_2_before_allocating(tmp_path, capsys):
    config = {**BOWL_CONFIG, "nominal": [0.0, 0.0, 0.0], "fit": {"target_rank": 3, "degree": 2},
              "evaluator": {**BOWL_CONFIG["evaluator"], "parameters": {"a": [1.0, 4.0, 2.0]}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({
        "tau_min": [0.0, 0.0, 0.0],
        "tau_max": [1.0, 0.5, 0.5 ** 0.5],
        "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5], [-0.5 ** 0.5, 0.5 ** 0.5]],
    }))
    samples, model = tmp_path / "samples.csv", tmp_path / "model.json"
    run(capsys, "sample", "--config", str(path), "--domain", str(domain), "--n", "200",
        "--out", str(samples))
    code, _, _ = run(capsys, "fit", "--config", str(path), "--domain", str(domain),
                     "--samples", str(samples), "--out", str(model))
    assert code == 0
    result, scan = tmp_path / "result.json", tmp_path / "scan.csv"
    code, _, stderr = run(capsys, "allocate", "--config", str(path), "--domain", str(domain),
                          "--model", str(model), "--method", "cg", "--out", str(result),
                          "--emit-manifold-scan", str(scan))
    assert code == 2
    assert "--emit-manifold-scan requires a 2-parameter problem" in stderr
    assert not result.exists()
    assert not scan.exists()


@pytest.mark.parametrize("spec, message", [
    ({**_external_bowl(5), "timeout_second": 5}, "timeout_second"),
    ({"variant": "max", "children": [1]}, "must be a JSON object"),
    ({"variant": "max", "children": 5},
     "children must be a non-empty list of evaluator specs, got 5"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": [1.0, 4.0]},
     "'parameters' of quadratic-bowl must be a JSON object, got [1.0, 4.0]"),
    ({**_external_bowl(5), "dim": "two"}, "dim must be an integer >= 1, got 'two'"),
    ({"variant": "builtin", "name": "nope"}, "unknown builtin evaluator 'nope'; known: ["),
    ({"variant": "tabulated", "path": "no-such-grid.csv"},
     "No such file or directory: 'no-such-grid.csv'"),
    ({**_external_bowl(5), "dim": 2.7}, "dim must be an integer >= 1, got 2.7"),
    ({**_external_bowl(5), "dim": True}, "dim must be an integer >= 1, got True"),
    ({**_external_bowl(5), "dim": 0}, "dim must be an integer >= 1, got 0"),
    (_external_bowl("5"), "timeout_seconds must hold only numbers, got '5'"),
    (_external_bowl(True), "timeout_seconds must hold only numbers, got True"),
    (_external_bowl(5) | {"timeout_seconds": [5]}, "timeout_seconds must be a finite number > 0"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": {"a": [float("nan"), 4.0]}},
     "a must hold only finite numbers, got [nan, 4.0]"),
    ({"variant": "builtin", "name": "quadratic-bowl",
      "parameters": {"a": [1.0, 4.0], "center": [0.0, float("inf")]}},
     "center must hold only finite numbers, got [0.0, inf]"),
    ({"variant": "builtin", "name": "quadratic-bowl",
      "parameters": {"a": [1.0, 4.0], "center": [0.0]}}, "center must match a in length"),
    ({"variant": "builtin", "name": "linear", "parameters": {"a": [float("inf"), 1.0]}},
     "a must hold only finite numbers, got [inf, 1.0]"),
    ({"variant": "builtin", "name": "linear", "parameters": {"a": [[1.0]]}},
     "linear requires a 1-d vector a of coefficients"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": {"a": ["1", True]}},
     "a must hold only numbers, got ['1', True]"),
    ({"variant": "builtin", "name": "abs-sum",
      "parameters": {"a": [1.0, 4.0], "center": [0.0, False]}},
     "center must hold only numbers, got [0.0, False]"),
    ({**_external_bowl(5), "command": [1, 2]},
     "command must be a non-empty list of strings, got [1, 2]"),
    ({**_external_bowl(5), "command": []}, "command must be a non-empty list of strings, got []"),
    ({**_external_bowl(5), "command": [["a"]]},
     "command must be a non-empty list of strings, got [['a']]"),
    ({**_external_bowl(5), "command": ""}, "command must be a non-empty list of strings, got ''"),
    ({**_external_bowl(5), "command": {"a": 1}},
     "command must be a non-empty list of strings, got {'a': 1}"),
    ({"variant": "tabulated", "path": 5}, "path must be a string, got 5"),
    ({"variant": "builtin", "parameters": {"a": [1.0, 4.0]}},
     "builtin evaluator lacks key(s) name"),
    ({k: v for k, v in _external_bowl(5).items() if k != "dim"},
     "external evaluator lacks key(s) dim"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": {"a": [1.0, 4.0], "b": 1}},
     "'parameters' of quadratic-bowl does not read key(s) b; it reads a, center"),
    ({"variant": "builtin", "name": "linear", "parameters": {"a": [1.0, 4.0], "center": [0, 0]}},
     "'parameters' of linear does not read key(s) center; it reads a"),
    ({"variant": "builtin", "name": "abs-sum", "parameters": {}},
     "'parameters' of abs-sum lacks key(s) a"),
    ({"variant": "builtin", "name": "exp-cos", "parameters": {"a": [1.0]}},
     "'parameters' of exp-cos does not read key(s) a; it reads no key"),
    ({"variant": "max", "children": {"variant": "builtin"}},
     "children must be a non-empty list of evaluator specs, got {'variant': 'builtin'}"),
    ({"variant": "max", "children": []}, "max-composite requires at least one child"),
    ({"name": "exp-cos"}, "an evaluator spec lacks key(s) variant"),
], ids=["key-variant-does-not-read", "max-child-not-object", "max-children-not-list",
        "builtin-parameters-not-object", "external-dim-string", "builtin-unknown-name",
        "tabulated-missing-grid", "external-dim-fraction",
        "external-dim-bool", "external-dim-zero", "external-timeout-string",
        "external-timeout-bool", "external-timeout-list", "bowl-a-nan", "bowl-center-inf",
        "bowl-center-short", "linear-a-inf", "linear-a-nested",
        "bowl-a-string-and-bool", "abs-sum-center-bool",
        "external-command-numbers", "external-command-empty", "external-command-nested",
        "external-command-string", "external-command-object", "tabulated-path-number",
        "builtin-no-name", "external-no-dim", "bowl-parameter-b", "linear-center",
        "abs-sum-no-a", "exp-cos-parameter", "max-children-object", "max-children-empty",
        "no-variant"])
def test_malformed_evaluator_spec_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "evaluator": spec}))
    out = tmp_path / "domain.json"
    code, stdout, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: bad evaluator spec in config {path}: ")
    assert message in stderr and '"' not in stderr
    assert not out.exists()


def test_tabulated_grid_left_by_size_domain_exits_3(tmp_path, capsys):
    # Q = mu_1^2 + mu_2^2 tabulated on [-0.5, 0.5]^2 never reaches q_allow = 1
    # there, so the axis search steps outside the grid.
    grid = [-0.5, -0.25, 0.0, 0.25, 0.5]
    table = tmp_path / "table.csv"
    table.write_text("mu_1,mu_2,q\n" + "".join(
        f"{x!r},{y!r},{x * x + y * y!r}\n" for x in grid for y in grid))
    config = {**BOWL_CONFIG, "evaluator": {"variant": "tabulated", "path": str(table)}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 3
    assert "outside grid hull" in stderr


@pytest.mark.parametrize("n", ["2", "3"])
def test_sample_from_a_child_that_duplicates_its_answers_exits_3(tmp_path, capsys, n):
    # With two points the batch reads the copy of the first answer as the
    # second and succeeds; only close() sees the copy of the second one.
    evaluator = {"variant": "external", "dim": 2,
                 "command": [sys.executable, "tests/helpers/misbehaving_server.py", "slow-twice"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "evaluator": evaluator}))
    out = tmp_path / "samples.csv"
    code, _, stderr = run(capsys, "sample", "--config", str(path),
                          "--domain", _write_domain(tmp_path), "--n", n, "--out", str(out))
    assert code == 3
    assert "unsolicited output" in stderr
    assert not out.exists()


@pytest.mark.parametrize("mode, k, n, named", [
    ("exit-after", REQUEST_BLOCK_ROWS + 3, 2 * REQUEST_BLOCK_ROWS, "exited on request"),
    ("garbage-at", REQUEST_BLOCK_ROWS + 3, 2 * REQUEST_BLOCK_ROWS, "non-numeric output 'oops'"),
    # An odd count ends the batch on the first copy of an answer, so the
    # copy is left over in the batch, not only at close().
    ("twice", 0, 5, "unsolicited output"),
])
def test_sample_from_a_misbehaving_child_names_the_row_and_writes_nothing(
        tmp_path, capsys, mode, k, n, named):
    evaluator = {"variant": "external", "dim": 2, "timeout_seconds": 10.0,
                 "command": [sys.executable, "tests/helpers/misbehaving_server.py", mode, str(k)]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "evaluator": evaluator}))
    domain = _write_domain(tmp_path)
    out = tmp_path / "samples.csv"
    code, stdout, stderr = run(capsys, "sample", "--config", str(path), "--domain", domain,
                               "--n", str(n), "--out", str(out))
    assert (code, stdout) == (3, "")
    row = k if mode != "twice" else n - 1  # a copy follows the answer to the last row
    points = draw_samples(QuadraticBowl(a=[1.0, 1.0]), (Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
                          n, seed=BOWL_CONFIG["seed"]).points
    assert stderr.startswith(f"error: evaluation failed at mu={points[row].tolist()}: ")
    assert named in stderr
    assert not out.exists() and not list(tmp_path.glob("*.tmp"))


def test_sample_from_a_child_that_answers_requests_it_was_not_sent_exits_3(tmp_path, capsys):
    # The child reads one request, closes its stdin and writes n answers.  The
    # first answer beyond the requests written answers no point, so the error
    # names none.
    n = 5000
    evaluator = {"variant": "external", "dim": 2, "timeout_seconds": 10.0,
                 "command": [sys.executable, "tests/helpers/misbehaving_server.py",
                             "early-close", str(n)]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "evaluator": evaluator}))
    out = tmp_path / "samples.csv"
    code, stdout, stderr = run(capsys, "sample", "--config", str(path),
                               "--domain", _write_domain(tmp_path), "--n", str(n),
                               "--out", str(out))
    assert (code, stdout) == (3, "")
    assert stderr.startswith("error: evaluation failed: external evaluator wrote unsolicited "
                             "output ")
    assert not out.exists() and not list(tmp_path.glob("*.tmp"))


def test_holdout_with_zero_performance_exits_3(tmp_path, capsys, config_path):
    domain = _write_domain(tmp_path)
    samples, holdout = tmp_path / "samples.csv", tmp_path / "holdout.csv"
    run(capsys, "sample", "--config", config_path, "--domain", domain, "--n", "60",
        "--out", str(samples))
    holdout.write_text("mu_1,mu_2,q\n0.5,0.0,0.25\n0.0,0.0,0.0\n")
    code, _, stderr = run(capsys, "fit", "--config", config_path, "--domain", domain,
                          "--samples", str(samples), "--holdout", str(holdout),
                          "--out", str(tmp_path / "model.json"))
    assert code == 3
    assert "Q = 0" in stderr
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("argv", [
    ["--jobs", "2", "sample", "--config", "c.json", "--n", "1", "--out", "s.csv"],
    ["allocate", "--config", "c.json", "--domain", "d.json", "--model", "m.json",
     "--seed", "1", "--out", "r.json"],
    # --domain is required: the config no longer carries a sampling_domain.
    ["sample", "--config", "c.json", "--n", "1", "--out", "s.csv"],
    ["fit", "--config", "c.json", "--samples", "s.csv", "--out", "m.json"],
    # The fit draws nothing, so it takes no seed.
    ["fit", "--config", "c.json", "--domain", "d.json", "--samples", "s.csv", "--seed", "1",
     "--out", "m.json"],
])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_report_does_not_summarize_its_own_summary(tmp_path, capsys):
    result = {"format_version": 1, "method": "GA", "tau": [0.5, 0.2], "f_opt": 0.7}
    (tmp_path / "result_ga.json").write_text(json.dumps(result))
    summary = tmp_path / "summary.json"
    code, _, _ = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0
    first = summary.read_bytes()
    code, _, _ = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0
    assert summary.read_bytes() == first
    assert json.loads(first) == {"format_version": 1, "artifacts": {"result_ga.json": result}}


def test_report_on_missing_directory_exits_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "report", "--dir", str(tmp_path / "missing"))
    assert code == 2
    assert "not a directory" in stderr


@pytest.mark.parametrize("error, code", [
    (FitError, 3), (EvaluatorError, 3), (DomainError, 3), (MetricError, 3), (RetractionError, 3),
    (InitializationError, 3), (DegenerateNormalError, 3), (np.linalg.LinAlgError, 3),
    (ArithmeticError, 3), (ConstraintError, 1),
    (cli.UsageError, 2), (OSError, 2), (ValueError, 2), (KeyError, 2),
], ids=lambda value: getattr(value, "__name__", None))
def test_exit_code_of_each_error_class(tmp_path, capsys, monkeypatch, error, code):
    # The package's numeric failures derive from NumericError, a RuntimeError;
    # ConstraintError and numpy's LinAlgError are ValueErrors that exit 1 and 3.
    def fail(args):
        raise error("injected failure")

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert run(capsys, "report", "--dir", str(tmp_path)) == (
        code, "", f"error: {error('injected failure')}\n")
