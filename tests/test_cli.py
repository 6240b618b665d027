import csv
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from tolalloc import Interval, SeparatedModel, SurrogateWorstCase
from tolalloc.cli import main
from tolalloc.surrogate import write_json

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
    # A scan row holds G at its tau.
    gfun = SurrogateWorstCase(SeparatedModel.from_dict(json.loads(model.read_text())),
                              BOWL_CONFIG["nominal"])
    for row in tables["scan"][1::2525]:
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
    SeparatedModel.from_dict(json.loads(model.read_text())).save(saved)
    assert saved.read_bytes() == model.read_bytes()
    assert model.read_text() == json.dumps(
        json.loads(model.read_text()), indent=2, sort_keys=True) + "\n"


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
    # Rank 1 < d starts from a random term; rank 2 = d from the exact additive bowl.
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
    import tolalloc

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
    src = os.path.dirname(os.path.dirname(tolalloc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == [[name, []] for name in ["import", "size-domain", "sample", "fit",
                                              "allocate", "check", "size-domain", "sample"]]


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
    code, _, _ = run(capsys, "sample", "--config", config_path, "--domain", domain,
                     "--n", "20", "--seed", "99", "--out", str(override))
    assert code == 0
    assert base.read_bytes() != override.read_bytes()


# ---------------------------------------------------------------------------
# Failure modes and exit codes
# ---------------------------------------------------------------------------

def test_bad_config_version_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format_version": 99}))
    code, _, stderr = run(capsys, "size-domain", "--config", str(bad),
                          "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert "format_version" in stderr


def test_missing_sample_file_exits_2_without_writing(tmp_path, capsys, config_path):
    out = tmp_path / "model.json"
    code, _, stderr = run(capsys, "fit", "--config", config_path,
                          "--domain", _write_domain(tmp_path),
                          "--samples", str(tmp_path / "nope.csv"), "--out", str(out))
    assert code == 2
    assert "missing sample file" in stderr
    assert not out.exists()


@pytest.mark.parametrize("body", ["", "1.0,0.0,1.0\r\n\r\n"], ids=["header-only", "blank-line"])
def test_malformed_sample_file_exits_2_without_writing(tmp_path, capsys, config_path, body):
    table = tmp_path / "samples.csv"
    table.write_text("mu_1,mu_2,q\r\n" + body, newline="")
    out = tmp_path / "model.json"
    code, _, stderr = run(capsys, "fit", "--config", config_path,
                          "--domain", _write_domain(tmp_path),
                          "--samples", str(table), "--out", str(out))
    assert code == 2
    assert f"malformed sample file {table}" in stderr
    assert not out.exists()
    tabulated = tmp_path / "tabulated.json"
    tabulated.write_text(json.dumps(
        {**BOWL_CONFIG, "evaluator": {"variant": "tabulated", "path": str(table)}}))
    code, _, stderr = run(capsys, "size-domain", "--config", str(tabulated),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 2
    assert f"malformed sample file {table}" in stderr
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
    config = dict(BOWL_CONFIG)
    config["nominal"] = [float("nan"), 0.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "d.json"))
    assert code == 3
    assert "non-finite performance" in stderr


# The ALS sweep schedule is constants in tolalloc.surrogate, not fit settings,
# and the ALS seed is the top-level seed, which --seed overrides.
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
                 ["fit", "--samples", str(samples), "--seed", "1", "--out", str(model)]):
        code, _, stderr = run(capsys, argv[0], "--config", str(path), "--domain", domain,
                              *argv[1:])
        assert code == 2
        assert f"malformed '{section}' section" in stderr
        assert key in stderr
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


@pytest.mark.parametrize("text", [
    "[1]",
    json.dumps({**BOWL_CONFIG, "bbox": 10.0}),
    pytest.param(json.dumps({**BOWL_CONFIG, "check_thresholds": [["tol_err_inf", 1e-3]]}),
                 id="check_thresholds"),
])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, _, stderr = run(capsys, "size-domain", "--config", str(path),
                          "--out", str(tmp_path / "domain.json"))
    assert code == 2
    assert "must be JSON objects" in stderr


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


@pytest.mark.parametrize("nominal", [None, 0.5, [], [[0.0, 0.0]], ["0", "0"]],
                         ids=["null", "scalar", "empty", "nested", "strings"])
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
], ids=["string", "wrong-length", "caps-negative", "caps-zero", "tau_min-string",
        "tau_min-wrong-length", "tau_min-negative", "tau_min-bool"])
def test_malformed_bbox_caps_exits_2(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "bbox": {"caps": 10.0, field: value}}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert str(path) in stderr and f"'{field}'" in stderr
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
    assert "sampling domain has 1 interval(s) for a 2-parameter evaluator" in stderr
    assert not out.exists()


RESULT = json.dumps({"tau": [0.1, 0.1]})
MODEL_FIELDS = "coeffs, degree, dim, intervals, rank, scales"


@pytest.mark.parametrize("flag, text, named", [
    ("--tau", "[]", "must hold a JSON object"),
    ("--reference", "[]", "must hold a JSON object"),
    ("--tau", "{}", "lacks a 'tau' vector of finite numbers"),
    ("--reference", json.dumps({"tau": "wide"}), "lacks a 'tau' vector of finite numbers"),
    ("--tau", json.dumps({"tau": [None, None]}), "lacks a 'tau' vector of finite numbers"),
    ("--model", json.dumps({"format_version": 1}), f"lacks field(s) {MODEL_FIELDS}"),
], ids=["tau-list", "reference-list", "tau-empty", "reference-tau-string", "tau-nulls",
        "model-no-fields"])
def test_check_file_that_is_malformed_exits_2(tmp_path, capsys, config_path, flag, text, named):
    files = {"--tau": tmp_path / "tau.json", "--reference": tmp_path / "reference.json",
             "--model": tmp_path / "model.json"}
    for path in files.values():
        path.write_text(RESULT)
    files[flag].write_text(text)
    argv = [str(arg) for pair in files.items() for arg in pair]
    code, _, stderr = run(capsys, "check", "--config", config_path, *argv)
    assert code == 2
    assert f"file {files[flag]} {named}" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("field, value, reason", [
    ("format_version", 2, "unsupported model format_version: 2"),
    ("intervals", 5, "'int' object is not iterable"),
    ("scales", "x", "could not convert string to float: 'x'"),
], ids=["version", "intervals", "scales"])
def test_model_file_with_a_bad_value_exits_2(tmp_path, capsys, config_path, field, value,
                                             reason):
    data = random_model(np.random.default_rng(17)).to_dict()
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
    ("check", "config", {**BOWL_CONFIG, "measure": {"kind": "mu-norm", "weights": THREE}},
     "measure.weights"),
    ("check", "tau", {"tau": THREE}, "tau"),
    ("check", "reference", {"tau": THREE}, "tau"),
], ids=["allocate-nominal", "allocate-domain", "allocate-weights", "allocate-cost-b",
        "check-weights", "check-tau", "check-reference"])
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
    assert f"'{field}' in {files[name]} must hold 2 numbers" in stderr
    assert not out.exists()


# A measure key that the kind does not read, or lacks, and a kind that is not
# a known name exit 2 naming the config file and the key; a one-norm's
# 'weights' is not length-checked.
@pytest.mark.parametrize("command", ["allocate", "check"])
@pytest.mark.parametrize("measure, named", [
    ({"kind": "mu-norm", "weight": [1.0, 1.0]}, "does not read key(s) weight"),
    ({"kind": "one-norm", "weights": THREE}, "does not read key(s) weights"),
    ({"kind": "reciprocal-power-cost", "a": [0.0, 0.0], "b": [1.0, 1.0]}, "lacks key(s) k"),
    ({"kind": ["one-norm"]}, "unknown measure kind ['one-norm']"),
], ids=["mu-norm-weight", "one-norm-weights", "cost-without-k", "kind-list"])
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


@pytest.mark.parametrize("fit, named", [
    ({"target_rank": 2, "degree": 2.5}, "degree must be an integer"),
    ({"target_rank": 1.5, "degree": 2}, "target_rank must be an integer"),
    ({"target_rank": True, "degree": 2}, "target_rank must be an integer"),
    ({"target_rank": 2, "degree": 2, "rel_residual_tol": float("nan")},
     "rel_residual_tol must be a finite number"),
    ({"target_rank": 2, "degree": 2, "rel_residual_tol": "1e-8"},
     "rel_residual_tol must be a finite number"),
], ids=["degree-float", "rank-float", "rank-bool", "tol-nan", "tol-string"])
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
    assert named in stderr
    assert not model.exists()


def _external_bowl(timeout) -> dict:
    return {"variant": "external", "dim": 2, "timeout_seconds": timeout,
            "command": [sys.executable, "-m", "tolalloc.serve", "quadratic-bowl",
                        "--parameters", json.dumps({"a": [1.0, 4.0]})]}


# Each is rejected before any work: no evaluator child is started.
@pytest.mark.parametrize("field, value, named", [
    ("check_thresholds", {"tol_err_inf": "tight"}, "'tol_err_inf' must be a finite number"),
    ("check_thresholds", {"tol_err_inf": True}, "'tol_err_inf' must be a finite number"),
    ("check_thresholds", {"tol_err_inf": None}, "'tol_err_inf' must be a finite number"),
    ("check_thresholds", {"tol_err_inf": float("nan")}, "'tol_err_inf' must be a finite number"),
    ("evaluator", _external_bowl(-1.0), "bad evaluator spec: timeout_seconds"),
    ("evaluator", _external_bowl(0.0), "bad evaluator spec: timeout_seconds"),
    ("evaluator", _external_bowl(float("nan")), "bad evaluator spec: timeout_seconds"),
    ("evaluator", _external_bowl(float("inf")), "bad evaluator spec: timeout_seconds"),
], ids=["threshold-string", "threshold-bool", "threshold-null", "threshold-nan",
        "timeout-negative", "timeout-zero", "timeout-nan", "timeout-inf"])
def test_bad_config_value_exits_2(tmp_path, capsys, field, value, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, field: value}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert named in stderr
    assert not out.exists()


# Each exits 2, naming the file and the field, and writes nothing.
@pytest.mark.parametrize("command, name, text, field", [
    ("allocate", "config", {**BOWL_CONFIG, "q_allow": [1, 2]}, "q_allow"),
    ("allocate", "config", {**BOWL_CONFIG, "q_allow": None}, "q_allow"),
    ("allocate", "config", {**BOWL_CONFIG, "measure": None}, "measure"),
    ("sample", "config", {**BOWL_CONFIG, "seed": [1]}, "seed"),
    ("sample", "config", {**BOWL_CONFIG, "seed": 1.5}, "seed"),
    ("sample", "domain", {"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                          "sampling_domain": 5}, "sampling_domain"),
    ("sample", "domain", {"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                          "sampling_domain": None}, "sampling_domain"),
    ("sample", "domain", {"tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                          "sampling_domain": [5, 6]}, "sampling_domain"),
    ("allocate", "domain", {"tau_min": [0.0, 0.0], "tau_max": {"a": 1},
                            "sampling_domain": [[-1.0, 1.0], [-0.5, 0.5]]}, "tau_max"),
], ids=["q_allow-list", "q_allow-null", "measure-null", "seed-list", "seed-float",
        "sampling_domain-number", "sampling_domain-null", "sampling_domain-flat", "tau_max-object"])
def test_malformed_field_exits_2(tmp_path, capsys, command, name, text, field):
    files = {"config": tmp_path / "config.json", "model": tmp_path / "model.json",
             "domain": _write_domain(tmp_path)}
    files["config"].write_text(json.dumps(BOWL_CONFIG))
    write_json(files["model"], SeparatedModel(
        dim=2, rank=1, degree=2, intervals=(Interval(-1.0, 1.0), Interval(-0.5, 0.5)),
        scales=np.ones(1), coeffs=np.ones((1, 2, 3))).to_dict())
    files[name] = tmp_path / f"bad_{name}.json"
    files[name].write_text(json.dumps(text))
    out = tmp_path / "out"
    argv = {"sample": ["--domain", files["domain"], "--n", "10"],
            "allocate": ["--domain", files["domain"], "--model", files["model"]]}[command]
    code, _, stderr = run(capsys, command, "--config", *map(str, [files["config"], *argv]),
                          "--out", str(out))
    assert code == 2
    assert str(files[name]) in stderr and f"'{field}'" in stderr
    assert not out.exists()


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
    ({"variant": "max", "children": 5}, "not iterable"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": [1.0, 4.0]}, "mapping"),
    ({**_external_bowl(5), "dim": "two"}, "dim must be an integer >= 1, got 'two'"),
    ({**_external_bowl(5), "dim": 2.7}, "dim must be an integer >= 1, got 2.7"),
    ({**_external_bowl(5), "dim": True}, "dim must be an integer >= 1, got True"),
    ({**_external_bowl(5), "dim": 0}, "dim must be an integer >= 1, got 0"),
    (_external_bowl("5"), "timeout_seconds must be a finite number > 0, got '5'"),
    (_external_bowl(True), "timeout_seconds must be a finite number > 0, got True"),
], ids=["key-variant-does-not-read", "max-child-not-object", "max-children-not-list",
        "builtin-parameters-not-object", "external-dim-string", "external-dim-fraction",
        "external-dim-bool", "external-dim-zero", "external-timeout-string",
        "external-timeout-bool"])
def test_malformed_evaluator_spec_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BOWL_CONFIG, "evaluator": spec}))
    out = tmp_path / "domain.json"
    code, _, stderr = run(capsys, "size-domain", "--config", str(path), "--out", str(out))
    assert code == 2
    assert "bad evaluator spec" in stderr and message in stderr
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


@pytest.mark.parametrize("argv", [
    ["--jobs", "2", "sample", "--config", "c.json", "--n", "1", "--out", "s.csv"],
    ["allocate", "--config", "c.json", "--domain", "d.json", "--model", "m.json",
     "--seed", "1", "--out", "r.json"],
    # --domain is required: the config no longer carries a sampling_domain.
    ["sample", "--config", "c.json", "--n", "1", "--out", "s.csv"],
    ["fit", "--config", "c.json", "--samples", "s.csv", "--out", "m.json"],
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
