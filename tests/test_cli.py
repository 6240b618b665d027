import json

import numpy as np
import pytest

from tolalloc.cli import main

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


def run_pipeline(tmp_path, capsys, config_path, method="ga"):
    domain = tmp_path / "domain.json"
    samples = tmp_path / "samples.csv"
    model = tmp_path / "model.json"
    result = tmp_path / f"result_{method}.json"

    code, _, _ = run(capsys, "size-domain", "--config", config_path, "--out", str(domain))
    assert code == 0
    code, _, _ = run(capsys, "sample", "--config", config_path, "--domain", str(domain),
                     "--n", "300", "--out", str(samples))
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
    assert not data["stalled"]


def test_allocate_cg_and_trace_and_scan(tmp_path, capsys, config_path):
    domain, _, model, _ = run_pipeline(tmp_path, capsys, config_path)
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


@pytest.mark.parametrize("section", ["fit", "boxmax", "traversal"])
def test_unknown_key_in_config_section_exits_2(tmp_path, capsys, section):
    config = dict(BOWL_CONFIG)
    config[section] = {**config.get(section, {}), "bogus": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    domain = _write_domain(tmp_path)
    samples = tmp_path / "s.csv"
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "sample", "--config", str(path), "--domain", domain,
                     "--n", "200", "--out", str(samples))
    assert code == 0
    fit = ("fit", "--config", str(path), "--domain", domain, "--samples", str(samples),
           "--out", str(model))
    if section == "fit":
        code, _, stderr = run(capsys, *fit)
    else:
        assert run(capsys, *fit)[0] == 0
        code, _, stderr = run(capsys, "allocate", "--config", str(path), "--domain", domain,
                              "--model", str(model), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert f"malformed '{section}' section" in stderr
    assert "bogus" in stderr


@pytest.mark.parametrize("argv", [
    ["--jobs", "2", "sample", "--config", "c.json", "--n", "1", "--out", "s.csv"],
    ["allocate", "--config", "c.json", "--domain", "d.json", "--model", "m.json",
     "--seed", "1", "--out", "r.json"],
])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_report_on_missing_directory_exits_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "report", "--dir", str(tmp_path / "missing"))
    assert code == 2
    assert "not a directory" in stderr
