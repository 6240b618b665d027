"""Characterization test of the command line: the bits of every step.

``cli.main`` runs in process, in a scratch directory with relative paths, on
a few small fixed problems: the d = 2 and d = 6 bowls through
``size-domain -> sample -> fit -> allocate -> check``, a rank-2 fit that is
not additive (so G comes from the multistart), ``sample`` from an external
``tolalloc.serve`` child, ``allocate`` under each measure kind, one manifold
scan, ``report``, and a few inputs that each exit non-zero.  Each step's
record holds its exit code, a CRC-32 of its stdout, of its stderr and of the
warnings it raised, and a CRC-32 of every file it created or changed.  The
test compares the records with ``tests/golden/pipeline.json``.

When bits move on purpose, and only then, regenerate that file with

    PYTHONPATH=src python tests/test_golden.py

and name in CHANGES.md every record that moved, and why.  The file holds
the Python and numpy versions it was made with: under other versions a
failure may come from the versions alone, and its message names both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden" / "pipeline.json"


def _bowl(a, rank: int, measure=None, **fields) -> dict:
    return {"format_version": 1, "seed": 7, "q_allow": 1.0, "nominal": [0.0] * len(a),
            "evaluator": {"variant": "builtin", "name": "quadratic-bowl",
                          "parameters": {"a": list(a)}},
            "fit": {"target_rank": rank, "degree": 2},
            "measure": measure or {"kind": "one-norm"}, "bbox": {"caps": 10.0}, **fields}


A6 = [0.5, 1.4, 2.3, 3.2, 4.1, 5.0]
# The max of two bowls is not separable, so its rank-2 fit is not additive.
MAX2 = {**_bowl([1.0, 4.0], 2), "seed": 11, "evaluator": {"variant": "max", "children": [
    {"variant": "builtin", "name": "quadratic-bowl", "parameters": {"a": [1.0, 4.0]}},
    {"variant": "builtin", "name": "quadratic-bowl",
     "parameters": {"a": [3.0, 1.0], "center": [0.1, -0.1]}}]}}
INPUTS = {
    "d2.json": _bowl([1.0, 4.0], 2, check_thresholds={"tol_err_inf": 1e-12}),
    "d2-mu.json": _bowl([1.0, 4.0], 2, {"kind": "mu-norm"}),
    "d2-mu-weights.json": _bowl([1.0, 4.0], 2, {"kind": "mu-norm", "weights": [0.3, 1.0]}),
    "d2-minus-one.json": _bowl([1.0, 4.0], 2, {"kind": "minus-one-norm"}),
    "d2-reciprocal.json": _bowl([1.0, 4.0], 2, {"kind": "reciprocal-power-cost",
                                                "a": [0.1, 0.1], "b": [1.0, 2.0],
                                                "k": [1.0, 1.5]}),
    "d6.json": _bowl(A6, 6),
    "max2.json": MAX2,
    "external.json": {**_bowl([1.0, 4.0], 2), "evaluator": {
        "variant": "external", "dim": 2,
        "command": [sys.executable, "-m", "tolalloc.serve", "quadratic-bowl",
                    "--parameters", '{"a": [1.0, 4.0]}']}},
    "bad/model.json": {"format_version": 1, "dim": 2, "rank": 1, "degree": 2,
                       "intervals": [[-1.0, 1.0], [-1.0, 1.0]], "scales": [1.0]},
    "bad/tau.json": {"format_version": 1, "tau": [0.5, -0.1]},
    "bad/domain.json": {"format_version": 1, "tau_min": [0.0, 0.0], "tau_max": [1.0, 0.5],
                        "sampling_domain": [[-1.0, 1.0], [0.5, -0.5]]},
}
BAD_SAMPLES = "mu_1,mu_2,q\n0.1,0.2,0.17\n\n0.3,0.1,0.13\n"


def _allocate(config: str, problem: str, out: str, *flags: str) -> list[str]:
    return ["allocate", "--config", config, "--domain", f"{problem}/domain.json",
            "--model", f"{problem}/model.json", "--out", out, *flags]


def _check(config: str, problem: str, tau: str, reference: str) -> list[str]:
    return ["check", "--config", config, "--model", f"{problem}/model.json",
            "--tau", tau, "--reference", reference]


def _pipeline(problem: str, config: str, n: int) -> dict[str, list[str]]:
    return {
        f"{problem} size-domain": ["size-domain", "--config", config,
                                   "--out", f"{problem}/domain.json"],
        f"{problem} sample": ["sample", "--config", config, "--domain", f"{problem}/domain.json",
                              "--n", str(n), "--out", f"{problem}/samples.csv"],
        f"{problem} fit": ["fit", "--config", config, "--domain", f"{problem}/domain.json",
                           "--samples", f"{problem}/samples.csv", "--out", f"{problem}/model.json"],
        **{f"{problem} allocate {method}": _allocate(
            config, problem, f"results/{problem}-{method}.json", "--method", method,
            "--trace", f"{problem}/trace-{method}.csv") for method in ("ga", "cg")},
        f"{problem} check": _check(config, problem, f"results/{problem}-cg.json",
                                   f"results/{problem}-ga.json"),
    }


STEPS = {
    **_pipeline("d2", "d2.json", 300),
    "d2 sample holdout": ["sample", "--config", "d2.json", "--domain", "d2/domain.json",
                          "--n", "60", "--seed", "3", "--out", "d2/holdout.csv"],
    "d2 fit holdout": ["fit", "--config", "d2.json", "--domain", "d2/domain.json",
                       "--samples", "d2/samples.csv", "--holdout", "d2/holdout.csv",
                       "--out", "d2/model-holdout.json"],
    **{f"d2 allocate {measure}": _allocate(f"d2-{measure}.json", "d2",
                                           f"results/d2-{measure}.json", "--method", "cg")
       for measure in ("mu", "mu-weights", "minus-one", "reciprocal")},
    "d2 manifold scan": _allocate("d2.json", "d2", "d2/scan-result.json",
                                  "--emit-manifold-scan", "d2/scan.csv"),
    **_pipeline("d6", "d6.json", 240),
    **_pipeline("max2", "max2.json", 200),
    "external sample": ["sample", "--config", "external.json", "--domain", "d2/domain.json",
                        "--n", "200", "--out", "external/samples.csv"],
    "report": ["report", "--dir", "results"],
    "d6 manifold scan": _allocate("d6.json", "d6", "d6/scan-result.json",
                                  "--emit-manifold-scan", "d6/scan.csv"),
    "bad model": _check("d2.json", "bad", "results/d2-ga.json", "results/d2-ga.json"),
    "bad tau": _check("d2.json", "d2", "bad/tau.json", "results/d2-ga.json"),
    "bad domain": ["fit", "--config", "d2.json", "--domain", "bad/domain.json",
                   "--samples", "d2/samples.csv", "--out", "bad/out.json"],
    "bad samples": ["fit", "--config", "d2.json", "--domain", "d2/domain.json",
                    "--samples", "bad/samples.csv", "--out", "bad/out.json"],
}


def _crc(data) -> str:
    return f"{zlib.crc32(data.encode() if isinstance(data, str) else data):08x}"


def _snapshot(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): _crc(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_steps(root: Path) -> dict:
    """Write the inputs under ``root`` (the working directory), run every step
    and return its record, keyed by step."""
    from tolalloc import cli

    for name, data in INPUTS.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    (root / "bad" / "samples.csv").write_text(BAD_SAMPLES)
    before = _snapshot(root)
    records = {}
    for name, argv in STEPS.items():
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = cli.main(argv)
        after = _snapshot(root)
        records[name] = {
            "exit": code, "stdout": _crc(out.getvalue()), "stderr": _crc(err.getvalue()),
            "warnings": _crc("\n".join(str(w.message) for w in caught)),
            "files": {path: crc for path, crc in after.items() if before.get(path) != crc},
        }
        before = after
    return records


def _child_path() -> str:
    """PYTHONPATH for the external child: the imported package's sources first."""
    import tolalloc

    src = str(Path(tolalloc.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_every_step_writes_and_prints_the_golden_bits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", _child_path())
    golden = json.loads(GOLDEN.read_text())
    records = run_steps(tmp_path)
    moved = {name: (golden["steps"].get(name), record) for name, record in records.items()
             if golden["steps"].get(name) != record}
    assert records.keys() == golden["steps"].keys() and not moved, (
        f"steps moved from {GOLDEN.name} (made with {golden['versions']}, "
        f"now {_versions()}): {moved}")


if __name__ == "__main__":
    os.environ["PYTHONPATH"] = _child_path()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        records = run_steps(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"versions": _versions(), "steps": records},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
