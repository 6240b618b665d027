"""The benchmark's oracles agree with the package on random inputs."""

import subprocess
import sys

import numpy as np
import pytest

import oracle
import workloads
from tolalloc.surrogate import Interval, SeparatedModel


@pytest.mark.parametrize("d, rank, degree", [(2, 2, 2), (4, 3, 3), (6, 2, 4)])
def test_model_eval_matches_separated_model(tmp_path, d, rank, degree):
    rng = np.random.default_rng(d * 100 + degree)
    model = SeparatedModel(
        dim=d, rank=rank, degree=degree,
        intervals=tuple(Interval(-1.0 - k, 2.0 + k) for k in range(d)),
        scales=rng.uniform(0.5, 2.0, rank),
        coeffs=rng.uniform(-1.0, 1.0, (rank, d, degree + 1)),
    )
    path = tmp_path / "model.json"
    model.save(path)
    points = np.array([[rng.uniform(iv.lo, iv.hi) for iv in model.intervals]
                       for _ in range(50)])
    np.testing.assert_allclose(oracle.model_eval(path, points), model.eval_many(points),
                               rtol=1e-12, atol=1e-12)


def test_tau_star_sits_on_the_manifold_and_matches_d2_value():
    a = np.array([1.0, 4.0])
    tau = oracle.tau_star(a)
    np.testing.assert_allclose(tau, [2.0 / np.sqrt(5.0), 0.5 / np.sqrt(5.0)])
    assert oracle.g_true(a, tau) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(oracle.tau_max(a), [1.0, 0.5])


def test_value_oracles_reproduce_both_evaluators_bit_for_bit():
    from tolalloc.evaluator import make_builtin

    a = [0.5, 2.75, 4.0]
    points = np.random.default_rng(3).uniform(-2.0, 2.0, (100, 3))
    bowl = make_builtin("quadratic-bowl", {"a": a})
    assert [oracle.builtin_value(a, p) for p in points] == [bowl(p) for p in points]

    request = "".join(" ".join(repr(float(v)) for v in p) + "\n" for p in points)
    served = subprocess.run(
        [sys.executable, str(workloads.SERVER), ",".join(map(repr, a))],
        input=request, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert [float(v) for v in served] == [oracle.server_value(a, p) for p in points]
