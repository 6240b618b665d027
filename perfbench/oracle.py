"""Independent oracles for the quadratic bowl Q(mu) = sum_i a_i mu_i^2.

Nothing here imports the package under test: the surrogate is evaluated
from its JSON form with a separate Legendre recurrence.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def tau_star(a) -> np.ndarray:
    """1-norm optimum on sum_i a_i tau_i^2 = 1: tau_i = (1/a_i) / sqrt(sum_j 1/a_j)."""
    inv = 1.0 / np.asarray(a, dtype=float)
    return inv / np.sqrt(inv.sum())


def tau_max(a, q_allow: float = 1.0) -> np.ndarray:
    """Axis crossings of the bowl at q_allow."""
    return np.sqrt(q_allow / np.asarray(a, dtype=float))


def g_true(a, tau) -> float:
    """Exact worst case of the bowl over the box |mu_i| <= tau_i."""
    tau = np.asarray(tau, dtype=float)
    return float(np.asarray(a, dtype=float) @ (tau * tau))


def builtin_value(a, point) -> float:
    """The builtin bowl's own arithmetic, so values compare bit for bit."""
    point = np.asarray(point, dtype=float)
    return float(np.asarray(a, dtype=float) @ (point * point))


def server_value(a, point) -> float:
    """The external solver child's arithmetic (plain Python floats, in order)."""
    value = 0.0
    for coeff, x in zip(a, point):
        value += coeff * x * x
    return value


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    return data[:, :-1], data[:, -1]


def _legendre(x: np.ndarray, degree: int) -> np.ndarray:
    """P_0..P_degree at x, stacked on a new last axis."""
    table = [np.ones_like(x), x]
    for j in range(1, degree):
        table.append(((2 * j + 1) * x * table[j] - j * table[j - 1]) / (j + 1))
    return np.stack(table[: degree + 1], axis=-1)


def model_eval(model_path, points: np.ndarray) -> np.ndarray:
    """Evaluate a saved separated model sum_l s_l prod_i sum_j c_lij P_j(x_i)."""
    with open(model_path) as fh:
        model = json.load(fh)
    lo = np.array([iv[0] for iv in model["intervals"]], dtype=float)
    hi = np.array([iv[1] for iv in model["intervals"]], dtype=float)
    x = np.clip(2.0 * (points - lo) / (hi - lo) - 1.0, -1.0, 1.0)
    basis = _legendre(x, int(model["degree"]))                    # (n, d, p+1)
    coeffs = np.asarray(model["coeffs"], dtype=float)             # (r, d, p+1)
    factors = np.einsum("lij,nij->lni", coeffs, basis)
    return np.asarray(model["scales"], dtype=float) @ factors.prod(axis=2)


def max_rel_error(model_path, points, values) -> float:
    return float(np.max(np.abs((values - model_eval(model_path, points)) / values)))


def rel_residual(model_path, points, values) -> float:
    return float(np.linalg.norm(values - model_eval(model_path, points)) / np.linalg.norm(values))
