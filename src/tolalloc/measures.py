"""Tolerance measures F(tau) and their gradients.

Four families: the plain 1-norm, the sensitivity-weighted mu-norm, the
harmonic -1-norm, and the inverse of a reciprocal-power manufacturing cost.
All are monotone in every component and pure functions of tau.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .surrogate import SeparatedModel

DEGENERATE_WEIGHT_TOL = 1e-12


def _check_nonnegative(tau: np.ndarray) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tolerance components must be nonnegative")
    return tau


@dataclass(frozen=True)
class OneNorm:
    """F(tau) = sum_i tau_i."""

    def value(self, tau) -> float:
        return float(_check_nonnegative(tau).sum())

    def grad(self, tau) -> np.ndarray:
        return np.ones_like(_check_nonnegative(tau))

    def ascent_direction_at(self, tau) -> np.ndarray:
        return np.ones_like(np.asarray(tau, dtype=float))

    def to_config(self) -> dict:
        return {"kind": "one-norm"}


@dataclass(frozen=True)
class MuNorm:
    """F(tau) = sum_i w_i tau_i with nonnegative sensitivity weights."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError("weights must be a 1-d vector")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        if np.all(weights == 0.0):
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "weights", weights)

    def value(self, tau) -> float:
        return float(self.weights @ _check_nonnegative(tau))

    def grad(self, tau) -> np.ndarray:
        _check_nonnegative(tau)
        return self.weights.copy()

    def ascent_direction_at(self, tau) -> np.ndarray:
        return self.weights.copy()

    def to_config(self) -> dict:
        return {"kind": "mu-norm", "weights": self.weights.tolist()}


@dataclass(frozen=True)
class MinusOneNorm:
    """F(tau) = (sum_i 1/tau_i)^-1, extended by continuity to 0 on the boundary."""

    def value(self, tau) -> float:
        tau = _check_nonnegative(tau)
        if np.any(tau == 0.0):
            return 0.0
        return float(1.0 / np.sum(1.0 / tau))

    def grad(self, tau) -> np.ndarray:
        tau = _check_nonnegative(tau)
        if np.any(tau == 0.0):
            raise ValueError("-1-norm gradient undefined at zero components")
        f = self.value(tau)
        return (f * f) / (tau * tau)

    def ascent_direction_at(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        # The gradient is singular at the boundary; the isotropic limit
        # direction applies there.
        if np.any(tau <= 0.0):
            return np.ones_like(tau)
        return self.grad(tau)

    def to_config(self) -> dict:
        return {"kind": "minus-one-norm"}


@dataclass(frozen=True)
class ReciprocalPowerCost:
    """F(tau) = 1 / sum_i (a_i + b_i / tau_i^{k_i}), zero when any tau_i = 0."""

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if not (a.shape == b.shape == k.shape) or a.ndim != 1:
            raise ValueError("a, b, k must be 1-d vectors of equal length")
        if np.any(b <= 0.0) or np.any(k <= 0.0):
            raise ValueError("b and k must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)

    def _cost(self, tau: np.ndarray) -> float:
        return float(np.sum(self.a + self.b / tau**self.k))

    def value(self, tau) -> float:
        tau = _check_nonnegative(tau)
        if np.any(tau == 0.0):
            return 0.0
        return 1.0 / self._cost(tau)

    def grad(self, tau) -> np.ndarray:
        tau = _check_nonnegative(tau)
        if np.any(tau == 0.0):
            raise ValueError("cost-measure gradient undefined at zero components")
        f = self.value(tau)
        return (f * f) * self.b * self.k / tau ** (self.k + 1.0)

    def ascent_direction_at(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if np.any(tau <= 0.0):
            return np.ones_like(tau)
        return self.grad(tau)

    def to_config(self) -> dict:
        return {
            "kind": "reciprocal-power-cost",
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "k": self.k.tolist(),
        }


def compute_mu_weights(model: SeparatedModel, mu_hat) -> np.ndarray:
    """Sensitivity weights |dQ/dmu_i| at the nominal design, from the surrogate."""
    weights = np.abs(model.gradient(mu_hat))
    if np.all(weights < DEGENERATE_WEIGHT_TOL):
        warnings.warn(
            "all sensitivity weights are (numerically) zero: the nominal design is "
            "stationary for the surrogate, so the mu-norm is degenerate",
            stacklevel=2,
        )
    return weights


def mu_norm_from_model(model: SeparatedModel, mu_hat):
    """Build a mu-norm from surrogate sensitivities, degrading to the 1-norm
    (loudly) when the nominal design is a stationary point."""
    weights = compute_mu_weights(model, mu_hat)
    if np.all(weights < DEGENERATE_WEIGHT_TOL):
        return OneNorm()  # compute_mu_weights has warned
    return MuNorm(weights=weights)


def from_config(spec: dict, model: SeparatedModel | None = None, mu_hat=None):
    """Build a measure from its JSON description.

    ``{"kind": "mu-norm"}`` without explicit weights derives them from the
    surrogate's gradient at the nominal design, which must then be supplied.
    """
    kind = spec.get("kind")
    if kind == "one-norm":
        return OneNorm()
    if kind == "mu-norm":
        if "weights" in spec:
            return MuNorm(weights=np.asarray(spec["weights"], dtype=float))
        if model is None or mu_hat is None:
            raise ValueError("mu-norm without explicit weights needs a model and nominal design")
        return mu_norm_from_model(model, mu_hat)
    if kind == "minus-one-norm":
        return MinusOneNorm()
    if kind == "reciprocal-power-cost":
        return ReciprocalPowerCost(
            a=np.asarray(spec["a"], dtype=float),
            b=np.asarray(spec["b"], dtype=float),
            k=np.asarray(spec["k"], dtype=float),
        )
    raise ValueError(f"unknown measure kind {kind!r}")
