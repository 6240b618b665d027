"""Tolerance measures F(tau) and their gradients.

Four families: the plain 1-norm, the sensitivity-weighted mu-norm, the
harmonic -1-norm, and the inverse of a reciprocal-power manufacturing cost.
All are monotone in every component and pure functions of tau.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .surrogate import SeparatedModel

DEGENERATE_WEIGHT_TOL = 1e-8


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
        if not (np.all(np.isfinite([a, b, k])) and np.all(a >= 0.0)
                and np.all(b > 0.0) and np.all(k > 0.0)):
            raise ValueError("a must be finite and nonnegative, b and k finite and positive")
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


def ascent_direction(measure, tau) -> np.ndarray:
    """The direction in which ``measure`` grows from ``tau``: its gradient where
    that is defined, and all ones where ``grad`` raises ``ValueError``.  The
    reciprocal measures' gradients are singular at a zero component, and the
    isotropic limit direction applies there."""
    try:
        return measure.grad(tau)
    except ValueError:
        return np.ones_like(np.asarray(tau, dtype=float))


def mu_norm_from_model(model: SeparatedModel, mu_hat):
    """A mu-norm weighted by the surrogate's |dQ/dmu_i| at the nominal design,
    or, with a warning, the 1-norm when each weight is at most
    DEGENERATE_WEIGHT_TOL times the largest partial at the 2d points that move
    one coordinate of the nominal design to an end of its interval."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    weights = np.abs(model.gradient(mu_hat))
    ends = np.tile(mu_hat, (2, model.dim, 1))
    for i, interval in enumerate(model.intervals):
        ends[:, i, i] = interval.lo, interval.hi
    scale = np.abs(model.grad_many(ends.reshape(-1, model.dim))).max()
    if np.all(weights <= DEGENERATE_WEIGHT_TOL * scale):
        warnings.warn("all sensitivity weights are negligible: the nominal design is "
                      "stationary for the surrogate, so the mu-norm is degenerate; using the "
                      "1-norm", stacklevel=2)
        return OneNorm()
    return MuNorm(weights=weights)


# The measure of each config kind; its other keys are the class's fields.
KINDS = {"one-norm": OneNorm, "mu-norm": MuNorm, "minus-one-norm": MinusOneNorm,
         "reciprocal-power-cost": ReciprocalPowerCost}
KIND_KEYS = {kind: {field.name for field in fields(cls)} for kind, cls in KINDS.items()}


def from_config(spec: dict, model: SeparatedModel | None = None, mu_hat=None):
    """Build a measure from its JSON description.  A key the kind does not
    read, or a missing one, is a ``ValueError`` that names it.  A mu-norm
    without weights takes them from ``model`` at ``mu_hat`` (then required)."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    keys = KIND_KEYS[kind]
    unknown = sorted(set(spec) - keys - {"kind"})
    if unknown:
        raise ValueError(f"{kind} measure does not read key(s) {', '.join(unknown)}; "
                         f"it reads {', '.join(sorted(keys)) or 'no other key'}")
    if kind == "mu-norm" and "weights" not in spec:
        if model is None or mu_hat is None:
            raise ValueError("mu-norm without explicit weights needs a model and nominal design")
        return mu_norm_from_model(model, mu_hat)
    missing = sorted(keys - set(spec))
    if missing:
        raise ValueError(f"{kind} measure lacks key(s) {', '.join(missing)}")
    return KINDS[kind](**{key: np.asarray(spec[key], dtype=float) for key in keys})
