"""Tolerance measures F(tau) and their gradients.

Two families, each monotone in every tau_i and a function of a separable sum:
the weighted sum (the mu-norm; the 1-norm has unit weights) and the inverse of
a reciprocal-power cost (the harmonic -1-norm is its case a = 0, b = k = 1).
A parameter is a number, shared by every axis, or holds one value per axis.
"""

from __future__ import annotations

import warnings

import numpy as np

from .files import _fields, _number_array
from .surrogate import SeparatedModel

DEGENERATE_WEIGHT_TOL = 1e-8


def _check_tau(tau, *parameters: np.ndarray) -> np.ndarray:
    """``tau`` as floats, each >= 0, one per entry of each vector parameter."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tolerance components must be nonnegative")
    if any(p.ndim and p.shape != tau.shape for p in parameters):
        raise ValueError("tolerance components must match the measure's parameters in number")
    return tau


class MuNorm:
    """F(tau) = sum_i w_i tau_i with nonnegative sensitivity weights."""

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim > 1 or weights.size < 1:
            raise ValueError("weights must be a number or a 1-d vector")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        if np.all(weights == 0.0):
            raise ValueError("weights must not all be zero")
        self.weights = weights

    def value(self, tau) -> float:
        return float(np.sum(self.weights * _check_tau(tau, self.weights)))

    def grad(self, tau) -> np.ndarray:
        return self.weights * np.ones_like(_check_tau(tau, self.weights))


class OneNorm(MuNorm):
    """F(tau) = sum_i tau_i: the mu-norm with unit weights."""

    def __init__(self):
        super().__init__(weights=1.0)


class ReciprocalPowerCost:
    """F(tau) = 1 / sum_i (a_i + b_i / tau_i^{k_i}), zero when any tau_i = 0."""

    def __init__(self, a, b, k):
        a, b, k = (np.asarray(value, dtype=float) for value in (a, b, k))
        if max(a.ndim, b.ndim, k.ndim) > 1 or len({x.size for x in (a, b, k) if x.ndim}) > 1:
            raise ValueError("a, b, k must be numbers or 1-d vectors of equal length")
        if not (all(np.all(np.isfinite(x)) for x in (a, b, k)) and np.all(a >= 0.0)
                and np.all(b > 0.0) and np.all(k > 0.0)):
            raise ValueError("a must be finite and nonnegative, b and k finite and positive")
        self.a, self.b, self.k = a, b, k

    def _cost(self, tau: np.ndarray) -> float:
        return float(np.sum(self.a + self.b / tau**self.k))

    def value(self, tau) -> float:
        tau = _check_tau(tau, self.a, self.b, self.k)
        if np.any(tau == 0.0):
            return 0.0
        return 1.0 / self._cost(tau)

    def grad(self, tau) -> np.ndarray:
        tau = _check_tau(tau, self.a, self.b, self.k)
        if np.any(tau == 0.0):
            raise ValueError("cost-measure gradient undefined at zero components")
        f = self.value(tau)
        # Not tau^(k + 1): at k = 1 this is tau * tau, which a vector tau^2 need not be.
        return (f * f) * self.b * self.k / (tau**self.k * tau)


class MinusOneNorm(ReciprocalPowerCost):
    """F(tau) = (sum_i 1/tau_i)^-1, 0 on the boundary: the cost with a = 0, b = k = 1."""

    def __init__(self):
        super().__init__(a=0.0, b=1.0, k=1.0)


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


# The measure class of each config kind and its other keys, each required but a
# mu-norm's weights.
KINDS = {"one-norm": (OneNorm, ()), "mu-norm": (MuNorm, ("weights",)),
         "minus-one-norm": (MinusOneNorm, ()),
         "reciprocal-power-cost": (ReciprocalPowerCost, ("a", "b", "k"))}


def from_config(spec: dict, model: SeparatedModel | None = None, mu_hat=None):
    """Build a measure from its JSON description.  A key the kind does not
    read or lacks, or a vector that does not hold one number per entry of
    ``mu_hat`` (when given), is a ``ValueError`` that names it.  A mu-norm
    without weights takes them from ``model`` at ``mu_hat`` (then required)."""
    kind = _fields(spec, "measure", ["kind"])["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown measure kind {kind!r}")
    cls, keys = KINDS[kind]
    _fields(spec, f"{kind} measure", {"kind", *keys} - {"weights"}, keys)
    if kind == "mu-norm" and "weights" not in spec:
        if model is None or mu_hat is None:
            raise ValueError("mu-norm without explicit weights needs a model and nominal design")
        return mu_norm_from_model(model, mu_hat)
    vectors = {key: _number_array(spec[key], key) for key in keys}
    for key, vector in vectors.items():
        if mu_hat is not None and vector.shape != np.shape(mu_hat):
            raise ValueError(f"{key} must hold {np.size(mu_hat)} numbers, one per parameter, "
                             f"got {spec[key]!r}")
    return cls(**vectors)
