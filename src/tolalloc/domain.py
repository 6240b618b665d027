"""Sampling-domain and tolerance-bounding-box construction.

Each axis bound is the first design perturbation along +/- e_i at which the
system performance climbs to the allowed constraint value, found by outward
bracket expansion followed by Brent root refinement.
"""

from __future__ import annotations

import warnings

import numpy as np

from .brent import brentq
from .files import Interval

ROOT_REL_TOL = 1e-10
BRACKET_INITIAL_FRACTION = 1e-3
WALL_REL_TOL = 1e-8


class ConstraintError(ValueError):
    """Raised when the nominal design violates the performance constraint."""


class BoundingBox:
    """Componentwise tolerance search box [tau_min, tau_max]."""

    def __init__(self, tau_min, tau_max):
        tau_min = np.asarray(tau_min, dtype=float)
        tau_max = np.asarray(tau_max, dtype=float)
        if tau_min.shape != tau_max.shape or tau_min.ndim != 1:
            raise ValueError("tau_min and tau_max must be 1-d vectors of equal length")
        if not np.all((0.0 <= tau_min) & (tau_min < tau_max) & (tau_max < np.inf)):
            raise ValueError("require 0 <= tau_min_i < tau_max_i < inf for all i")
        self.tau_min, self.tau_max = tau_min, tau_max

    @property
    def dim(self) -> int:
        return self.tau_min.size

    def clip(self, tau) -> np.ndarray:
        return np.clip(np.asarray(tau, dtype=float), self.tau_min, self.tau_max)

    def walls(self, tau) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the axes where tau lies on the lower and on the upper wall,
        within WALL_REL_TOL of the box width."""
        tau = np.asarray(tau, dtype=float)
        slack = WALL_REL_TOL * (self.tau_max - self.tau_min)
        return tau - self.tau_min <= slack, self.tau_max - tau <= slack

    def ray_length(self, origin, direction) -> float:
        """How far origin + s direction, s >= 0, runs in the box (<= 0: not at all)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(direction > 0.0, (self.tau_max - origin) / direction, np.inf)
            lower = np.where(direction < 0.0, (self.tau_min - origin) / direction, np.inf)
        return float(np.minimum(upper, lower).min())


def axis_threshold(
    evaluator,
    mu_hat,
    q_allow: float,
    axis: int,
    direction: int,
    search_cap: float,
) -> float:
    """Smallest |step| along ``direction * e_axis`` with Q = q_allow.

    Returns ``search_cap`` (with a warning) if no crossing is found within it.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if not search_cap > 0:
        raise ValueError(f"search_cap must be positive, got {search_cap}")
    mu_hat = np.asarray(mu_hat, dtype=float)

    def q_of(t: float) -> float:
        point = mu_hat.copy()
        point[axis] += direction * t
        value = evaluator(point)
        if not np.isfinite(value):
            raise ArithmeticError(f"non-finite performance at axis {axis}, step {t}")
        return value

    q0 = q_of(0.0)
    if not q0 < q_allow:
        raise ConstraintError(
            f"constraint violated at nominal: Q(mu_hat)={q0} >= q_allow={q_allow}"
        )

    # Steps double from BRACKET_INITIAL_FRACTION of the cap until one crosses
    # q_allow or the step reaches the cap, which takes at most 11 steps.
    t_prev, fraction = 0.0, BRACKET_INITIAL_FRACTION
    while q_of(t := min(fraction * search_cap, search_cap)) < q_allow:
        if t >= search_cap:
            warnings.warn(
                f"no performance crossing within search cap {search_cap} on axis {axis} "
                f"(direction {direction:+d}); returning the cap",
                stacklevel=2,
            )
            return search_cap
        t_prev, fraction = t, 2.0 * fraction

    root = brentq(lambda t: q_of(t) - q_allow, t_prev, t, xtol=1e-15, rtol=8.9e-16)
    if abs(q_of(root) - q_allow) > ROOT_REL_TOL * abs(q_allow):
        warnings.warn(
            f"axis {axis} crossing refined to residual above {ROOT_REL_TOL} relative "
            "(possible tangency)",
            stacklevel=2,
        )
    return float(root)


def size_bounding_box(
    evaluator,
    mu_hat,
    q_allow: float,
    caps,
) -> tuple[BoundingBox, tuple[Interval, ...]]:
    """Size the tolerance bounding box and the sampling intervals.

    The binding direction governs each axis since the tolerance box extends
    symmetrically about the nominal design; the sampling interval of axis i is
    [mu_hat_i - tau_max_i, mu_hat_i + tau_max_i].  The box's tau_min is 0.
    """
    mu_hat = np.asarray(mu_hat, dtype=float)
    caps = np.broadcast_to(np.asarray(caps, dtype=float), mu_hat.shape)
    tau_max = np.empty_like(mu_hat)
    for i in range(mu_hat.size):
        plus = axis_threshold(evaluator, mu_hat, q_allow, i, +1, float(caps[i]))
        minus = axis_threshold(evaluator, mu_hat, q_allow, i, -1, float(caps[i]))
        tau_max[i] = min(plus, minus)
    bbox = BoundingBox(tau_min=np.zeros_like(tau_max), tau_max=tau_max)
    return bbox, tuple(Interval(m - t, m + t) for m, t in zip(mu_hat, tau_max))
