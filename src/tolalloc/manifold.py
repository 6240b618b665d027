"""Traversal of the level-set manifold {tau : G(tau) = q_allow}.

Bound-constrained gradient ascent and Fletcher-Reeves nonlinear conjugate
gradients over the manifold, using a retractor-induced retraction and a Brent
line search.  The ``gfun`` argument is any object with ``value(tau) -> float``
and ``grad(tau) -> ndarray`` (see :mod:`tolalloc.boxmax`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .domain import BoundingBox

_PENALTY = -1e300


class RetractionError(RuntimeError):
    """No manifold intersection along the retractor line within the box."""


class DegenerateNormalError(RuntimeError):
    """The manifold normal vanished; the tangent space is undefined."""


class InitializationError(RuntimeError):
    """The initial-guess ray exits the bounding box before crossing the manifold."""


@dataclass
class TraversalConfig:
    max_iters: int = 100
    f_increase_tol: float = 1e-6
    retraction_tol: float = 1e-10
    line_search_tol: float = 1e-10
    tangent_tol: float = 1e-12
    wall_rel_tol: float = 1e-8

    def __post_init__(self):
        if min(
            self.f_increase_tol, self.retraction_tol, self.line_search_tol,
            self.tangent_tol, self.wall_rel_tol,
        ) <= 0:
            raise ValueError("all tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class TangentFrame:
    normal: np.ndarray       # unit manifold normal grad G / |grad G|
    projector: np.ndarray    # (d, d), rows zeroed on active walls
    cg_flag: bool


@dataclass
class TraversalTrace:
    iterates: list[np.ndarray] = field(default_factory=list)
    f_values: list[float] = field(default_factory=list)
    g_residuals: list[float] = field(default_factory=list)
    wall_events: list[tuple[int, int]] = field(default_factory=list)
    restarts: list[int] = field(default_factory=list)

    def write_csv(self, path) -> None:
        dim = self.iterates[0].size if self.iterates else 0
        events = {}
        for iteration, axis in self.wall_events:
            events.setdefault(iteration, []).append(f"wall:{axis}")
        for iteration in self.restarts:
            events.setdefault(iteration, []).append("restart")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iter"] + [f"tau_{i + 1}" for i in range(dim)] + ["F", "G_residual", "event"]
            )
            for it, (tau, f, g) in enumerate(
                zip(self.iterates, self.f_values, self.g_residuals)
            ):
                writer.writerow(
                    [it]
                    + [repr(float(v)) for v in tau]
                    + [repr(float(f)), repr(float(g)), ";".join(events.get(it, []))]
                )


@dataclass
class AllocationResult:
    tau: np.ndarray
    f_opt: float
    g_residual: float
    iterations: int
    method: str
    trace: TraversalTrace
    stalled: bool = False


# ---------------------------------------------------------------------------
# Retraction
# ---------------------------------------------------------------------------

def retract(tau, eta, bbox: BoundingBox, gfun, q_allow: float, tol: float) -> np.ndarray:
    """Return to the manifold along the retractor line through tau + eta.

    Above the manifold the retractor points back toward tau_min; below, toward
    tau_max.  The intersection G = q_allow is solved by bracketed Brent.
    """
    tau = np.asarray(tau, dtype=float)
    eta = np.asarray(eta, dtype=float)
    anchor = bbox.clip(tau + eta)
    g_anchor = gfun.value(anchor)
    if abs(g_anchor - q_allow) <= tol * abs(q_allow):
        return anchor
    if g_anchor >= q_allow:
        direction = anchor - bbox.tau_min
    else:
        direction = bbox.tau_max - anchor
    if not np.any(direction != 0.0):
        raise RetractionError("degenerate retractor direction (point on box corner)")

    def residual(s: float) -> float:
        return gfun.value(bbox.clip(anchor + s * direction)) - q_allow

    if g_anchor >= q_allow:
        lo, hi = -1.0, 0.0
        f_lo, f_hi = residual(lo), g_anchor - q_allow
    else:
        lo, hi = 0.0, 1.0
        f_lo, f_hi = g_anchor - q_allow, residual(hi)
    if f_lo == 0.0:
        s_star = lo
    elif f_hi == 0.0:
        s_star = hi
    elif f_lo * f_hi > 0.0:
        raise RetractionError(
            f"no manifold crossing along retractor line: q_allow={q_allow} outside "
            f"[{min(f_lo, f_hi) + q_allow}, {max(f_lo, f_hi) + q_allow}]"
        )
    else:
        s_star = brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16)
    result = bbox.clip(anchor + s_star * direction)
    if abs(gfun.value(result) - q_allow) > tol * abs(q_allow):
        raise RetractionError("retraction failed to meet the manifold residual tolerance")
    return result


# ---------------------------------------------------------------------------
# Tangent frame and transport
# ---------------------------------------------------------------------------

def build_projection(
    tau,
    bbox: BoundingBox,
    grad_g_val,
    grad_f_val,
    wall_rel_tol: float = 1e-8,
) -> TangentFrame:
    """Tangent projector I - n n^T at tau with wall rows zeroed.

    A row k is zeroed when tau_k sits on a bounding-box wall and the measure
    gradient points out of that wall; this also clears the CG flag so the
    conjugate-gradient method restarts.
    """
    grad_g_val = np.asarray(grad_g_val, dtype=float)
    grad_f_val = np.asarray(grad_f_val, dtype=float)
    norm = np.linalg.norm(grad_g_val)
    if norm == 0.0:
        raise DegenerateNormalError("grad G vanished: manifold tangent space undefined")
    normal = grad_g_val / norm
    projector = np.eye(normal.size) - np.outer(normal, normal)
    on_lower, on_upper = bbox.walls(tau, wall_rel_tol)
    outward = np.where(on_lower, -grad_f_val, grad_f_val)
    blocked = (on_lower | on_upper) & (outward >= 0.0)
    projector[blocked, :] = 0.0
    return TangentFrame(normal=normal, projector=projector, cg_flag=not blocked.any())


def vector_transport(frame_new: TangentFrame, v_old) -> np.ndarray:
    """Projection transport into the new tangent space (wall rows included)."""
    return frame_new.projector @ np.asarray(v_old, dtype=float)


# ---------------------------------------------------------------------------
# Initial guess and line search
# ---------------------------------------------------------------------------

def initial_guess(
    bbox: BoundingBox, measure, gfun, q_allow: float, tol: float
) -> np.ndarray:
    """First manifold point: ray from tau_min along the measure ascent direction."""
    direction = np.asarray(measure.ascent_direction_at(bbox.tau_min), dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise InitializationError("measure ascent direction vanished at tau_min")
    direction = direction / norm

    with np.errstate(divide="ignore"):
        limits = np.where(
            direction > 0.0, (bbox.tau_max - bbox.tau_min) / direction, np.inf
        )
    s_max = float(limits.min())
    if not np.isfinite(s_max) or s_max <= 0.0:
        raise InitializationError("initial ray does not enter the bounding box")

    def residual(s: float) -> float:
        return gfun.value(bbox.clip(bbox.tau_min + s * direction)) - q_allow

    f0 = residual(0.0)
    if f0 >= 0.0:
        raise InitializationError(
            f"G(tau_min) = {f0 + q_allow} already violates q_allow = {q_allow}"
        )
    f_end = residual(s_max)
    if f_end < 0.0:
        raise InitializationError("initial ray exits the box before crossing the manifold")
    s_star = brentq(residual, 0.0, s_max, xtol=1e-15, rtol=8.9e-16)
    tau0 = bbox.clip(bbox.tau_min + s_star * direction)
    if abs(gfun.value(tau0) - q_allow) > tol * abs(q_allow):
        raise InitializationError("initial guess failed the manifold residual tolerance")
    return tau0


def line_search(
    tau,
    v,
    bbox: BoundingBox,
    measure,
    gfun,
    q_allow: float,
    config: TraversalConfig,
) -> tuple[float, np.ndarray, float, bool]:
    """Maximize F(R_tau(alpha v)) for alpha in [0, alpha_max].

    Returns ``(alpha, tau_plus, f_plus, stalled)``.  The direction is
    normalized internally so the step scale is the tangent arc length; every
    objective probe retracts back onto the manifold first.
    """
    tau = np.asarray(tau, dtype=float)
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    f0 = measure.value(tau)
    if norm == 0.0:
        return 0.0, tau, f0, True
    unit = v / norm

    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(unit > 0.0, (bbox.tau_max - tau) / unit, np.inf)
        lower = np.where(unit < 0.0, (bbox.tau_min - tau) / unit, np.inf)
    alpha_max = float(np.minimum(upper, lower).min())
    if not np.isfinite(alpha_max) or alpha_max <= 0.0:
        return 0.0, tau, f0, True

    def objective(alpha: float) -> float:
        try:
            point = retract(tau, alpha * unit, bbox, gfun, q_allow, config.retraction_tol)
        except RetractionError:
            return _PENALTY
        return measure.value(point)

    result = minimize_scalar(
        lambda a: -objective(a),
        bounds=(0.0, alpha_max),
        method="bounded",
        options={"xatol": config.line_search_tol * alpha_max, "maxiter": 200},
    )
    candidates = [float(result.x), alpha_max]
    best_alpha, best_f = 0.0, f0
    for alpha in candidates:
        f_alpha = objective(alpha)
        if f_alpha > best_f:
            best_alpha, best_f = alpha, f_alpha
    if best_alpha == 0.0:
        return 0.0, tau, f0, True
    tau_plus = retract(tau, best_alpha * unit, bbox, gfun, q_allow, config.retraction_tol)
    return best_alpha, tau_plus, measure.value(tau_plus), False


# ---------------------------------------------------------------------------
# Traversal drivers
# ---------------------------------------------------------------------------

def _traverse(
    method: str,
    tau0,
    bbox: BoundingBox,
    gfun,
    q_allow: float,
    measure,
    config: TraversalConfig,
) -> AllocationResult:
    use_cg = method == "cg"
    tau = retract(tau0, np.zeros_like(np.asarray(tau0, dtype=float)), bbox, gfun,
                  q_allow, config.retraction_tol)

    def residual_of(t) -> float:
        return abs(gfun.value(t) - q_allow) / abs(q_allow)

    trace = TraversalTrace()
    trace.iterates.append(tau.copy())
    trace.f_values.append(measure.value(tau))
    trace.g_residuals.append(residual_of(tau))

    v_prev: np.ndarray | None = None
    g_prev_sq = 0.0
    stalled = False
    iterations = 0

    for i in range(config.max_iters):
        grad_g_val = gfun.grad(tau)
        grad_f_val = measure.grad(tau)
        frame = build_projection(tau, bbox, grad_g_val, grad_f_val, config.wall_rel_tol)
        g = frame.projector @ grad_f_val
        g_sq = float(g @ g)
        if use_cg and frame.cg_flag and i > 0 and g_prev_sq > 0.0:
            beta = g_sq / g_prev_sq
            v = g + beta * vector_transport(frame, v_prev)
        else:
            v = g
            if use_cg and i > 0:
                trace.restarts.append(i)
        g_prev_sq = g_sq

        if np.linalg.norm(v) <= config.tangent_tol:
            break

        alpha, tau_new, f_new, step_stalled = line_search(
            tau, v, bbox, measure, gfun, q_allow, config
        )
        if step_stalled:
            stalled = i == 0
            break

        iterations = i + 1
        df = f_new - trace.f_values[-1]
        dtau = float(np.max(np.abs(tau_new - tau)))
        on_lower, on_upper = bbox.walls(tau_new, config.wall_rel_tol)
        for axis in np.flatnonzero(on_lower | on_upper):
            trace.wall_events.append((iterations, int(axis)))
        tau = tau_new
        v_prev = v
        trace.iterates.append(tau.copy())
        trace.f_values.append(f_new)
        trace.g_residuals.append(residual_of(tau))
        if df < config.f_increase_tol or dtau < config.f_increase_tol:
            break

    return AllocationResult(
        tau=tau,
        f_opt=trace.f_values[-1],
        g_residual=trace.g_residuals[-1],
        iterations=iterations,
        method=method.upper(),
        trace=trace,
        stalled=stalled,
    )


def gradient_ascent(
    tau0, bbox: BoundingBox, gfun, q_allow: float, measure,
    config: TraversalConfig | None = None,
) -> AllocationResult:
    """Bound-constrained manifold gradient ascent."""
    return _traverse("ga", tau0, bbox, gfun, q_allow, measure, config or TraversalConfig())


def conjugate_gradient(
    tau0, bbox: BoundingBox, gfun, q_allow: float, measure,
    config: TraversalConfig | None = None,
) -> AllocationResult:
    """Bound-constrained manifold nonlinear conjugate gradients (Fletcher-Reeves).

    The first iteration is plain gradient ascent; every new wall intersection
    restarts the conjugate direction.
    """
    return _traverse("cg", tau0, bbox, gfun, q_allow, measure, config or TraversalConfig())
