"""Traversal of the level-set manifold {tau : G(tau) = q_allow}.

Bound-constrained gradient ascent and Fletcher-Reeves nonlinear conjugate
gradients over the manifold, using a retractor-induced retraction and a line
search.  Both run on slopes, not values: the retraction meets the manifold by
safeguarded Newton steps on G along the retractor line, and the line search
takes the root of the analytic slope dF/dalpha of the retracted point by
Brent's method.  Every slope uses grad G at a point whose G has already been
computed.  The ``gfun`` argument is any object with ``value(tau) -> float``
and ``grad(tau) -> ndarray`` (see :mod:`tolalloc.boxmax`).

A traversal stops where ||P grad F|| <= STATIONARY_TOL ||grad F||, a test that
no rescaling of F changes; on a line-search stall, as at a kink of G; or after
MAX_ITERS steps.  ``AllocationResult.stop`` names which: "stationary",
"stalled" or "max_iters".
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .brent import MAXITER, brentq
from .domain import BoundingBox
from .measures import ascent_direction

# Tolerances of the traversal.  STATIONARY_TOL is its stopping rule (see
# above), RETRACTION_TOL bounds |G - q_allow| / |q_allow|, LINE_SEARCH_TOL is
# relative to the longest feasible step and WALL_REL_TOL to the bounding-box
# width.  A manifold crossing is solved to |G - q_allow| <= CROSSING_FTOL
# |q_allow|, a few ulps, or until its bracket in s is narrower than
# CROSSING_XTOL + CROSSING_RTOL |s|.
MAX_ITERS = 100
STATIONARY_TOL = 1e-4
RETRACTION_TOL = 1e-10
LINE_SEARCH_TOL = 1e-10
WALL_REL_TOL = 1e-8
CROSSING_FTOL = 4.0 * np.finfo(float).eps
CROSSING_XTOL = 1e-15
CROSSING_RTOL = 8.9e-16


class RetractionError(RuntimeError):
    """No manifold intersection along the retractor line within the box."""


class DegenerateNormalError(RuntimeError):
    """The manifold normal vanished; the tangent space is undefined."""


class InitializationError(RuntimeError):
    """The initial-guess ray exits the bounding box before crossing the manifold."""


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
    stop: str                # "stationary" | "stalled" | "max_iters"


# ---------------------------------------------------------------------------
# Retraction
# ---------------------------------------------------------------------------

def _crossing(
    gfun, q_allow: float, bbox: BoundingBox, base, direction,
    a: float, f_a: float, b: float, f_b: float,
) -> tuple[float, float]:
    """The s between a and b where G(clip(base + s direction)) = q_allow, and
    the residual G - q_allow there, given residuals f_a and f_b of unlike sign.

    Safeguarded Newton-bisection (``rtsafe``, Press et al., *Numerical
    Recipes* §9.4) from the end of smaller |residual|.  The slope is
    grad G . direction over the axes the clip leaves free, so a step costs one
    G value and one G gradient.  A Newton step that leaves the bracket, or
    does not halve the step before last, is replaced by bisection.  Returns
    the probe of least |residual|.
    """
    lo, hi = (a, b) if f_a < f_b else (b, a)   # the residual is <= 0 at lo
    s, f = (a, f_a) if abs(f_a) < abs(f_b) else (b, f_b)
    best_s, best_f = s, f
    step = step_old = hi - lo
    raw = base + s * direction
    point = bbox.clip(raw)
    for _ in range(MAXITER):
        if (abs(f) <= CROSSING_FTOL * abs(q_allow)
                or abs(hi - lo) <= CROSSING_XTOL + CROSSING_RTOL * abs(s)):
            break
        slope = float(gfun.grad(point) @ np.where(raw == point, direction, 0.0))
        step_old, s_old = step, s
        if (((s - hi) * slope - f) * ((s - lo) * slope - f) > 0.0
                or abs(2.0 * f) > abs(step_old * slope)):
            step = 0.5 * (hi - lo)
            s = lo + step
        else:
            step = f / slope
            s -= step
        if s == s_old:
            break
        raw = base + s * direction
        point = bbox.clip(raw)
        f = gfun.value(point) - q_allow
        if f < 0.0:
            lo = s
        else:
            hi = s
        if abs(f) < abs(best_f):
            best_s, best_f = s, f
    return best_s, best_f


def retract(
    tau, eta, bbox: BoundingBox, gfun, q_allow: float, tol: float = RETRACTION_TOL
) -> np.ndarray:
    """Return to the manifold along the retractor line through tau + eta.

    Above the manifold the retractor points back toward tau_min; below, toward
    tau_max.  The intersection G = q_allow is solved by safeguarded Newton
    steps from the anchor clip(tau + eta), within the sign bracket between the
    anchor and the box corner.
    """
    tau = np.asarray(tau, dtype=float)
    eta = np.asarray(eta, dtype=float)
    anchor = bbox.clip(tau + eta)
    g_anchor = gfun.value(anchor)
    if abs(g_anchor - q_allow) <= tol * abs(q_allow):
        return anchor
    if g_anchor >= q_allow:
        direction, far = anchor - bbox.tau_min, -1.0
    else:
        direction, far = bbox.tau_max - anchor, 1.0
    if not np.any(direction != 0.0):
        raise RetractionError("degenerate retractor direction (point on box corner)")
    f_anchor = g_anchor - q_allow
    f_far = gfun.value(bbox.clip(anchor + far * direction)) - q_allow
    if f_anchor * f_far > 0.0:
        raise RetractionError(
            f"no manifold crossing along retractor line: q_allow={q_allow} outside "
            f"[{min(f_anchor, f_far) + q_allow}, {max(f_anchor, f_far) + q_allow}]"
        )
    s_star, f_star = _crossing(gfun, q_allow, bbox, anchor, direction, 0.0, f_anchor, far, f_far)
    if not abs(f_star) <= tol * abs(q_allow):
        raise RetractionError("retraction failed to meet the manifold residual tolerance")
    return bbox.clip(anchor + s_star * direction)


# ---------------------------------------------------------------------------
# Tangent frame and transport
# ---------------------------------------------------------------------------

def build_projection(tau, bbox: BoundingBox, grad_g_val, grad_f_val) -> TangentFrame:
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
    on_lower, on_upper = bbox.walls(tau, WALL_REL_TOL)
    outward = np.where(on_lower, -grad_f_val, grad_f_val)
    blocked = (on_lower | on_upper) & (outward >= 0.0)
    projector[blocked, :] = 0.0
    return TangentFrame(normal=normal, projector=projector, cg_flag=not blocked.any())


# ---------------------------------------------------------------------------
# Initial guess and line search
# ---------------------------------------------------------------------------

def initial_guess(
    bbox: BoundingBox, measure, gfun, q_allow: float, tol: float = RETRACTION_TOL
) -> np.ndarray:
    """First manifold point: ray from tau_min along the measure ascent direction,
    crossing G = q_allow by the same safeguarded Newton steps as ``retract``."""
    direction = np.asarray(ascent_direction(measure, bbox.tau_min), dtype=float)
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
    s_star, f_star = _crossing(gfun, q_allow, bbox, bbox.tau_min, direction, 0.0, f0, s_max, f_end)
    if not abs(f_star) <= tol * abs(q_allow):
        raise InitializationError("initial guess failed the manifold residual tolerance")
    return bbox.clip(bbox.tau_min + s_star * direction)


def _probe(
    tau, unit, alpha: float, bbox: BoundingBox, measure, gfun, q_allow: float
) -> tuple[np.ndarray | None, float, float]:
    """The retracted point p = R_tau(alpha unit), F(p) and the slope dF(p)/dalpha.

    The retraction moves the anchor a = clip(tau + alpha unit) along the ray
    from o = tau_min (then p <= a) or o = tau_max (then p >= a), so that
    p - o = c (a - o) with c in (0, 1].  Differentiating G(p) = q_allow gives

        dp/dalpha = c (a' - w (grad G . a') / (grad G . w)),   w = p - o,

    with a' = unit on the axes the anchor's clip leaves free and 0 on the
    others.  The segment from a to o lies in the box, so p itself is never
    clipped.  grad G is taken at p, whose G the retraction has computed.  A
    probe whose retraction fails, or whose retractor line is tangent to the
    manifold, is a step too long: p is None and F and the slope are -inf.
    """
    raw = tau + alpha * unit
    anchor = bbox.clip(raw)
    try:
        point = retract(tau, alpha * unit, bbox, gfun, q_allow)
    except RetractionError:
        return None, -math.inf, -math.inf
    f = measure.value(point)
    if f == 0.0:
        # The least value of every measure, reached on a zero tolerance where
        # the reciprocal measures have no gradient: F has only fallen here.
        return point, f, -math.inf
    origin = bbox.tau_max if np.any(point > anchor) else bbox.tau_min
    w = point - origin
    grad_g = gfun.grad(point)
    g_w = float(grad_g @ w)
    if g_w == 0.0:
        return None, -math.inf, -math.inf
    da = np.where(raw == anchor, unit, 0.0)
    reach = anchor - origin
    c = float(w @ reach) / float(reach @ reach)
    dp = c * (da - w * (float(grad_g @ da) / g_w))
    return point, f, float(measure.grad(point) @ dp)


def line_search(
    tau, v, bbox: BoundingBox, measure, gfun, q_allow: float
) -> tuple[float, np.ndarray, float, bool]:
    """Maximize phi(alpha) = F(R_tau(alpha v)) for alpha in [0, alpha_max].

    Returns ``(alpha, tau_plus, f_plus, stalled)``.  The direction is
    normalized internally so the step scale is the tangent arc length.  The
    maximizer is the root of the slope phi'(alpha), found by Brent's method,
    unless phi'(alpha_max) >= 0 (the step runs to the wall) or phi'(0) <= 0
    (no ascent, so only alpha_max is tried).  The better of the root and
    alpha_max is taken if it raises F above F(tau); otherwise the search
    stalls.
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

    @functools.cache
    def probe(alpha: float) -> tuple[np.ndarray | None, float, float]:
        return _probe(tau, unit, alpha, bbox, measure, gfun, q_allow)

    candidates = [alpha_max]
    if probe(alpha_max)[2] < 0.0 and probe(0.0)[2] > 0.0:
        root = brentq(lambda alpha: probe(alpha)[2], 0.0, alpha_max,
                      xtol=LINE_SEARCH_TOL * alpha_max)
        candidates.insert(0, root)
    best_alpha, tau_plus, best_f = 0.0, tau, f0
    for alpha in candidates:
        point, f, _ = probe(alpha)
        if f > best_f:
            best_alpha, tau_plus, best_f = alpha, point, f
    return best_alpha, tau_plus, best_f, best_alpha == 0.0


# ---------------------------------------------------------------------------
# Traversal drivers
# ---------------------------------------------------------------------------

def _traverse(
    method: str, tau0, bbox: BoundingBox, gfun, q_allow: float, measure
) -> AllocationResult:
    use_cg = method == "cg"
    tau = retract(tau0, np.zeros_like(np.asarray(tau0, dtype=float)), bbox, gfun, q_allow)

    def residual_of(t) -> float:
        return abs(gfun.value(t) - q_allow) / abs(q_allow)

    trace = TraversalTrace()
    trace.iterates.append(tau.copy())
    trace.f_values.append(measure.value(tau))
    trace.g_residuals.append(residual_of(tau))

    v_prev: np.ndarray | None = None
    g_prev_sq = 0.0
    stop = "max_iters"

    for i in range(MAX_ITERS):
        grad_g_val = gfun.grad(tau)
        grad_f_val = measure.grad(tau)
        frame = build_projection(tau, bbox, grad_g_val, grad_f_val)
        g = frame.projector @ grad_f_val
        g_sq = float(g @ g)
        if math.sqrt(g_sq) <= STATIONARY_TOL * np.linalg.norm(grad_f_val):
            stop = "stationary"
            break
        if use_cg and frame.cg_flag and i > 0 and g_prev_sq > 0.0:
            beta = g_sq / g_prev_sq
            # Transport v_prev by projection into the new tangent space.
            v = g + beta * (frame.projector @ v_prev)
        else:
            v = g
            if use_cg and i > 0:
                trace.restarts.append(i)
        g_prev_sq = g_sq

        _, tau_new, f_new, stalled = line_search(tau, v, bbox, measure, gfun, q_allow)
        if stalled:
            stop = "stalled"
            break

        on_lower, on_upper = bbox.walls(tau_new, WALL_REL_TOL)
        for axis in np.flatnonzero(on_lower | on_upper):
            trace.wall_events.append((i + 1, int(axis)))
        tau = tau_new
        v_prev = v
        trace.iterates.append(tau.copy())
        trace.f_values.append(f_new)
        trace.g_residuals.append(residual_of(tau))

    return AllocationResult(
        tau=tau,
        f_opt=trace.f_values[-1],
        g_residual=trace.g_residuals[-1],
        iterations=len(trace.iterates) - 1,
        method=method.upper(),
        trace=trace,
        stop=stop,
    )


def gradient_ascent(tau0, bbox: BoundingBox, gfun, q_allow: float, measure) -> AllocationResult:
    """Bound-constrained manifold gradient ascent."""
    return _traverse("ga", tau0, bbox, gfun, q_allow, measure)


def conjugate_gradient(tau0, bbox: BoundingBox, gfun, q_allow: float, measure) -> AllocationResult:
    """Bound-constrained manifold nonlinear conjugate gradients (Fletcher-Reeves).

    The first iteration is plain gradient ascent; every new wall intersection
    restarts the conjugate direction.
    """
    return _traverse("cg", tau0, bbox, gfun, q_allow, measure)
