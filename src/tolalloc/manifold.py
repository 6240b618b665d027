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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .brent import MAXITER, brentq
from .domain import BoundingBox
from .measures import ascent_direction
from .surrogate import write_csv

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
    normal: np.ndarray       # unit normal of the manifold within the active wall face
    projector: np.ndarray    # (d, d), onto the manifold's tangent space in that face
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
        write_csv(
            path,
            ["iter"] + [f"tau_{i + 1}" for i in range(dim)] + ["F", "G_residual", "event"],
            ([it, *tau, f, g, ";".join(events.get(it, []))] for it, (tau, f, g)
             in enumerate(zip(self.iterates, self.f_values, self.g_residuals))),
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
    gfun, q_allow: float, bbox: BoundingBox, base, direction, far: float,
    f_base: float, tol: float, error: type[Exception],
) -> np.ndarray:
    """The point clip(base + s direction), s between 0 and far, where G =
    q_allow, given f_base = G - q_allow at base.  Raises ``error`` when G -
    q_allow has one sign at both ends, or misses by more than ``tol`` relative.

    Safeguarded Newton-bisection (``rtsafe``, Press et al., *Numerical
    Recipes* §9.4) from the end of smaller |residual|.  The slope is
    grad G . direction over the axes the clip leaves free, so a step costs one
    G value and one G gradient.  A Newton step that leaves the bracket, or
    does not halve the step before last, is replaced by bisection.  Returns
    the probe of least |residual|.
    """
    f_far = gfun.value(bbox.clip(base + far * direction)) - q_allow
    if f_base * f_far > 0.0:
        raise error(f"segment exits the box without crossing the manifold: q_allow={q_allow} "
                    f"outside [{min(f_base, f_far) + q_allow}, {max(f_base, f_far) + q_allow}]")
    lo, hi = (0.0, far) if f_base < f_far else (far, 0.0)   # the residual is <= 0 at lo
    s, f = (0.0, f_base) if abs(f_base) < abs(f_far) else (far, f_far)
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
    if not abs(best_f) <= tol * abs(q_allow):
        raise error("manifold crossing failed the residual tolerance")
    return bbox.clip(base + best_s * direction)


def retract(
    tau, eta, bbox: BoundingBox, gfun, q_allow: float, tol: float = RETRACTION_TOL
) -> np.ndarray:
    """Return to the manifold along the retractor line through tau + eta.

    Above the manifold the retractor points back toward tau_min; below, toward
    tau_max.  The intersection G = q_allow is solved by ``_crossing`` on the
    segment from the anchor clip(tau + eta) to that box corner.
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
    return _crossing(gfun, q_allow, bbox, anchor, direction, far, g_anchor - q_allow,
                     tol, RetractionError)


# ---------------------------------------------------------------------------
# Tangent frame and transport
# ---------------------------------------------------------------------------

def build_projection(tau, bbox: BoundingBox, grad_g_val, grad_f_val) -> TangentFrame:
    """Projector diag(free) - n n^T onto the manifold's tangent space within
    the wall face at tau, n being grad G on the free axes, normalized.

    Axis k is blocked when tau_k sits on a bounding-box wall and both the
    measure gradient and the multiplier grad F_k - lam grad G_k (lam fitted on
    the free axes) point out of it; axes whose multiplier points in are
    released until none is.  A blocked axis clears the CG flag so the
    conjugate-gradient method restarts.  With no axis blocked P = I - n n^T.
    """
    grad_g_val = np.asarray(grad_g_val, dtype=float)
    grad_f_val = np.asarray(grad_f_val, dtype=float)
    if np.linalg.norm(grad_g_val) == 0.0:
        raise DegenerateNormalError("grad G vanished: manifold tangent space undefined")
    on_lower, on_upper = bbox.walls(tau, WALL_REL_TOL)
    outward = np.where(on_lower, -1.0, 1.0)
    free = ~((on_lower | on_upper) & (outward * grad_f_val >= 0.0))
    face_grad = np.where(free, grad_g_val, 0.0)
    while not free.all() and face_grad @ face_grad > 0.0:
        lam = (face_grad @ grad_f_val) / (face_grad @ face_grad)
        inward = ~free & (outward * (grad_f_val - lam * grad_g_val) < 0.0)
        if not inward.any():
            break
        free |= inward
        face_grad = np.where(free, grad_g_val, 0.0)
    norm = np.linalg.norm(face_grad)
    normal = face_grad / norm if norm > 0.0 else face_grad
    projector = np.diag(free.astype(float)) - np.outer(normal, normal)
    return TangentFrame(normal=normal, projector=projector, cg_flag=bool(free.all()))


# ---------------------------------------------------------------------------
# Initial guess and line search
# ---------------------------------------------------------------------------

def initial_guess(
    bbox: BoundingBox, measure, gfun, q_allow: float, tol: float = RETRACTION_TOL
) -> np.ndarray:
    """First manifold point: ray from tau_min along the measure ascent direction,
    crossing G = q_allow by ``_crossing``, as ``retract`` does."""
    direction = np.asarray(ascent_direction(measure, bbox.tau_min), dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise InitializationError("measure ascent direction vanished at tau_min")
    direction = direction / norm

    s_max = bbox.ray_length(bbox.tau_min, direction)
    if not np.isfinite(s_max) or s_max <= 0.0:
        raise InitializationError("initial ray does not enter the bounding box")
    f0 = gfun.value(bbox.tau_min) - q_allow
    if f0 >= 0.0:
        raise InitializationError(f"G(tau_min) = {f0 + q_allow} already violates "
                                  f"q_allow = {q_allow}")
    return _crossing(gfun, q_allow, bbox, bbox.tau_min, direction, s_max, f0,
                     tol, InitializationError)


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

    alpha_max = bbox.ray_length(tau, unit)
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
