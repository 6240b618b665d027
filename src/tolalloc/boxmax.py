"""Worst-case performance over a tolerance box and its tolerance gradient.

G(tau) is the maximum of the surrogate over the tolerance hyperrectangle.  It
is exact for a model whose terms are each univariate: such a model is
c + sum_i f_i(mu_i), so its maximum is c plus the maximum of each f_i over the
ends and the critical points of its interval.  For any other model G comes
from deterministic multistart projected gradient ascent.  The gradient of G
with respect to the tolerances follows analytically from the maximizers that
touch the box walls.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .surrogate import SeparatedModel, _standardize, _uniform, legendre_deriv_table, legendre_table

# Multistart schedule and stopping rules of box_maximize.  The tolerances are
# relative to the largest half-width (step), the best value (tie) and each
# half-width (wall contact).
N_MULTISTARTS = 8
POLISH_MAX_ITERS = 200
GRAD_STEP_TOL = 1e-10
TIE_REL_TOL = 1e-8
WALL_REL_TOL = 1e-8
START_SEED = 0


class ToleranceBox:
    """Hyperrectangle |mu_i - center_i| <= half_widths_i."""

    def __init__(self, center, half_widths):
        center = np.asarray(center, dtype=float)
        half = np.asarray(half_widths, dtype=float)
        if center.shape != half.shape or center.ndim != 1:
            raise ValueError("center and half_widths must be 1-d vectors of equal length")
        if not np.all(np.isfinite(center) & (0.0 <= half) & (half < np.inf)):
            raise ValueError("center must be finite, half widths finite and nonnegative")
        self.center, self.half_widths = center, half

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.half_widths

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.half_widths


class BoxMaxResult:
    """The maximum ``value`` over ``box``.  ``maximizers`` (m, d) holds every
    point that ties for it, each once (rows are merged only when exactly
    equal), lexicographically sorted; ``wall_contacts`` (m, d) is true where
    maximizer k touches a wall of axis i."""

    def __init__(self, value: float, maximizers: np.ndarray, wall_contacts: np.ndarray,
                 box: ToleranceBox):
        self.value, self.maximizers, self.wall_contacts, self.box = (
            value, maximizers, wall_contacts, box)


@functools.lru_cache(maxsize=256)
def _start_pattern(d: int, free: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The multistart's geometry for a box of dimension ``d`` whose half-widths
    are positive on the axes ``free``: sign rows for the center, the two faces
    of each free axis and the corners, and the unit offsets of the interior
    starts (zero on the fixed axes).  Above 10 free axes the corners are a
    gradient-sign row, left zero here for the caller to fill, and
    N_MULTISTARTS - 1 seeded sign rows.  The interior starts are a Latin
    hypercube: on each free axis a permutation of the N_MULTISTARTS strata and
    an offset within each.  Every draw is a distinct output of one
    SplitMix64 table.  Read-only, as the cache hands the same arrays to every
    caller."""
    k, n = len(free), N_MULTISTARTS
    draws = _uniform(START_SEED, (3 * n - 1, k))
    if k <= 10:
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=k))).reshape(2**k, k)
    else:
        corners = np.vstack([np.zeros(k), np.where(draws[2 * n:] < 0.5, -1.0, 1.0)])
    faces = np.kron(np.eye(k), [[-1.0], [1.0]])
    signs = np.zeros((1 + 2 * k + len(corners), d))
    signs[1:, list(free)] = np.vstack([faces, corners])
    unit = np.zeros((n, d))
    unit[:, list(free)] = (draws[:n].argsort(axis=0) + draws[n:2 * n]) / n
    signs.setflags(write=False)
    unit.setflags(write=False)
    return signs, unit


def _starts(model: SeparatedModel, box: ToleranceBox) -> np.ndarray:
    """Multistart points of a box: the center, the faces and corners of its
    free axes and N_MULTISTARTS interior points, all the center if none is free."""
    half = box.half_widths
    free = np.flatnonzero(half > 0.0)
    signs, unit = _start_pattern(box.dim, tuple(free.tolist()))
    boundary = box.center + signs * half
    if free.size > 10:
        grad_sign = np.sign(model.gradient(box.center))
        grad_sign[grad_sign == 0.0] = 1.0
        boundary[1 + 2 * free.size] = box.center + grad_sign * half
    return np.concatenate([boundary, box.lo + unit * (2.0 * half)])


def _project(points: np.ndarray, grads: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Zero the gradient components that push through a wall the point
    touches, so the step is scaled by the components that can move it.  A
    fixed axis (lo = hi) is a wall on both sides."""
    blocked = ((points >= hi) & (grads > 0.0)) | ((points <= lo) & (grads < 0.0))
    grads[blocked] = 0.0
    return grads


def box_maximize(model: SeparatedModel, box: ToleranceBox) -> BoxMaxResult:
    """Compute G(tau) by deterministic multistart projected gradient ascent."""
    if box.dim != model.dim:
        raise ValueError("box dimension does not match model")
    half = box.half_widths
    lo, hi = box.lo, box.hi
    max_half = float(half.max())

    points = _starts(model, box)
    values, grads = model.eval_grad_many(points)
    grads = _project(points, grads, lo, hi)
    alpha = np.full(len(points), 0.25 * max_half)
    step_floor = GRAD_STEP_TOL * max_half
    active = np.ones(len(points), dtype=bool)
    for _ in range(POLISH_MAX_ITERS):
        # A start whose projected gradient vanishes sits at a KKT point of the
        # box: every ascent component is zero or blocked by an active wall.
        gnorm = np.max(np.abs(grads), axis=1)
        active &= gnorm > 0.0
        if not active.any():
            break
        idx = np.flatnonzero(active)
        candidates = np.clip(
            points[idx] + (alpha[idx] / gnorm[idx])[:, None] * grads[idx], lo, hi
        )
        cand_values, cand_grads = model.eval_grad_many(candidates)
        improved = cand_values > values[idx]
        moved = np.max(np.abs(candidates - points[idx]), axis=1)
        up, accepted = idx[improved], candidates[improved]
        points[up] = accepted
        values[up] = cand_values[improved]
        grads[up] = _project(accepted, cand_grads[improved], lo, hi)
        alpha[up] *= 1.5
        alpha[idx[~improved]] *= 0.3
        # A step below the point's floating-point resolution cannot move it.
        blocked = ~improved & (moved == 0.0)
        done = blocked | (alpha[idx] < step_floor) | (improved & (moved < step_floor))
        active[idx[done]] = False

    g_value = float(values.max())
    tie_tol = TIE_REL_TOL * max(abs(g_value), 1e-300)
    winners = points[values >= g_value - tie_tol]

    # Sort so the result is deterministic regardless of multistart
    # scheduling, then keep each row that differs from the one before it.
    winners = winners[np.lexsort(winners.T[::-1])]
    distinct = np.ones(len(winners), dtype=bool)
    distinct[1:] = (winners[1:] != winners[:-1]).any(axis=1)
    maximizers = winners[distinct]

    # A fixed axis (half-width 0) has threshold 0, so every maximizer is on
    # its wall.
    wall_contacts = np.abs(maximizers - box.center) >= half * (1.0 - WALL_REL_TOL)
    return BoxMaxResult(value=g_value, maximizers=maximizers, wall_contacts=wall_contacts, box=box)


def grad_G(model: SeparatedModel, box: ToleranceBox, result: BoxMaxResult) -> np.ndarray:
    """Analytic d G / d tau from the wall-contacting maximizers.

    d G / d tau_i is the largest outward partial of the surrogate over the
    maximizers on a wall of axis i, clamped at 0, and 0 when none is.  For a
    degenerate axis (tau_i = 0) the box can grow to either side, so the
    outward partial is the absolute partial of the surrogate there.
    """
    if result.box is not box and not (
        np.array_equal(result.box.center, box.center)
        and np.array_equal(result.box.half_widths, box.half_widths)
    ):
        raise ValueError("result was not produced for this box")
    return _tau_gradient(model.grad_many(result.maximizers),
                         np.sign(result.maximizers - box.center), result.wall_contacts,
                         box.half_widths)


def _tau_gradient(partials, sides, contacts, half_widths) -> np.ndarray:
    """:func:`grad_G`'s rule over k candidates along the first axis, given the
    surrogate's partials there, each one's side of the center, its wall
    contacts and the half-widths, broadcast over (k, d) or (k, n, d)."""
    slopes = np.where(half_widths == 0.0, np.abs(partials), np.maximum(partials * sides, 0.0))
    return np.where(contacts, slopes, 0.0).max(axis=0)


class AdditiveModel:
    """A surrogate whose terms are each univariate, c + sum_i f_i(x_i), in the
    standardized coordinates x_i in [-1, 1] of its intervals.  ``coeffs``
    (d, p+1) holds the Legendre coefficients of each f_i; ``critical_x`` and
    ``critical_values`` (d, k) the candidate critical points of each f_i,
    padded with +inf, and the values of f_i there, padded with -inf."""

    def __init__(self, constant: float, coeffs: np.ndarray, critical_x: np.ndarray,
                 critical_values: np.ndarray, lo: np.ndarray, width: np.ndarray):
        self.constant, self.coeffs, self.lo, self.width = constant, coeffs, lo, width
        self.critical_x, self.critical_values = critical_x, critical_values


def _legendre_to_monomial(degree: int) -> np.ndarray:
    """(p+1, p+1) matrix whose row j holds the monomial coefficients of L_j,
    lowest power first, by the three-term recurrence."""
    out = np.zeros((degree + 1, degree + 1))
    out[0, 0] = 1.0
    if degree >= 1:
        out[1, 1] = 1.0
    for j in range(1, degree):
        out[j + 1, 1:] = (2 * j + 1) * out[j, :-1]
        out[j + 1] = (out[j + 1] - j * out[j - 1]) / (j + 1)
    return out


def additive_split(model: SeparatedModel) -> AdditiveModel | None:
    """The model as c + sum_i f_i(x_i), or None when one of its terms is not
    univariate.  A term is univariate when its coefficients beyond L_0 are
    zero in all but at most one dimension."""
    varying = (model.coeffs[:, :, 1:] != 0.0).any(axis=2)  # (r, d)
    if (varying.sum(axis=1) > 1).any():
        return None
    d, p = model.dim, model.degree
    constant = 0.0
    coeffs = np.zeros((d, p + 1))
    for scale, term, axes in zip(model.scales, model.coeffs, varying):
        if axes.any():
            i = int(np.argmax(axes))
            coeffs[i] += scale * np.prod(np.delete(term[:, 0], i)) * term[i]
        else:
            constant += scale * float(np.prod(term[:, 0]))
    # The roots of f_i' from its monomial coefficients.  The real part of every
    # root is a candidate, so a multiple root that np.roots returns with a
    # small imaginary part is kept; a candidate that is not a critical point
    # still lies in the interval, so it cannot raise the maximum.
    derivs = (coeffs @ _legendre_to_monomial(p))[:, 1:] * np.arange(1, p + 1)
    roots = [np.roots(row[::-1]).real for row in derivs]
    k = max(1, max(map(len, roots)))
    critical_x = np.full((d, k), np.inf)
    critical_values = np.full((d, k), -np.inf)
    for i, x in enumerate(roots):
        critical_x[i, :len(x)] = x
        critical_values[i, :len(x)] = legendre_table(x, p) @ coeffs[i]
    return AdditiveModel(constant=constant, coeffs=coeffs, critical_x=critical_x,
                         critical_values=critical_values,
                         lo=np.array([iv.lo for iv in model.intervals]),
                         width=np.array([iv.width for iv in model.intervals]))


def additive_worst_case(split: AdditiveModel, center, taus) -> tuple[np.ndarray, np.ndarray]:
    """G (n,) and d G / d tau (n, d) of an additive model over the boxes of
    half-widths ``taus`` (n, d) about ``center``, exactly.

    The maximum of each f_i is the largest of its values at the two ends of
    the box's interval and at its critical points strictly inside it.  An end
    whose value is within TIE_REL_TOL |G| of its axis's maximum is a
    maximizer on that wall, and d G / d tau follows :func:`grad_G`'s rule over
    the two ends; an interior maximizer adds 0.  A negative tau, a width not
    the model's or an end outside its intervals raises ValueError.  No
    reduction runs across rows, so a row's bits do not depend on the stack.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 2 or taus.shape[1] != split.coeffs.shape[0]:
        raise ValueError("box dimension does not match model")
    if (taus < 0.0).any():
        raise ValueError("half widths must be nonnegative")
    ends = _standardize(np.concatenate([center - taus, center + taus]), split.lo,
                        split.width).reshape(2, *taus.shape)  # (2, n, d)
    basis = legendre_table(ends, split.coeffs.shape[1] - 1)  # (2, n, d, p+1)
    values = np.einsum("knij,ij->kni", basis, split.coeffs)
    slopes = np.einsum("knij,ij->kni", legendre_deriv_table(basis), split.coeffs) * (
        2.0 / split.width)
    inside = (split.critical_x > ends[0, :, :, None]) & (split.critical_x < ends[1, :, :, None])
    axis_max = np.maximum(values.max(axis=0),
                          np.where(inside, split.critical_values, -np.inf).max(axis=2))
    g_values = split.constant + axis_max.sum(axis=1)
    tie_tol = TIE_REL_TOL * np.maximum(np.abs(g_values), 1e-300)
    return g_values, _tau_gradient(slopes, np.array([-1.0, 1.0])[:, None, None],
                                   values >= axis_max - tie_tol[:, None], taus)


class SurrogateWorstCase:
    """G(tau) and its gradient for a fixed surrogate and nominal design.

    Presents the ``value``/``grad`` interface the manifold traversal expects.
    :meth:`solve` takes a stack of tau to G by :func:`additive_worst_case`
    when every term of the model is univariate, else by :func:`box_maximize`
    then :func:`grad_G` per row; ``value`` and ``grad`` solve each tau once as
    a one-row stack and cache G and the read-only d G / d tau together.
    Thread-safety follows the model's: reads only, plus a cache.
    """

    def __init__(self, model: SeparatedModel, center):
        self.model = model
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (model.dim,):
            raise ValueError("center must be a 1-d vector of one number per model parameter")
        self._additive = additive_split(model)
        self._cache: dict[bytes, tuple[float, np.ndarray]] = {}

    def _result(self, tau) -> BoxMaxResult:
        """The multistart's result at tau, uncached."""
        return box_maximize(self.model, ToleranceBox(center=self.center, half_widths=tau))

    def solve(self, taus) -> tuple[np.ndarray, np.ndarray]:
        """G (n,) and d G / d tau (n, d) at the rows of an (n, d) stack, uncached."""
        if self._additive is not None:
            return additive_worst_case(self._additive, self.center, taus)
        results = [self._result(tau) for tau in taus]
        return (np.array([result.value for result in results]),
                np.array([grad_G(self.model, result.box, result) for result in results]))

    def _solve(self, tau) -> tuple[float, np.ndarray]:
        key = np.asarray(tau, dtype=float).tobytes()
        solved = self._cache.get(key)
        if solved is None:
            values, grads = self.solve(np.asarray(tau, dtype=float)[None])
            solved = float(values[0]), grads[0]
            solved[1].setflags(write=False)
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = solved
        return solved

    def value(self, tau) -> float:
        return self._solve(tau)[0]

    def grad(self, tau) -> np.ndarray:
        return self._solve(tau)[1]


class AnalyticWorstCase:
    """Closed-form G(tau) wrapper used for tests."""

    def __init__(self, value_fn, grad_fn):
        self._value = value_fn
        self._grad = grad_fn

    def value(self, tau) -> float:
        return float(self._value(np.asarray(tau, dtype=float)))

    def grad(self, tau) -> np.ndarray:
        return np.asarray(self._grad(np.asarray(tau, dtype=float)), dtype=float)
