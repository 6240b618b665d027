"""Worst-case performance over a tolerance box and its tolerance gradient.

G(tau) is the maximum of the surrogate over the tolerance hyperrectangle.  It
is exact for a model whose terms are each univariate: such a model is
c + sum_i f_i(mu_i), so its maximum is c plus the maximum of each f_i over the
ends and the critical points of its interval.  For any other model G comes
from deterministic multistart projected gradient ascent.  The gradient of G
with respect to the tolerances follows analytically from the maximizers that
touch the box walls.  :meth:`SurrogateWorstCase.solve` is the one route to G
for one tau or a stack of them, and picks the path from the model.
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


class SurrogateWorstCase:
    """G(tau) and its gradient for a fixed surrogate and nominal design.

    Presents the ``value``/``grad`` interface the manifold traversal expects.
    :meth:`solve` takes a stack of tau to G exactly when every term of the
    model is univariate, else by :func:`box_maximize` then :func:`grad_G` per
    row; ``value`` and ``grad`` solve each tau once as a one-row stack and
    cache G and the read-only d G / d tau together.  Thread-safety follows
    the model's: reads only, plus a cache.

    A term is univariate when its coefficients beyond L_0 are zero in all but
    at most one dimension.  A model of such terms is c + sum_i f_i(x_i) in
    the standardized coordinates x_i in [-1, 1] of its intervals: ``_coeffs``
    (d, p+1) holds the Legendre coefficients of each f_i, ``_critical_x`` and
    ``_critical_values`` (d, k) the candidate critical points of each f_i,
    padded with +inf, and the values of f_i there, padded with -inf.
    """

    def __init__(self, model: SeparatedModel, center):
        self.model = model
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (model.dim,):
            raise ValueError("center must be a 1-d vector of one number per model parameter")
        self._cache: dict[bytes, tuple[float, np.ndarray]] = {}
        varying = (model.coeffs[:, :, 1:] != 0.0).any(axis=2)  # (r, d)
        self._additive = not (varying.sum(axis=1) > 1).any()
        if not self._additive:
            return
        d, p = model.dim, model.degree
        self._constant = 0.0
        self._coeffs = np.zeros((d, p + 1))
        for scale, term, axes in zip(model.scales, model.coeffs, varying):
            if axes.any():
                i = int(np.argmax(axes))
                self._coeffs[i] += scale * np.prod(np.delete(term[:, 0], i)) * term[i]
            else:
                self._constant += scale * float(np.prod(term[:, 0]))
        # The roots of f_i' from its monomial coefficients.  The real part of every
        # root is a candidate, so a multiple root that np.roots returns with a
        # small imaginary part is kept; a candidate that is not a critical point
        # still lies in the interval, so it cannot raise the maximum.
        derivs = (self._coeffs @ _legendre_to_monomial(p))[:, 1:] * np.arange(1, p + 1)
        roots = [np.roots(row[::-1]).real for row in derivs]
        k = max(1, max(map(len, roots)))
        self._critical_x = np.full((d, k), np.inf)
        self._critical_values = np.full((d, k), -np.inf)
        for i, x in enumerate(roots):
            self._critical_x[i, :len(x)] = x
            self._critical_values[i, :len(x)] = legendre_table(x, p) @ self._coeffs[i]

    def _result(self, tau) -> BoxMaxResult:
        """The multistart's result at tau, uncached."""
        return box_maximize(self.model, ToleranceBox(center=self.center, half_widths=tau))

    def solve(self, taus) -> tuple[np.ndarray, np.ndarray]:
        """G (n,) and d G / d tau (n, d) at the rows of an (n, d) stack, uncached.

        A stack that is not (n, d), holds a tau that is not finite or a
        negative one raises ValueError, with the same text on both paths; an
        end outside the model's intervals raises it too.  On the exact path
        the maximum of each f_i is the largest of its values at the two ends
        of the box's interval and at its critical points strictly inside it.
        An end whose value is within TIE_REL_TOL |G| of its axis's maximum is
        a maximizer on that wall, and d G / d tau follows :func:`grad_G`'s rule
        over the two ends; an interior maximizer adds 0.  No reduction runs
        across rows, so a row's bits do not depend on the stack.
        """
        taus = np.asarray(taus, dtype=float)
        if taus.ndim != 2 or taus.shape[1] != self.model.dim:
            raise ValueError("taus must be an (n, d) stack of one half width per model parameter")
        if not np.isfinite(taus).all():
            raise ValueError("half widths must be finite")
        if (taus < 0.0).any():
            raise ValueError("half widths must be nonnegative")
        if not self._additive:
            results = [self._result(tau) for tau in taus]
            grads = np.array([grad_G(self.model, result.box, result) for result in results])
            return np.array([result.value for result in results]), grads.reshape(taus.shape)
        ends = _standardize(np.concatenate([self.center - taus, self.center + taus]),
                            self.model._lo, self.model._width).reshape(2, *taus.shape)  # (2, n, d)
        basis = legendre_table(ends, self.model.degree)  # (2, n, d, p+1)
        values = np.einsum("knij,ij->kni", basis, self._coeffs)
        slopes = np.einsum("knij,ij->kni", legendre_deriv_table(basis), self._coeffs) * (
            2.0 / self.model._width)
        inside = (self._critical_x > ends[0, ..., None]) & (self._critical_x < ends[1, ..., None])
        axis_max = np.maximum(values.max(axis=0),
                              np.where(inside, self._critical_values, -np.inf).max(axis=2))
        g_values = self._constant + axis_max.sum(axis=1)
        tie_tol = TIE_REL_TOL * np.maximum(np.abs(g_values), 1e-300)
        return g_values, _tau_gradient(slopes, np.array([-1.0, 1.0])[:, None, None],
                                       values >= axis_max - tie_tol[:, None], taus)

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
