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
from dataclasses import dataclass, field

import numpy as np

from .surrogate import SeparatedModel, _standardize, legendre_deriv_table, legendre_table

# Multistart schedule and stopping rules of box_maximize.  The tolerances are
# relative to the largest half-width (step), the best value (tie) and each
# half-width (wall contact).
N_MULTISTARTS = 8
POLISH_MAX_ITERS = 200
GRAD_STEP_TOL = 1e-10
TIE_REL_TOL = 1e-8
WALL_REL_TOL = 1e-8
START_SEED = 0


@dataclass(frozen=True)
class ToleranceBox:
    """Hyperrectangle |mu_i - center_i| <= half_widths_i."""

    center: np.ndarray
    half_widths: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        half = np.asarray(self.half_widths, dtype=float)
        if center.shape != half.shape or center.ndim != 1:
            raise ValueError("center and half_widths must be 1-d vectors of equal length")
        if np.any(half < 0.0):
            raise ValueError("half widths must be nonnegative")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_widths", half)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.half_widths

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.half_widths


@dataclass
class BoxMaxResult:
    value: float
    # (m, d): every point that ties for the value, each once (rows are merged
    # only when exactly equal), lexicographically sorted.
    maximizers: np.ndarray
    wall_contacts: np.ndarray  # (m, d) bool: maximizer k touches a wall of axis i
    box: ToleranceBox = field(repr=False)


def latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """n points of a scrambled Latin hypercube in [0, 1)^d: the arithmetic and
    draws of ``scipy.stats.qmc.LatinHypercube(d=d, seed=seed).random(n)``."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - offsets) / n


@functools.lru_cache(maxsize=256)
def _start_pattern(d: int, free: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The multistart's geometry for a box of dimension ``d`` whose half-widths
    are positive on the axes ``free``: sign rows for the center, the two faces
    of each free axis and the corners, and the unit Latin-hypercube offsets of
    the interior starts (zero on the fixed axes).  Above 10 free axes the
    corners are a gradient-sign row, left zero here for the caller to fill,
    and N_MULTISTARTS - 1 seeded random sign rows.  Read-only, as the cache
    hands the same arrays to every caller."""
    rows = [np.zeros(d)]
    for i in free:
        for sign in (-1.0, 1.0):
            row = np.zeros(d)
            row[i] = sign
            rows.append(row)
    axes = list(free)
    if len(free) <= 10:
        for signs in itertools.product((-1.0, 1.0), repeat=len(free)):
            row = np.zeros(d)
            row[axes] = signs
            rows.append(row)
    else:
        rows.append(np.zeros(d))
        rng = np.random.default_rng(START_SEED)
        for _ in range(N_MULTISTARTS - 1):
            rows.append(rng.choice((-1.0, 1.0), size=d))
    unit = np.zeros((N_MULTISTARTS, d))
    unit[:, axes] = latin_hypercube(N_MULTISTARTS, len(free), START_SEED)
    signs = np.array(rows)
    signs.setflags(write=False)
    unit.setflags(write=False)
    return signs, unit


def _starts(model: SeparatedModel, box: ToleranceBox) -> np.ndarray:
    """Multistart points of a box with at least one positive half-width: the
    center, the faces, the corners and N_MULTISTARTS interior points."""
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
    if not (half > 0.0).any():
        value = model(box.center)
        return BoxMaxResult(
            value=value,
            maximizers=box.center[None, :].copy(),
            wall_contacts=np.ones((1, box.dim), dtype=bool),
            box=box,
        )
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
                         np.sign(result.maximizers - box.center), result.wall_contacts, box)


def _tau_gradient(partials, sides, contacts, box: ToleranceBox) -> np.ndarray:
    """:func:`grad_G`'s rule over (k, d) candidates, given the surrogate's
    partials there, each one's side of the center and its wall contacts."""
    slopes = np.where(box.half_widths == 0.0, np.abs(partials),
                      np.maximum(partials * sides, 0.0))
    return np.where(contacts, slopes, 0.0).max(axis=0)


@dataclass(frozen=True)
class AdditiveModel:
    """A surrogate whose terms are each univariate, c + sum_i f_i(x_i), in the
    standardized coordinates x_i in [-1, 1] of its intervals."""

    constant: float
    coeffs: np.ndarray  # (d, p+1): the Legendre coefficients of each f_i
    # (d, k): candidate critical points of each f_i, padded with +inf, and the
    # values of f_i there, padded with -inf.
    critical_x: np.ndarray
    critical_values: np.ndarray
    lo: np.ndarray
    width: np.ndarray


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


def additive_worst_case(split: AdditiveModel, box: ToleranceBox) -> tuple[float, np.ndarray]:
    """G and d G / d tau of an additive model over a box, exactly.

    The maximum of each f_i is the largest of its values at the two ends of
    the box's interval and at its critical points strictly inside it.  An end
    whose value is within TIE_REL_TOL |G| of its axis's maximum is a
    maximizer on that wall, and d G / d tau follows :func:`grad_G`'s rule over
    the two ends; an interior maximizer adds 0.  An end outside the model's
    intervals raises ValueError.
    """
    if box.dim != split.coeffs.shape[0]:
        raise ValueError("box dimension does not match model")
    ends = _standardize(np.stack([box.lo, box.hi]), split.lo, split.width)  # (2, d)
    basis = legendre_table(ends, split.coeffs.shape[1] - 1)  # (2, d, p+1)
    values = np.einsum("kij,ij->ki", basis, split.coeffs)
    slopes = np.einsum("kij,ij->ki", legendre_deriv_table(basis), split.coeffs) * (
        2.0 / split.width)
    inside = (split.critical_x > ends[0, :, None]) & (split.critical_x < ends[1, :, None])
    axis_max = np.maximum(values.max(axis=0),
                          np.where(inside, split.critical_values, -np.inf).max(axis=1))
    g_value = split.constant + float(axis_max.sum())
    tie_tol = TIE_REL_TOL * max(abs(g_value), 1e-300)
    return g_value, _tau_gradient(slopes, np.array([[-1.0], [1.0]]),
                                  values >= axis_max - tie_tol, box)


class SurrogateWorstCase:
    """G(tau) and its gradient for a fixed surrogate and nominal design.

    Presents the ``value``/``grad`` interface the manifold traversal expects.
    Each tau is solved once, by :func:`additive_worst_case` when every term of
    the model is univariate and else by :func:`box_maximize` then
    :func:`grad_G`; on both paths G and the read-only d G / d tau are cached
    together.  Thread-safety follows the model's: reads only, plus a cache.
    """

    def __init__(self, model: SeparatedModel, center):
        self.model = model
        self.center = np.asarray(center, dtype=float)
        self._additive = additive_split(model)
        self._cache: dict[bytes, tuple[float, np.ndarray]] = {}

    def _result(self, tau) -> BoxMaxResult:
        """The multistart's result at tau, uncached."""
        return box_maximize(self.model, ToleranceBox(center=self.center, half_widths=tau))

    def _solve(self, tau) -> tuple[float, np.ndarray]:
        key = np.asarray(tau, dtype=float).tobytes()
        solved = self._cache.get(key)
        if solved is None:
            if self._additive is None:
                result = self._result(tau)
                solved = result.value, grad_G(self.model, result.box, result)
            else:
                solved = additive_worst_case(
                    self._additive, ToleranceBox(center=self.center, half_widths=tau))
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
