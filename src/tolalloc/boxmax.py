"""Worst-case performance over a tolerance box and its tolerance gradient.

G(tau) is the maximum of the surrogate over the tolerance hyperrectangle,
computed by deterministic multistart projected gradient ascent.  The gradient
of G with respect to the tolerances follows analytically from the maximizers
that touch the box walls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .surrogate import SeparatedModel

DEDUP_REL_RADIUS = 1e-8


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

    def contains(self, mu, rel_slack: float = 0.0) -> bool:
        mu = np.asarray(mu, dtype=float)
        slack = rel_slack * np.maximum(self.half_widths, 1.0)
        return bool(
            np.all(mu >= self.lo - slack) and np.all(mu <= self.hi + slack)
        )


@dataclass
class BoxMaxConfig:
    n_multistarts: int = 8
    polish_max_iters: int = 200
    grad_step_tol: float = 1e-10
    tie_rel_tol: float = 1e-8
    wall_rel_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.grad_step_tol <= 0 or self.tie_rel_tol <= 0 or self.wall_rel_tol <= 0:
            raise ValueError("all tolerances must be positive")


@dataclass
class BoxMaxResult:
    value: float
    maximizers: np.ndarray          # (m, d), lexicographically sorted
    wall_contacts: list[list[int]]  # per axis, indices into maximizers
    box: ToleranceBox = field(repr=False, default=None)


def _starts(model: SeparatedModel, box: ToleranceBox, config: BoxMaxConfig) -> np.ndarray:
    d = box.dim
    center = box.center
    half = box.half_widths
    starts = [center]
    for i in range(d):
        if half[i] > 0.0:
            for sign in (-1.0, 1.0):
                point = center.copy()
                point[i] += sign * half[i]
                starts.append(point)
    free = np.flatnonzero(half > 0.0)
    if free.size > 0:
        if free.size <= 10:
            for signs in itertools.product((-1.0, 1.0), repeat=free.size):
                point = center.copy()
                point[free] += np.asarray(signs) * half[free]
                starts.append(point)
        else:
            grad_sign = np.sign(model.gradient(center))
            grad_sign[grad_sign == 0.0] = 1.0
            starts.append(center + grad_sign * half)
            rng = np.random.default_rng(config.seed)
            for _ in range(max(config.n_multistarts - 1, 0)):
                signs = rng.choice((-1.0, 1.0), size=d)
                starts.append(center + signs * half)
        if config.n_multistarts > 0:
            sampler = qmc.LatinHypercube(d=free.size, seed=config.seed)
            unit = sampler.random(config.n_multistarts)
            interior = np.tile(center, (config.n_multistarts, 1))
            interior[:, free] = box.lo[free] + unit * (2.0 * half[free])
            starts.extend(interior)
    return np.array(starts)


def box_maximize(
    model: SeparatedModel, box: ToleranceBox, config: BoxMaxConfig | None = None
) -> BoxMaxResult:
    """Compute G(tau) by deterministic multistart projected gradient ascent."""
    config = config or BoxMaxConfig()
    if box.dim != model.dim:
        raise ValueError("box dimension does not match model")
    half = box.half_widths
    lo, hi = box.lo, box.hi
    free = half > 0.0
    max_half = float(half.max(initial=0.0))

    points = _starts(model, box, config)
    if not free.any():
        value = model(box.center)
        return BoxMaxResult(
            value=value,
            maximizers=box.center[None, :].copy(),
            wall_contacts=[[0] for _ in range(box.dim)],
            box=box,
        )

    values = model.eval_many(points)
    grads = model.grad_many(points)
    grads[:, ~free] = 0.0
    alpha = np.full(len(points), 0.25 * max_half)
    step_floor = config.grad_step_tol * max_half
    active = np.ones(len(points), dtype=bool)
    for _ in range(config.polish_max_iters):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        gnorm = np.max(np.abs(grads[idx]), axis=1)
        stalled = gnorm == 0.0
        scale = np.where(gnorm > 0.0, gnorm, 1.0)
        candidates = np.clip(
            points[idx] + (alpha[idx] / scale)[:, None] * grads[idx], lo, hi
        )
        cand_values = model.eval_many(candidates)
        improved = cand_values > values[idx]
        moved = np.max(np.abs(candidates - points[idx]), axis=1)
        points[idx[improved]] = candidates[improved]
        values[idx[improved]] = cand_values[improved]
        alpha[idx[improved]] *= 1.5
        alpha[idx[~improved]] *= 0.3
        if improved.any():
            new_grads = model.grad_many(points[idx[improved]])
            new_grads[:, ~free] = 0.0
            grads[idx[improved]] = new_grads
        # A start whose clipped gradient step cannot move sits at a KKT point
        # of the box (every ascent component is blocked by an active wall).
        blocked = ~improved & (moved == 0.0) & ~stalled
        done = (
            stalled | blocked | (alpha[idx] < step_floor)
            | (improved & (moved < step_floor))
        )
        active[idx[done]] = False

    g_value = float(values.max())
    tie_tol = config.tie_rel_tol * max(abs(g_value), 1e-300)
    winners = points[values >= g_value - tie_tol]

    # Deduplicate at a radius relative to the box diagonal, then sort so the
    # result is deterministic regardless of multistart scheduling.
    diag = float(np.linalg.norm(2.0 * half))
    radius = DEDUP_REL_RADIUS * (diag if diag > 0.0 else 1.0)
    order = np.lexsort(winners.T[::-1])
    winners = winners[order]
    kept: list[np.ndarray] = []
    for point in winners:
        if all(np.linalg.norm(point - other) > radius for other in kept):
            kept.append(point)
    maximizers = np.array(kept)

    wall_contacts: list[list[int]] = []
    for i in range(box.dim):
        if half[i] == 0.0:
            wall_contacts.append(list(range(len(maximizers))))
            continue
        threshold = half[i] * (1.0 - config.wall_rel_tol)
        contacts = [
            k for k, point in enumerate(maximizers)
            if abs(point[i] - box.center[i]) >= threshold
        ]
        wall_contacts.append(contacts)

    return BoxMaxResult(value=g_value, maximizers=maximizers, wall_contacts=wall_contacts, box=box)


def grad_G(model: SeparatedModel, box: ToleranceBox, result: BoxMaxResult) -> np.ndarray:
    """Analytic d G / d tau from the wall-contacting maximizers.

    For a degenerate axis (tau_i = 0) the box can grow to either side, so the
    one-sided derivative is the absolute partial of the surrogate there.
    """
    if result.box is not box and (result.box is None or not (
        np.array_equal(result.box.center, box.center)
        and np.array_equal(result.box.half_widths, box.half_widths)
    )):
        raise ValueError("result was not produced for this box")
    out = np.zeros(box.dim)
    if len(result.maximizers) == 0:
        return out
    grads = model.grad_many(result.maximizers)
    for i in range(box.dim):
        contacts = result.wall_contacts[i]
        if not contacts:
            continue
        best = 0.0
        for k in contacts:
            if box.half_widths[i] == 0.0:
                slope = abs(grads[k, i])
            else:
                sign = np.sign(result.maximizers[k, i] - box.center[i])
                slope = max(grads[k, i] * sign, 0.0)
            best = max(best, slope)
        out[i] = best
    return out


class SurrogateWorstCase:
    """G(tau) and its gradient for a fixed surrogate and nominal design.

    Presents the ``value``/``grad`` interface the manifold traversal expects.
    Thread-safety follows the model's: reads only, plus a per-instance cache.
    """

    def __init__(self, model: SeparatedModel, center, config: BoxMaxConfig | None = None):
        self.model = model
        self.center = np.asarray(center, dtype=float)
        self.config = config or BoxMaxConfig()
        self._cache: dict[bytes, BoxMaxResult] = {}

    @property
    def dim(self) -> int:
        return self.center.size

    def _result(self, tau: np.ndarray) -> BoxMaxResult:
        key = tau.tobytes()
        result = self._cache.get(key)
        if result is None:
            box = ToleranceBox(center=self.center, half_widths=tau)
            result = box_maximize(self.model, box, self.config)
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = result
        return result

    def value(self, tau) -> float:
        return self._result(np.asarray(tau, dtype=float)).value

    def grad(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        result = self._result(tau)
        return grad_G(self.model, result.box, result)


class AnalyticWorstCase:
    """Closed-form G(tau) wrapper used for benchmarks and tests."""

    def __init__(self, value_fn, grad_fn):
        self._value = value_fn
        self._grad = grad_fn

    def value(self, tau) -> float:
        return float(self._value(np.asarray(tau, dtype=float)))

    def grad(self, tau) -> np.ndarray:
        return np.asarray(self._grad(np.asarray(tau, dtype=float)), dtype=float)
