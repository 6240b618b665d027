"""Low-rank separated polynomial surrogates fitted by alternating least squares.

A model approximates a scalar function of ``d`` design parameters as a rank-r
sum of products of univariate Legendre expansions, one factor per dimension.
Each dimension carries its own interval; inputs are mapped affinely onto
[-1, 1] before the Legendre basis is evaluated.  ``tolalloc.files`` holds its I/O.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .files import Interval, _integer, _number_array, write_model

# Relative interval overshoot that is silently clamped when a point is
# evaluated or fitted (optimizers probing box edges land here through round-off).
EXTRAPOLATION_SLACK = 1e-9


class NumericError(RuntimeError):
    """Base of the numeric failures of every module: the CLI exits 3 on one."""


class FitError(NumericError):
    """Raised when an ALS fit cannot proceed (singular system, bad inputs)."""


# ---------------------------------------------------------------------------
# Seeded draws and coordinate standardization
# ---------------------------------------------------------------------------

def _uniform(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Doubles in [0, 1) that fill ``shape`` in C order: output k is the top 53
    bits of SplitMix64's (k + 1)-th output from state ``seed`` (Steele, Lea and
    Flood, OOPSLA 2014), times 2**-53.  The uint64 arithmetic wraps mod 2**64."""
    z = np.uint64(seed) + np.arange(1, math.prod(shape) + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return ((z ^ z >> 31) >> 11).reshape(shape) * 2.0 ** -53


def _standardize(points: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Map (N, d) points affinely onto [-1, 1] per dimension, lo -> -1 and
    lo + width -> +1.  An overshoot of at most 2 EXTRAPOLATION_SLACK is
    clamped; a larger one, or a NaN coordinate, raises ValueError naming the
    first dimension at fault."""
    x = 2.0 * (points - lo) / width - 1.0
    overshoot = np.abs(x) - 1.0
    outside = ~(overshoot <= 2.0 * EXTRAPOLATION_SLACK)  # NaN counts as outside
    if outside.any():
        i = int(np.flatnonzero(outside.any(axis=0))[0])
        raise ValueError(f"points fall outside interval for dimension {i} "
                         f"(overshoot {float(np.max(overshoot[:, i])):.3e})")
    return np.clip(x, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Legendre basis
# ---------------------------------------------------------------------------

def legendre_table(x, degree: int) -> np.ndarray:
    """Values L_0(x)..L_degree(x) by the three-term recurrence.

    Returns an array of shape ``x.shape + (degree + 1,)``.  ``x`` lies in
    [-1, 1]: the model passes it through :func:`_standardize`, which clips.
    """
    x = np.asarray(x, dtype=float)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = np.empty(x.shape + (degree + 1,))
    out[..., 0] = 1.0
    if degree >= 1:
        out[..., 1] = x
    for j in range(1, degree):
        out[..., j + 1] = ((2 * j + 1) * x * out[..., j] - j * out[..., j - 1]) / (j + 1)
    return out


def legendre_deriv_table(vals: np.ndarray) -> np.ndarray:
    """Derivatives L_0'..L_p' from a values table of :func:`legendre_table`,
    via L'_{j+1} = L'_{j-1} + (2j+1) L_j."""
    degree = vals.shape[-1] - 1
    out = np.zeros_like(vals)
    if degree >= 1:
        out[..., 1] = 1.0
    for j in range(1, degree):
        out[..., j + 1] = out[..., j - 1] + (2 * j + 1) * vals[..., j]
    return out


def _factors(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Factors (r, n, d) of coeffs (r, d, p+1) on a Legendre table (n, d, p+1)."""
    return np.einsum("lij,nij->lni", coeffs, basis)


def _rank_sum(scales: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_l scales[l] terms[l], added one rank term at a time in rank order,
    so each output element's bits do not depend on the rest of the batch."""
    return functools.reduce(np.add, map(np.multiply, scales, terms))


# ---------------------------------------------------------------------------
# Separated model
# ---------------------------------------------------------------------------

class SeparatedModel:
    """Rank-r tensor-product Legendre surrogate.

    ``coeffs`` has shape (rank, dim, degree + 1); ``scales`` has shape (rank,).
    Its arrays are read-only and no method changes an attribute, so instances
    are safe for concurrent reads.
    """

    def __init__(self, dim: int, rank: int, degree: int, intervals: tuple[Interval, ...],
                 scales, coeffs):
        if dim < 1 or rank < 1 or degree < 0:
            raise ValueError("dim and rank must be positive, degree nonnegative")
        if len(intervals) != dim:
            raise ValueError("need one interval per dimension")
        scales = np.asarray(scales, dtype=float)
        coeffs = np.asarray(coeffs, dtype=float)
        if scales.shape != (rank,):
            raise ValueError(f"scales must have shape ({rank},)")
        if coeffs.shape != (rank, dim, degree + 1):
            raise ValueError(f"coeffs must have shape ({rank}, {dim}, {degree + 1})")
        if not (np.all(np.isfinite(scales)) and np.all(np.isfinite(coeffs))):
            raise ValueError("model coefficients must be finite")
        self.dim, self.rank, self.degree = dim, rank, degree
        self.intervals = tuple(intervals)
        self.scales, self.coeffs = scales, coeffs
        self._lo = np.array([iv.lo for iv in self.intervals])
        self._width = np.array([iv.width for iv in self.intervals])
        for array in (self.scales, self.coeffs, self._lo, self._width):
            array.setflags(write=False)

    def _basis_factors(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Legendre table (N, d, p+1), over dimension-major memory as in
        :func:`als_fit`, and factors (r, N, d) at (N, dim) points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim}-dimensional points, got {pts.shape[1]}")
        std = _standardize(pts, self._lo, self._width)
        basis = legendre_table(std.T, self.degree).transpose(1, 0, 2)
        return basis, _factors(self.coeffs, basis)

    def eval_many(self, points) -> np.ndarray:
        """Evaluate the surrogate at an (N, dim) array of design points."""
        _, factors = self._basis_factors(points)
        return _rank_sum(self.scales, factors.prod(axis=2))

    def __call__(self, mu) -> float:
        return float(self.eval_many(np.asarray(mu, dtype=float)[None, :])[0])

    def eval_grad_many(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Values (N,) and analytic gradients (N, dim) at an (N, dim) array of
        points, from one standardization and one Legendre table.  Each output
        equals what :meth:`eval_many` and :meth:`grad_many` return, bit for bit."""
        basis, factors = self._basis_factors(points)
        dfactors = _factors(self.coeffs, legendre_deriv_table(basis))
        d = self.dim
        others = np.empty_like(factors)
        for i in range(d):
            mask = np.arange(d) != i
            others[:, :, i] = factors[:, :, mask].prod(axis=2)
        return (_rank_sum(self.scales, factors.prod(axis=2)),
                _rank_sum(self.scales, dfactors * others) * (2.0 / self._width))

    def grad_many(self, points) -> np.ndarray:
        """Analytic gradient at an (N, dim) array of points; shape (N, dim)."""
        return self.eval_grad_many(points)[1]

    def gradient(self, mu) -> np.ndarray:
        return self.grad_many(np.asarray(mu, dtype=float)[None, :])[0]

    def save(self, path) -> None:
        """Write the model file at ``path`` by :func:`tolalloc.files.write_model`."""
        write_model(path, self)


# ---------------------------------------------------------------------------
# ALS fitting
# ---------------------------------------------------------------------------

class SampleSet:
    """Paired design points (N, dim) and performance values (N,); ``csv_text``
    holds their sample-file rows where the sampler rendered them, else None."""

    def __init__(self, points, values, csv_text: str | None = None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.asarray(values, dtype=float).ravel()
        if points.shape[0] != values.shape[0]:
            raise ValueError("points and values must have equal length")
        if points.shape[0] < 1:
            raise ValueError("need at least one sample")
        self.points, self.values, self.csv_text = points, values, csv_text

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


# Sweep schedule of als_fit: at most MAX_SWEEPS sweeps per rank, a rank ends
# when a sweep changes the relative residual by at most SWEEP_STALL_TOL of
# itself, and every normal matrix gets the Tikhonov term REGULARIZATION times
# the mean squared sample value on its diagonal.
MAX_SWEEPS = 200
SWEEP_STALL_TOL = 1e-6
REGULARIZATION = 1e-10


class FitConfig:
    """ALS settings, one per slot: the keys of a config's ``fit`` object.
    ``seed`` has no effect: the fit draws nothing.  It is still accepted so
    that callers which pass it keep working."""

    __slots__ = ("target_rank", "degree", "rel_residual_tol")

    def __init__(self, target_rank: int, degree: int, rel_residual_tol: float = 1e-8,
                 seed: int = 0):
        _integer(target_rank, "target_rank", 1)
        _integer(degree, "degree", 0)
        tol = _number_array(rel_residual_tol, "rel_residual_tol")
        if tol.ndim or not tol > 0:
            raise ValueError(f"rel_residual_tol must be a finite number > 0, "
                             f"got {rel_residual_tol!r}")
        self.target_rank, self.degree = target_rank, degree
        self.rel_residual_tol = rel_residual_tol


class FitReport:
    """What a fit did; ``additive_residual`` is the relative residual of the
    additive start alone, None without one."""

    def __init__(self, final_rank: int, sweeps_used: int, residual_history: list[float],
                 converged: bool, additive_residual: float | None):
        self.final_rank, self.sweeps_used, self.converged = final_rank, sweeps_used, converged
        self.residual_history, self.additive_residual = residual_history, additive_residual


def _normalize(scales: np.ndarray, coeffs: np.ndarray) -> None:
    """Scale every factor to unit coefficient 2-norm, absorbing into scales."""
    norms = np.linalg.norm(coeffs, axis=2)  # (r, d)
    norms = np.where(norms > 0.0, norms, 1.0)
    coeffs /= norms[:, :, None]
    scales *= norms.prod(axis=1)


def _ridge_solve(design: np.ndarray, q: np.ndarray, lam: float, where: str) -> np.ndarray:
    """theta minimizing |design theta - q|^2 + lam |theta|^2 by the normal
    equations; a FitError names ``where`` if they are singular or theta not finite."""
    gram = design.T @ design
    gram.flat[:: design.shape[1] + 1] += lam
    try:
        theta = np.linalg.solve(gram, design.T @ q)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular system {where}") from exc
    if not np.all(np.isfinite(theta)):
        raise FitError(f"non-finite solution {where}")
    return theta


def _additive_start(basis: np.ndarray, q: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Scales (d,) and coeffs (d, d, p+1) of c + sum_i f_i(x_i) fitted by one
    regularized solve over the constant and the L_1..L_p columns of every
    dimension.  Term i holds f_i in dimension i and L_0 in every other; the
    constant goes into term 0."""
    n, d, p1 = basis.shape
    design = np.concatenate([np.ones((n, 1)), basis[:, :, 1:].reshape(n, -1)], axis=1)
    theta = _ridge_solve(design, q, lam, "in the additive start")
    coeffs = np.zeros((d, d, p1))
    coeffs[:, :, 0] = 1.0
    own = np.arange(d)
    coeffs[own, own, 0] = 0.0
    coeffs[own, own, 1:] = theta[1:].reshape(d, p1 - 1)
    coeffs[0, 0, 0] = theta[0]
    scales = np.ones(d)
    _normalize(scales, coeffs)
    return scales, coeffs


def als_fit(
    samples: SampleSet,
    config: FitConfig,
    intervals: list[Interval] | tuple[Interval, ...],
) -> tuple[SeparatedModel, FitReport]:
    """Fit a separated model by cyclic per-dimension linear least squares.

    When ``target_rank >= d`` the fit starts from the additive part
    c + sum_i f_i(mu_i), fitted by one linear solve and stored as d rank-1
    terms; its residual is the first entry of ``residual_history``, and if it
    already meets ``rel_residual_tol`` no sweep runs (``sweeps_used`` is 0).
    When ``target_rank < d`` the fit starts from one term prod_i (1 + x_i),
    coefficient 1 on L_0 and L_1 in every standardized dimension (L_0 alone at
    degree 0).  Within a fixed rank, sweeps repeat until the relative residual
    stalls; the rank is then grown one term at a time (warm-started, the new
    term that same product) until ``rel_residual_tol`` or ``target_rank`` is
    reached.  The fit draws nothing, so its result depends on its inputs alone.
    All-zero values fit the zero model.
    """
    intervals = tuple(intervals)
    d = samples.dim
    if len(intervals) != d:
        raise ValueError("need one interval per sample dimension")
    n = len(samples)
    p1 = config.degree + 1
    if n < config.target_rank * p1:
        raise FitError(
            f"need at least target_rank*(degree+1) = {config.target_rank * p1} samples, got {n}"
        )
    try:
        x = _standardize(samples.points, np.array([iv.lo for iv in intervals]),
                         np.array([iv.width for iv in intervals]))
    except ValueError as exc:
        raise FitError(str(exc)) from exc

    q = samples.values
    q_norm = float(np.linalg.norm(q)) or 1.0
    # All-zero values still get a Tikhonov term, so every solve is regular and
    # returns the zero factor.
    lam = REGULARIZATION * (float(np.mean(q * q)) or 1.0)

    # (n, d, p+1), as the model's, over dimension-major memory for fast einsums.
    basis = legendre_table(x.T, config.degree).transpose(1, 0, 2)
    others_of = [np.arange(d) != i for i in range(d)]

    start = np.zeros((1, d, p1))
    start[:, :, :2] = 1.0
    additive = config.target_rank >= d
    if additive:
        scales, coeffs = _additive_start(basis, q, lam)
    else:
        scales = np.ones(1)
        coeffs = start.copy()
    # A solve in dimension i changes only column i of the factor table, so
    # only that column is refreshed.
    factors = _factors(coeffs, basis)

    def relative_residual(scales: np.ndarray, factors: np.ndarray) -> float:
        return float(np.linalg.norm(q - scales @ factors.prod(axis=2)) / q_norm)

    history = [relative_residual(scales, factors)] if additive else []
    residual = history[0] if history else np.inf

    while residual > config.rel_residual_tol:
        rank = scales.size
        prev_residual = np.inf
        for _ in range(MAX_SWEEPS):
            for i in range(d):
                others = scales[:, None] * factors[:, :, others_of[i]].prod(axis=2)  # (r, n)
                design = (others.T[:, :, None] * basis[:, None, i, :]).reshape(n, rank * p1)
                theta = _ridge_solve(design, q, lam, f"in dimension {i}")
                coeffs[:, i, :] = theta.reshape(rank, p1)
                factors[:, :, i : i + 1] = _factors(coeffs[:, i : i + 1], basis[:, i : i + 1])
            _normalize(scales, coeffs)
            factors = _factors(coeffs, basis)
            residual = relative_residual(scales, factors)
            history.append(residual)
            if residual <= config.rel_residual_tol:
                break
            if abs(prev_residual - residual) <= SWEEP_STALL_TOL * max(residual, 1e-300):
                break
            prev_residual = residual
        if residual <= config.rel_residual_tol or rank >= config.target_rank:
            break
        # Warm-started rank growth: the new factor can be zeroed out by the
        # first per-direction solve, so the residual cannot increase.
        scales = np.concatenate([scales, [1.0]])
        coeffs = np.concatenate([coeffs, start], axis=0)
        factors = _factors(coeffs, basis)

    model = SeparatedModel(
        dim=d,
        rank=scales.size,
        degree=config.degree,
        intervals=intervals,
        scales=scales,
        coeffs=coeffs,
    )
    report = FitReport(
        final_rank=scales.size,
        sweeps_used=len(history) - additive,
        residual_history=history,
        converged=residual <= config.rel_residual_tol,
        additive_residual=history[0] if additive else None,
    )
    return model, report
