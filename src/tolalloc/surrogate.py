"""Low-rank separated polynomial surrogates fitted by alternating least squares.

A model approximates a scalar function of ``d`` design parameters as a rank-r
sum of products of univariate Legendre expansions, one factor per dimension.
Each dimension carries its own interval; inputs are mapped affinely onto
[-1, 1] before the Legendre basis is evaluated.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

MODEL_FORMAT_VERSION = 1

# Relative interval overshoot that is silently clamped when a point is
# evaluated or fitted (optimizers probing box edges land here through round-off).
EXTRAPOLATION_SLACK = 1e-9


class FitError(RuntimeError):
    """Raised when an ALS fit cannot proceed (singular system, bad inputs)."""


class MissingFieldError(ValueError):
    """Raised when a model dict lacks fields that ``to_dict`` writes."""


# ---------------------------------------------------------------------------
# Artifact files
# ---------------------------------------------------------------------------

def atomic_write(path, write) -> None:
    """Call ``write(tmp)`` on a new file beside ``path``, then rename it over
    ``path``, so readers never see a partial artifact.  The file is created
    with the mode the umask gives any new file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj: dict) -> None:
    """Write ``obj`` as indented JSON with sorted keys, atomically."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    atomic_write(path, lambda tmp: Path(tmp).write_text(text))


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, atomically: strings and ints as
    given, every other cell as ``repr(float(v))``, which reads back bit for bit;
    a 2-d ndarray in one pass over the Python floats of its ``tolist()``."""
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            if isinstance(rows, np.ndarray):
                line = ",".join(["%r"] * rows.shape[1]) + "\r\n"
                fh.write((line * rows.shape[0]) % tuple(rows.astype(float).ravel().tolist()))
            else:
                writer.writerows([v if isinstance(v, (str, int)) else repr(float(v))
                                  for v in row] for row in rows)

    atomic_write(path, write)


# ---------------------------------------------------------------------------
# Intervals and coordinate standardization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A closed parameter interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


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


# ---------------------------------------------------------------------------
# Separated model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatedModel:
    """Rank-r tensor-product Legendre surrogate.

    ``coeffs`` has shape (rank, dim, degree + 1); ``scales`` has shape (rank,).
    Instances are immutable after construction and safe for concurrent reads.
    """

    dim: int
    rank: int
    degree: int
    intervals: tuple[Interval, ...]
    scales: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim < 1 or self.rank < 1 or self.degree < 0:
            raise ValueError("dim and rank must be positive, degree nonnegative")
        if len(self.intervals) != self.dim:
            raise ValueError("need one interval per dimension")
        scales = np.asarray(self.scales, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if scales.shape != (self.rank,):
            raise ValueError(f"scales must have shape ({self.rank},)")
        if coeffs.shape != (self.rank, self.dim, self.degree + 1):
            raise ValueError(
                f"coeffs must have shape ({self.rank}, {self.dim}, {self.degree + 1})"
            )
        if not (np.all(np.isfinite(scales)) and np.all(np.isfinite(coeffs))):
            raise ValueError("model coefficients must be finite")
        object.__setattr__(self, "intervals", tuple(self.intervals))
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_lo", np.array([iv.lo for iv in self.intervals]))
        object.__setattr__(self, "_width", np.array([iv.width for iv in self.intervals]))
        for array in (self.scales, self.coeffs, self._lo, self._width):
            array.setflags(write=False)

    # -- evaluation ---------------------------------------------------------

    def _basis_factors(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Legendre table (N, d, p+1) and factors (r, N, d) at (N, dim) points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim}-dimensional points, got {pts.shape[1]}")
        basis = legendre_table(_standardize(pts, self._lo, self._width), self.degree)
        return basis, _factors(self.coeffs, basis)

    def eval_many(self, points) -> np.ndarray:
        """Evaluate the surrogate at an (N, dim) array of design points."""
        _, factors = self._basis_factors(points)
        return self.scales @ factors.prod(axis=2)

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
        values = self.scales @ factors.prod(axis=2)
        grad_std = np.einsum("l,lni->ni", self.scales, dfactors * others)
        return values, grad_std * (2.0 / self._width)

    def grad_many(self, points) -> np.ndarray:
        """Analytic gradient at an (N, dim) array of points; shape (N, dim)."""
        return self.eval_grad_many(points)[1]

    def gradient(self, mu) -> np.ndarray:
        return self.grad_many(np.asarray(mu, dtype=float)[None, :])[0]

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "dim": self.dim,
            "rank": self.rank,
            "degree": self.degree,
            "intervals": [[iv.lo, iv.hi] for iv in self.intervals],
            "scales": self.scales.tolist(),
            "coeffs": self.coeffs.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SeparatedModel":
        """The model :meth:`to_dict` describes; ValueError on any other dict,
        MissingFieldError naming the fields it lacks."""
        missing = sorted({field.name for field in fields(cls)} - set(data))
        if missing:
            raise MissingFieldError(f"lacks field(s) {', '.join(missing)}")
        version = data.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format_version: {version!r}")
        try:
            return cls(
                dim=int(data["dim"]),
                rank=int(data["rank"]),
                degree=int(data["degree"]),
                intervals=tuple(Interval(float(lo), float(hi)) for lo, hi in data["intervals"]),
                scales=np.asarray(data["scales"], dtype=float),
                coeffs=np.asarray(data["coeffs"], dtype=float),
            )
        except TypeError as exc:
            raise ValueError(str(exc)) from exc

    def save(self, path) -> None:
        write_json(path, self.to_dict())


# ---------------------------------------------------------------------------
# Sample sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSet:
    """Paired design points (N, dim) and performance values (N,)."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        values = np.asarray(self.values, dtype=float).ravel()
        if points.shape[0] != values.shape[0]:
            raise ValueError("points and values must have equal length")
        if points.shape[0] < 1:
            raise ValueError("need at least one sample")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def write_csv(self, path) -> None:
        write_csv(path, [f"mu_{i + 1}" for i in range(self.dim)] + ["q"],
                  np.column_stack([self.points, self.values]))

    @classmethod
    def read_csv(cls, path) -> "SampleSet":
        """Read ``mu_1,...,mu_d,q``, then d + 1 floats a row: no blank line, comment or quote."""
        with open(path) as fh:
            header = next(csv.reader(fh), None)
            lines = fh.read().splitlines()
        if header is None or header[-1] != "q" or len(header) < 2:
            raise ValueError(f"malformed sample file {path}: bad header {header!r}")
        if not lines:
            raise ValueError(f"malformed sample file {path}: no sample rows")
        try:
            if not all(lines):  # loadtxt would skip it silently
                raise ValueError(f"line {lines.index('') + 2} is blank")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if table.shape[1] != len(header):
                raise ValueError(f"{table.shape[1]} columns under a {len(header)}-column header")
        except ValueError as exc:
            raise ValueError(f"malformed sample file {path}: {exc}") from exc
        return cls(points=table[:, :-1], values=table[:, -1])


# ---------------------------------------------------------------------------
# ALS fitting
# ---------------------------------------------------------------------------

# Sweep schedule of als_fit: at most MAX_SWEEPS sweeps per rank, a rank ends
# when a sweep changes the relative residual by at most SWEEP_STALL_TOL of
# itself, and every normal matrix gets the Tikhonov term REGULARIZATION times
# the mean squared sample value on its diagonal.
MAX_SWEEPS = 200
SWEEP_STALL_TOL = 1e-6
REGULARIZATION = 1e-10


@dataclass
class FitConfig:
    target_rank: int
    degree: int
    rel_residual_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        # type() rather than isinstance() so that a bool is rejected.
        if type(self.target_rank) is not int or self.target_rank < 1:
            raise ValueError(f"target_rank must be an integer >= 1, got {self.target_rank!r}")
        if type(self.degree) is not int or self.degree < 0:
            raise ValueError(f"degree must be an integer >= 0, got {self.degree!r}")
        tol = self.rel_residual_tol
        if type(tol) not in (int, float) or not (np.isfinite(tol) and tol > 0):
            raise ValueError(f"rel_residual_tol must be a finite number > 0, got {tol!r}")


@dataclass
class FitReport:
    final_rank: int
    sweeps_used: int
    residual_history: list[float]
    converged: bool
    # Relative residual of the additive start alone; None without one.
    additive_residual: float | None


def _normalize(scales: np.ndarray, coeffs: np.ndarray) -> None:
    """Scale every factor to unit coefficient 2-norm, absorbing into scales."""
    norms = np.linalg.norm(coeffs, axis=2)  # (r, d)
    norms = np.where(norms > 0.0, norms, 1.0)
    coeffs /= norms[:, :, None]
    scales *= norms.prod(axis=1)


def _additive_start(basis: np.ndarray, q: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Scales (d,) and coeffs (d, d, p+1) of c + sum_i f_i(x_i) fitted by one
    regularized solve over the constant and the L_1..L_p columns of every
    dimension.  Term i holds f_i in dimension i and L_0 in every other; the
    constant goes into term 0."""
    n, d, p1 = basis.shape
    design = np.concatenate([np.ones((n, 1)), basis[:, :, 1:].reshape(n, -1)], axis=1)
    gram = design.T @ design
    gram.flat[:: design.shape[1] + 1] += lam
    try:
        theta = np.linalg.solve(gram, design.T @ q)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular additive system") from exc
    if not np.all(np.isfinite(theta)):
        raise FitError("non-finite additive solution")
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
    When ``target_rank < d`` the fit starts from one seeded random term.
    Within a fixed rank, sweeps repeat until the relative residual stalls; the
    rank is then grown one term at a time (warm-started, new factor seeded
    random) until ``rel_residual_tol`` or ``target_rank`` is reached.
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
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        q_norm = 1.0
    lam = REGULARIZATION * float(np.mean(q * q))

    # (n, d, p+1), as the model's, over dimension-major memory for fast einsums.
    basis = legendre_table(x.T, config.degree).transpose(1, 0, 2)
    others_of = [np.arange(d) != i for i in range(d)]

    rng = np.random.default_rng(config.seed)
    additive = config.target_rank >= d
    if additive:
        rank = d
        scales, coeffs = _additive_start(basis, q, lam)
    else:
        rank = 1
        scales = np.ones(1)
        coeffs = rng.uniform(-1.0, 1.0, size=(1, d, p1))
    # A solve in dimension i changes only column i of the factor table, so
    # only that column is refreshed.
    factors = _factors(coeffs, basis)

    history: list[float] = []
    sweeps_used = 0
    residual = np.inf
    if additive:
        residual = float(np.linalg.norm(q - scales @ factors.prod(axis=2)) / q_norm)
        history.append(residual)

    while residual > config.rel_residual_tol:
        prev_residual = np.inf
        for _ in range(MAX_SWEEPS):
            for i in range(d):
                others = scales[:, None] * factors[:, :, others_of[i]].prod(axis=2)  # (r, n)
                design = (others.T[:, :, None] * basis[:, None, i, :]).reshape(n, rank * p1)
                gram = design.T @ design
                gram.flat[:: rank * p1 + 1] += lam
                try:
                    theta = np.linalg.solve(gram, design.T @ q)
                except np.linalg.LinAlgError as exc:
                    raise FitError(f"singular per-direction system (dimension {i})") from exc
                if not np.all(np.isfinite(theta)):
                    raise FitError(f"non-finite solution in dimension {i}")
                coeffs[:, i, :] = theta.reshape(rank, p1)
                factors[:, :, i : i + 1] = _factors(coeffs[:, i : i + 1], basis[:, i : i + 1])
            _normalize(scales, coeffs)
            factors = _factors(coeffs, basis)
            pred = scales @ factors.prod(axis=2)
            residual = float(np.linalg.norm(q - pred) / q_norm)
            history.append(residual)
            sweeps_used += 1
            if residual <= config.rel_residual_tol:
                break
            if abs(prev_residual - residual) <= SWEEP_STALL_TOL * max(residual, 1e-300):
                break
            prev_residual = residual
        if residual <= config.rel_residual_tol or rank >= config.target_rank:
            break
        # Warm-started rank growth: the new factor can be zeroed out by the
        # first per-direction solve, so the residual cannot increase.
        rank += 1
        scales = np.concatenate([scales, [1.0]])
        coeffs = np.concatenate([coeffs, rng.uniform(-1.0, 1.0, size=(1, d, p1))], axis=0)
        factors = _factors(coeffs, basis)

    model = SeparatedModel(
        dim=d,
        rank=rank,
        degree=config.degree,
        intervals=intervals,
        scales=scales,
        coeffs=coeffs,
    )
    report = FitReport(
        final_rank=rank,
        sweeps_used=sweeps_used,
        residual_history=history,
        converged=residual <= config.rel_residual_tol,
        additive_residual=history[0] if additive else None,
    )
    return model, report
