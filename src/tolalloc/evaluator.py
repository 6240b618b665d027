"""System-performance evaluators: builtin analytic problems, tabulated data,
external solver subprocesses, and the max-of-several composite.

All evaluators expose ``dim``, ``__call__(mu) -> float`` and, where a
gradient is defined, ``gradient(mu) -> ndarray``.
"""

from __future__ import annotations

import select
import shlex
import subprocess
import threading
from dataclasses import dataclass

import numpy as np

from .surrogate import Interval, SampleSet, SeparatedModel

# Relative tie tolerance for picking the attaining branch of a max-composite.
MAX_TIE_REL_TOL = 1e-12


class EvaluatorError(RuntimeError):
    """Raised when an evaluator cannot produce a value."""


class DomainError(ValueError):
    """Raised when a query point falls outside an evaluator's domain."""


# ---------------------------------------------------------------------------
# Builtin analytic problems
# ---------------------------------------------------------------------------

class QuadraticBowl:
    """Q(mu) = sum_i a_i (mu_i - center_i)^2."""

    def __init__(self, a, center=None):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError("quadratic-bowl requires a 1-d coefficient vector a")
        self.center = np.zeros_like(self.a) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != self.a.shape:
            raise ValueError("center must match a in length")

    @property
    def dim(self) -> int:
        return self.a.size

    def __call__(self, mu) -> float:
        delta = np.asarray(mu, dtype=float) - self.center
        return float(self.a @ (delta * delta))

    def gradient(self, mu) -> np.ndarray:
        return 2.0 * self.a * (np.asarray(mu, dtype=float) - self.center)


class AbsSum:
    """Q(mu) = sum_i a_i |mu_i - center_i|.  Gradient is the subgradient
    a_i * sign(mu_i - center_i), zero at kinks."""

    def __init__(self, a, center=None):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError("abs-sum requires a 1-d coefficient vector a")
        self.center = np.zeros_like(self.a) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != self.a.shape:
            raise ValueError("center must match a in length")

    @property
    def dim(self) -> int:
        return self.a.size

    def __call__(self, mu) -> float:
        return float(self.a @ np.abs(np.asarray(mu, dtype=float) - self.center))

    def gradient(self, mu) -> np.ndarray:
        return self.a * np.sign(np.asarray(mu, dtype=float) - self.center)


class ExpCos:
    """Q(mu) = exp(mu_1) * cos(mu_2), a smooth two-parameter benchmark."""

    dim = 2

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        return float(np.exp(mu[0]) * np.cos(mu[1]))

    def gradient(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        e = np.exp(mu[0])
        return np.array([e * np.cos(mu[1]), -e * np.sin(mu[1])])


def _rank2_synthetic_model() -> SeparatedModel:
    # Fixed coefficients so the benchmark is reproducible everywhere.
    rng = np.random.default_rng(20240217)
    coeffs = rng.uniform(-1.0, 1.0, size=(2, 2, 4))
    return SeparatedModel(
        dim=2,
        rank=2,
        degree=3,
        intervals=(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
        scales=np.array([1.5, 0.75]),
        coeffs=coeffs,
    )


class Rank2Synthetic:
    """A fixed rank-2, degree-3 separated function on [-1, 1]^2."""

    dim = 2

    def __init__(self):
        self._model = _rank2_synthetic_model()

    def as_separated_model(self) -> SeparatedModel:
        return self._model

    def __call__(self, mu) -> float:
        return self._model(mu)

    def gradient(self, mu) -> np.ndarray:
        return self._model.gradient(mu)


class LinearForm:
    """Q(mu) = a . mu, handy for affine-reproduction checks."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError("linear requires a 1-d coefficient vector a")

    @property
    def dim(self) -> int:
        return self.a.size

    def __call__(self, mu) -> float:
        return float(self.a @ np.asarray(mu, dtype=float))

    def gradient(self, mu) -> np.ndarray:
        return self.a.copy()


_BUILTINS = {
    "quadratic-bowl": QuadraticBowl,
    "abs-sum": AbsSum,
    "exp-cos": ExpCos,
    "rank2-synthetic": Rank2Synthetic,
    "linear": LinearForm,
}


def builtin_catalog() -> dict[str, type]:
    """Named analytic benchmark problems keyed by catalog name."""
    return dict(_BUILTINS)


def make_builtin(name: str, parameters: dict | None = None):
    try:
        cls = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin evaluator {name!r}; known: {sorted(_BUILTINS)}")
    return cls(**(parameters or {}))


# ---------------------------------------------------------------------------
# Tabulated evaluator
# ---------------------------------------------------------------------------

class TabulatedEvaluator:
    """Interpolates a full tensor-product grid of samples.

    ``interpolation`` is "multilinear" or "nearest".  Queries outside the grid
    hull raise :class:`DomainError`.
    """

    def __init__(self, samples: SampleSet, interpolation: str = "multilinear"):
        from scipy.interpolate import RegularGridInterpolator

        if interpolation not in ("multilinear", "nearest"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        d = samples.dim
        axes = [np.unique(samples.points[:, i]) for i in range(d)]
        shape = tuple(len(ax) for ax in axes)
        if int(np.prod(shape)) != len(samples):
            raise ValueError(
                f"tabulated data is not a full tensor-product grid: "
                f"{len(samples)} rows vs grid of {int(np.prod(shape))}"
            )
        grid = np.full(shape, np.nan)
        for point, value in zip(samples.points, samples.values):
            idx = tuple(int(np.searchsorted(ax, c)) for ax, c in zip(axes, point))
            grid[idx] = value
        if np.any(np.isnan(grid)):
            raise ValueError("tabulated data has duplicate or missing grid nodes")
        method = "linear" if interpolation == "multilinear" else "nearest"
        self._interp = RegularGridInterpolator(axes, grid, method=method, bounds_error=True)
        self._dim = d
        self.interpolation = interpolation

    @classmethod
    def from_csv(cls, path, interpolation: str = "multilinear") -> "TabulatedEvaluator":
        return cls(SampleSet.read_csv(path), interpolation=interpolation)

    @property
    def dim(self) -> int:
        return self._dim

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        try:
            return float(self._interp(mu[None, :])[0])
        except ValueError as exc:
            raise DomainError(f"tabulated query outside grid hull: {mu.tolist()}") from exc


# ---------------------------------------------------------------------------
# External subprocess evaluator
# ---------------------------------------------------------------------------

class ExternalEvaluator:
    """Bridges to a resident child process over a line-based protocol.

    One request per line: ``dim`` whitespace-separated decimal reals on stdin.
    One response per line: a single decimal real on stdout.  Requests are
    serialized; the child stays resident across requests.
    """

    def __init__(self, command, dim: int, timeout_seconds: float = 60.0):
        if isinstance(command, str):
            command = shlex.split(command)
        self.command = list(command)
        if dim < 1:
            raise ValueError("dim must be positive")
        self._dim = dim
        self.timeout_seconds = timeout_seconds
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self._dim

    def _ensure_started(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            if self._proc is not None:
                _stop_child(self._proc, grace=0.0)
            try:
                self._proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as exc:
                raise EvaluatorError(f"cannot start external evaluator {self.command}: {exc}")
        return self._proc

    def _fail(self, proc: subprocess.Popen, message: str) -> EvaluatorError:
        stderr = _stop_child(proc, grace=0.0).strip()
        self._proc = None
        detail = f"; stderr: {stderr}" if stderr else ""
        return EvaluatorError(message + detail)

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self._dim,):
            raise ValueError(f"expected {self._dim} components, got shape {mu.shape}")
        with self._lock:
            proc = self._ensure_started()
            request = " ".join(repr(float(v)) for v in mu)
            try:
                proc.stdin.write(request + "\n")
                proc.stdin.flush()
            except (BrokenPipeError, OSError):
                raise self._fail(proc, f"external evaluator died on request {request!r}")
            ready, _, _ = select.select([proc.stdout], [], [], self.timeout_seconds)
            if not ready:
                raise self._fail(
                    proc, f"external evaluator timed out after {self.timeout_seconds}s"
                )
            line = proc.stdout.readline()
            if line == "":
                raise self._fail(proc, f"external evaluator exited on request {request!r}")
            try:
                value = float(line.strip())
            except ValueError:
                raise self._fail(proc, f"external evaluator returned non-numeric output {line!r}")
            if not np.isfinite(value):
                raise self._fail(proc, f"external evaluator returned non-finite value {line!r}")
            return value

    def close(self) -> None:
        with self._lock:
            if self._proc is not None:
                _stop_child(self._proc, grace=5.0)
            self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _stop_child(proc: subprocess.Popen, grace: float) -> str:
    """Close the child's stdin, give it ``grace`` seconds to exit, then kill it;
    reap it, close its pipes and return what it wrote to stderr."""
    try:
        _, stderr = proc.communicate(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
    return stderr or ""


def close_evaluator(evaluator) -> None:
    """Stop the child processes behind an evaluator; in-process ones have none."""
    if hasattr(evaluator, "close"):
        evaluator.close()


# ---------------------------------------------------------------------------
# Max composite
# ---------------------------------------------------------------------------

class MaxComposite:
    """Pointwise maximum of several evaluators sharing one dimension.

    The gradient is that of the attaining branch; on ties within
    ``MAX_TIE_REL_TOL`` relative, the lowest-index child wins.
    """

    def __init__(self, children):
        children = list(children)
        if not children:
            raise ValueError("max-composite requires at least one child")
        dims = {child.dim for child in children}
        if len(dims) != 1:
            raise ValueError(f"max-composite children disagree on dim: {sorted(dims)}")
        self.children = children

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _branch(self, mu) -> tuple[int, float]:
        values = [child(mu) for child in self.children]
        best = max(values)
        tol = MAX_TIE_REL_TOL * max(abs(best), 1e-300)
        for k, value in enumerate(values):
            if value >= best - tol:
                return k, best
        raise AssertionError("unreachable")

    def __call__(self, mu) -> float:
        return self._branch(mu)[1]

    def gradient(self, mu) -> np.ndarray:
        k, _ = self._branch(mu)
        return self.children[k].gradient(mu)

    def close(self) -> None:
        for child in self.children:
            close_evaluator(child)


# ---------------------------------------------------------------------------
# Config factory and sampling
# ---------------------------------------------------------------------------

def from_config(spec: dict):
    """Build an evaluator from its JSON description.

    Variants: ``{"variant": "builtin", "name": ..., "parameters": {...}}``,
    ``{"variant": "tabulated", "path": ..., "interpolation": ...}``,
    ``{"variant": "external", "command": [...], "dim": ..., "timeout_seconds": ...}``,
    ``{"variant": "max", "children": [spec, ...]}``.
    """
    variant = spec.get("variant")
    if variant == "builtin":
        return make_builtin(spec["name"], spec.get("parameters"))
    if variant == "tabulated":
        return TabulatedEvaluator.from_csv(
            spec["path"], interpolation=spec.get("interpolation", "multilinear")
        )
    if variant == "external":
        return ExternalEvaluator(
            spec["command"], dim=int(spec["dim"]),
            timeout_seconds=float(spec.get("timeout_seconds", 60.0)),
        )
    if variant == "max":
        return MaxComposite(from_config(child) for child in spec["children"])
    raise ValueError(f"unknown evaluator variant {variant!r}")


def draw_samples(evaluator, domain, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. uniform points over the box and evaluate them.

    Uses a counter-based generator (Philox) so sequences reproduce across
    platforms.  Sample order is deterministic given the seed.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    intervals = tuple(domain)
    lo = np.array([iv.lo for iv in intervals])
    width = np.array([iv.width for iv in intervals])
    rng = np.random.Generator(np.random.Philox(seed))
    points = lo + rng.random((n, len(intervals))) * width
    values = np.empty(n)
    for j, point in enumerate(points):
        try:
            values[j] = evaluator(point)
        except EvaluatorError as exc:
            raise EvaluatorError(f"evaluation failed at mu={point.tolist()}: {exc}") from exc
    return SampleSet(points=points, values=values)
