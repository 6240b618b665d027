"""System-performance evaluators: builtin analytic problems, tabulated data,
external solver subprocesses, and the max-of-several composite.

Every evaluator exposes ``dim`` and ``__call__(mu) -> float``; one that
holds a child process also has ``close()``.  The external evaluator and the
max composite add a batch call, ``many(points) -> values``, which sampling
uses through :func:`evaluate_many`.  No stage differentiates an evaluator:
every gradient the allocation uses comes from the surrogate.
"""

from __future__ import annotations

import contextlib
import math
import os
import select
import shlex
import subprocess
import tempfile
import threading
import time

import numpy as np

from .surrogate import Interval, SampleSet, SeparatedModel

# External-evaluator errors quote at most this many trailing bytes of stderr
# and this many leading characters of any stdout they name.
STDERR_TAIL_BYTES = 4096
STDOUT_QUOTE_CHARS = 256
# A batch encodes this many requests at a time, so the bytes waiting for the
# child's stdin stay bounded however many points the batch holds; it reads
# the child's stdout up to READ_BYTES at a time.
REQUEST_BLOCK_ROWS = 1024
READ_BYTES = 65536


class EvaluatorError(RuntimeError):
    """Raised when an evaluator cannot produce a value.  One raised by a batch
    (:func:`evaluate_many`) sets ``row``, the index of the point whose value
    failed."""

    row: int | None = None


class DomainError(ValueError):
    """Raised when a query point falls outside an evaluator's domain."""


# ---------------------------------------------------------------------------
# Builtin analytic problems
# ---------------------------------------------------------------------------

class _CenteredSum:
    """Coefficient vector ``a`` and a ``center`` of the same length (zero by
    default), shared by the builtins that sum a_i g(mu_i - center_i).  Each
    subclass names itself in ``kind``, its catalog name."""

    def __init__(self, a, center=None):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError(f"{self.kind} requires a 1-d coefficient vector a")
        self.center = np.zeros_like(self.a) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != self.a.shape:
            raise ValueError("center must match a in length")

    @property
    def dim(self) -> int:
        return self.a.size


class QuadraticBowl(_CenteredSum):
    """Q(mu) = sum_i a_i (mu_i - center_i)^2."""

    kind = "quadratic-bowl"

    def __call__(self, mu) -> float:
        delta = np.asarray(mu, dtype=float) - self.center
        return float(self.a @ (delta * delta))


class AbsSum(_CenteredSum):
    """Q(mu) = sum_i a_i |mu_i - center_i|."""

    kind = "abs-sum"

    def __call__(self, mu) -> float:
        return float(self.a @ np.abs(np.asarray(mu, dtype=float) - self.center))


class ExpCos:
    """Q(mu) = exp(mu_1) * cos(mu_2), a smooth two-parameter benchmark."""

    dim = 2

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        return float(np.exp(mu[0]) * np.cos(mu[1]))


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
    """Multilinear interpolation of a full tensor-product grid of samples.

    Queries outside the grid hull, NaN included, raise :class:`DomainError`.
    """

    def __init__(self, samples: SampleSet):
        self._axes = [np.unique(column) for column in samples.points.T]
        shape = tuple(len(ax) for ax in self._axes)
        if int(np.prod(shape)) != len(samples):
            raise ValueError(
                f"tabulated data is not a full tensor-product grid: "
                f"{len(samples)} rows vs grid of {int(np.prod(shape))}"
            )
        self._grid = np.full(shape, np.nan)
        self._grid[tuple(map(np.searchsorted, self._axes, samples.points.T))] = samples.values
        if np.any(np.isnan(self._grid)):
            raise ValueError("tabulated data has duplicate or missing grid nodes")

    @property
    def dim(self) -> int:
        return len(self._axes)

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} components, got shape {mu.shape}")
        cell, weights = [], []
        for ax, x in zip(self._axes, mu):
            if not ax[0] <= x <= ax[-1]:
                raise DomainError(f"tabulated query outside grid hull: {mu.tolist()}")
            # The cell [ax[j], ax[j + 1]] holding x; a single-node axis is its own cell.
            j = int(np.clip(np.searchsorted(ax, x) - 1, 0, max(ax.size - 2, 0)))
            cell.append(slice(j, j + 2))
            t = (x - ax[j]) / (ax[j + 1] - ax[j]) if ax.size > 1 else 0.0
            weights.append(np.array([1.0 - t, t][:ax.size]))
        value = self._grid[tuple(cell)]  # the 2^d corner block
        for w in reversed(weights):
            value = value @ w
        return float(value)


# ---------------------------------------------------------------------------
# External subprocess evaluator
# ---------------------------------------------------------------------------

class ExternalEvaluator:
    """Bridges to a resident child process over a line-based protocol.

    One request per line: ``dim`` whitespace-separated decimal reals on stdin.
    One answer per request: a single decimal real on its own stdout line,
    given in the order of the requests.  Requests may be written before
    earlier ones are answered, so the child must read stdin as a stream; it
    stays resident across requests and batches.  Each answer must arrive
    within ``timeout_seconds`` of the previous answer, or of the start of the
    batch for the first one.  Output the child writes before a batch's first
    request or beyond its last answer is an error, and so is any output
    still unread when :meth:`close` stops the child, so answers cannot drift
    out of step with requests unnoticed.  The pipes carry bytes, and output
    is decoded with replacement, so a non-UTF-8 byte is never a decoding
    error.  The child's stderr goes to an unnamed temporary file, so a child
    that logs cannot block on a full pipe.
    """

    def __init__(self, command, dim: int, timeout_seconds: float = 60.0):
        if isinstance(command, str):
            command = shlex.split(command)
        self.command = list(command)
        # type() rather than isinstance() so that a bool is rejected.
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        self._dim = dim
        if type(timeout_seconds) not in (int, float) or not (
                math.isfinite(timeout_seconds) and timeout_seconds > 0):
            raise ValueError(f"timeout_seconds must be a finite number > 0, "
                             f"got {timeout_seconds!r}")
        self.timeout_seconds = timeout_seconds
        self._proc: subprocess.Popen | None = None
        self._stderr = None  # the running child's stderr file
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self._dim

    def _ensure_started(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            if self._proc is not None:
                self._stop(grace=0.0)
            stderr = tempfile.TemporaryFile()
            try:
                self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                              stdout=subprocess.PIPE, stderr=stderr)
            except OSError as exc:
                stderr.close()
                raise EvaluatorError(f"cannot start external evaluator {self.command}: {exc}")
            self._stderr = stderr
            os.set_blocking(self._proc.stdin.fileno(), False)
        return self._proc

    def _stop(self, grace: float) -> tuple[bytes, str]:
        """Close the child's stdin, give it ``grace`` seconds to exit, then kill
        it; reap it, close its pipes and its stderr file, and return what it
        wrote to stdout that was not read yet and the tail of its stderr."""
        proc, stderr, self._proc, self._stderr = self._proc, self._stderr, None, None
        try:
            stdout, _ = proc.communicate(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
        with stderr:
            size = stderr.seek(0, os.SEEK_END)
            stderr.seek(max(size - STDERR_TAIL_BYTES, 0))
            return stdout, stderr.read().decode(errors="replace")

    def _fail(self, what: str) -> EvaluatorError:
        """Stop the child and describe ``what`` it did, with its stderr tail."""
        _, stderr = self._stop(grace=0.0)
        return _external_error(what, stderr)

    def _parse(self, line: bytes) -> float:
        text = line.decode(errors="replace")
        try:
            value = float(text)
        except ValueError:
            raise self._fail(f"returned non-numeric output {_quote(text)}")
        if not math.isfinite(value):
            raise self._fail(f"returned non-finite value {_quote(text)}")
        return value

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self._dim,):
            raise ValueError(f"expected {self._dim} components, got shape {mu.shape}")
        return float(self.many(mu[np.newaxis])[0])

    def many(self, points) -> np.ndarray:
        """Values at the rows of an (n, dim) stack, in one pipelined exchange.

        On failure the child is stopped, the next call starts a new one, and
        the :class:`EvaluatorError` names in ``row`` the point whose answer
        failed.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self._dim:
            raise ValueError(f"expected an (n, {self._dim}) stack of points, "
                             f"got shape {points.shape}")
        values = np.empty(len(points))
        answered = 0
        with self._lock:
            try:
                for value in self._answers(points):
                    values[answered] = value
                    answered += 1
            except EvaluatorError as exc:
                exc.row = min(answered, len(points) - 1)
                raise
            except BaseException:
                # An interrupted batch leaves answers in flight; drop them
                # with the child rather than read them as the next batch's.
                if self._proc is not None:
                    self._stop(grace=0.0)
                raise
        return values

    def _answers(self, points: np.ndarray):
        """The child's answers to the rows of ``points``, in order.  Requests
        are encoded REQUEST_BLOCK_ROWS at a time and written as the child's
        stdin accepts them, while answers are read as they arrive."""
        proc = self._ensure_started()
        out_fd, in_fd = proc.stdout.fileno(), proc.stdin.fileno()
        n, answered, encoded = len(points), 0, 0
        outbox, wrote = b"", False
        pending = b""  # stdout bytes read but not yet consumed
        deadline = time.monotonic() + self.timeout_seconds
        while answered < n:
            if not outbox and encoded < n:
                block = points[encoded:encoded + REQUEST_BLOCK_ROWS]
                outbox = "".join(_request(row) + "\n" for row in block).encode()
                encoded += len(block)
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise self._fail(f"timed out after {self.timeout_seconds}s")
            readable, writable, _ = select.select([out_fd], [in_fd] if outbox else [], [],
                                                  remaining)
            if readable:
                chunk = os.read(out_fd, READ_BYTES)
                if not chunk:
                    raise self._fail(f"exited on request {_request(points[answered])!r}")
                if not wrote:
                    raise self._fail(f"wrote unsolicited output {_quote(chunk)}")
                lines = (pending + chunk).split(b"\n")
                taken = min(len(lines) - 1, n - answered)
                for line in lines[:taken]:
                    yield self._parse(line)
                answered += taken
                pending = b"\n".join(lines[taken:])
                if taken:
                    deadline = time.monotonic() + self.timeout_seconds
            if writable:
                try:
                    outbox = outbox[os.write(in_fd, outbox):]
                    wrote = True
                except BrokenPipeError:
                    # The child is gone; reading stdout to its end still
                    # takes the answers it gave before it went.
                    outbox, encoded = b"", n
        if pending:
            raise self._fail(f"wrote unsolicited output {_quote(pending)} "
                             f"after its answer to {_request(points[-1])!r}")

    def close(self) -> None:
        """Stop the child.  Raises :class:`EvaluatorError`, once the child is
        reaped, if it wrote output that no request asked for."""
        with self._lock:
            if self._proc is None:
                return
            stray, stderr = self._stop(grace=5.0)
        if stray:
            raise _external_error(f"wrote unsolicited output {_quote(stray)} "
                                  f"after its last answer", stderr)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _request(point: np.ndarray) -> str:
    """The request line for a float ``point``, without its line end: the
    full-precision repr of each component."""
    return " ".join(map(repr, point.tolist()))


def _external_error(what: str, stderr: str) -> EvaluatorError:
    stderr = stderr.strip()
    detail = f"; stderr: {stderr}" if stderr else ""
    return EvaluatorError(f"external evaluator {what}{detail}")


def _quote(output) -> str:
    """The repr of the child's ``output``, bytes or str, cut after STDOUT_QUOTE_CHARS."""
    more = len(output) - STDOUT_QUOTE_CHARS
    return repr(output[:STDOUT_QUOTE_CHARS]) + (f" and {more} more" if more > 0 else "")


def close_evaluator(evaluator) -> None:
    """Stop the child processes behind an evaluator; in-process ones have none."""
    if hasattr(evaluator, "close"):
        evaluator.close()


# ---------------------------------------------------------------------------
# Max composite
# ---------------------------------------------------------------------------

class MaxComposite:
    """Pointwise maximum of several evaluators sharing one dimension."""

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

    def __call__(self, mu) -> float:
        return max(child(mu) for child in self.children)

    def many(self, points) -> np.ndarray:
        """Elementwise maximum of the children's values at the rows of an
        (n, dim) stack, each child's taken by :func:`evaluate_many`."""
        return np.max([evaluate_many(child, points) for child in self.children], axis=0)

    def close(self) -> None:
        """Close every child, even after one of them raises."""
        with contextlib.ExitStack() as stack:
            for child in self.children:
                stack.callback(close_evaluator, child)


# ---------------------------------------------------------------------------
# Config factory and sampling
# ---------------------------------------------------------------------------

# The keys each evaluator variant reads, besides "variant".
VARIANT_KEYS = {
    "builtin": {"name", "parameters"},
    "tabulated": {"path"},
    "external": {"command", "dim", "timeout_seconds"},
    "max": {"children"},
}


def from_config(spec: dict):
    """Build an evaluator from its JSON description.

    Variants: ``{"variant": "builtin", "name": ..., "parameters": {...}}``,
    ``{"variant": "tabulated", "path": ...}``,
    ``{"variant": "external", "command": [...], "dim": ..., "timeout_seconds": ...}``,
    ``{"variant": "max", "children": [spec, ...]}``.  A key the variant does
    not read is a ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"an evaluator spec must be a JSON object, got {spec!r}")
    variant = spec.get("variant")
    if variant not in VARIANT_KEYS:
        raise ValueError(f"unknown evaluator variant {variant!r}")
    unknown = sorted(set(spec) - VARIANT_KEYS[variant] - {"variant"})
    if unknown:
        raise ValueError(f"{variant} evaluator does not read key(s) {', '.join(unknown)}; "
                         f"it reads {', '.join(sorted(VARIANT_KEYS[variant]))}")
    if variant == "builtin":
        return make_builtin(spec["name"], spec.get("parameters"))
    if variant == "tabulated":
        return TabulatedEvaluator(SampleSet.read_csv(spec["path"]))
    if variant == "external":
        return ExternalEvaluator(spec["command"], dim=spec["dim"],
                                 timeout_seconds=spec.get("timeout_seconds", 60.0))
    return MaxComposite(from_config(child) for child in spec["children"])


def evaluate_many(evaluator, points: np.ndarray) -> np.ndarray:
    """Values at the rows of an (n, dim) stack: the evaluator's own ``many``
    where it has one, else one call per row.  An :class:`EvaluatorError`
    names in ``row`` the point whose value failed."""
    if hasattr(evaluator, "many"):
        return evaluator.many(points)
    values = np.empty(len(points))
    for row, point in enumerate(points):
        try:
            values[row] = evaluator(point)
        except EvaluatorError as exc:
            exc.row = row
            raise
    return values


def draw_samples(evaluator, domain, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. uniform points over the box and evaluate them.

    Uses a counter-based generator (Philox) so sequences reproduce across
    platforms.  Sample order is deterministic given the seed.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    intervals = tuple(domain)
    if len(intervals) != evaluator.dim:
        raise ValueError(f"sampling domain has {len(intervals)} interval(s) for a "
                         f"{evaluator.dim}-parameter evaluator")
    lo = np.array([iv.lo for iv in intervals])
    width = np.array([iv.width for iv in intervals])
    rng = np.random.Generator(np.random.Philox(seed))
    points = lo + rng.random((n, len(intervals))) * width
    try:
        return SampleSet(points=points, values=evaluate_many(evaluator, points))
    except EvaluatorError as exc:
        raise EvaluatorError(f"evaluation failed at mu={points[exc.row].tolist()}: "
                             f"{exc}") from exc
