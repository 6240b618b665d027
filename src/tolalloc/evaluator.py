"""System-performance evaluators: builtin analytic problems, tabulated data,
external solver subprocesses, and the max-of-several composite.

Every evaluator derives from :class:`Evaluator` and defines ``dim`` and one
batch call, ``many(points) -> values`` on an (n, dim) stack; the base class
answers a single point, ``__call__(mu) -> float``, through it and has a
``close()`` that an evaluator holding a child process overrides.  Sampling
calls an external evaluator's ``many(points, rows)``, so that the child's
exchange also renders the sample-file rows (by :func:`tolalloc.files.sample_rows`).
No stage differentiates an evaluator: every gradient comes from the surrogate.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
import time

import numpy as np

from .files import Interval, _fields, _integer, _number_array, format_rows, read_samples
from .files import sample_rows
from .surrogate import NumericError, SampleSet, SeparatedModel, _uniform

# External-evaluator errors quote at most this many trailing bytes of stderr
# and this many leading characters of any stdout they name.
STDERR_TAIL_BYTES = 4096
STDOUT_QUOTE_CHARS = 256
# A batch encodes this many requests at a time, inside its read loop: the bytes
# waiting for the child's stdin stay bounded, and the encoding runs while the
# child solves the blocks already sent, not before it starts (see README).  It
# reads the child's stdout up to READ_BYTES at a time.
REQUEST_BLOCK_ROWS = 1024
READ_BYTES = 65536


class EvaluatorError(NumericError):
    """Raised when an evaluator cannot produce a value.  One raised by
    :meth:`Evaluator.many` sets ``row``, the index of the point whose value
    failed, or leaves it None when the failure is at no point."""

    row: int | None = None


class DomainError(NumericError):
    """Raised when a query point falls outside an evaluator's domain."""


class Evaluator:
    """The contract of every evaluator: a subclass defines ``dim`` and
    ``many``.  A single point is answered as a batch of one, so a point's
    value has the same bits either way."""

    dim: int

    def __call__(self, mu) -> float:
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} components, got shape {mu.shape}")
        return float(self.many(mu[None])[0])

    def many(self, points) -> np.ndarray:
        """Values at the rows of an (n, dim) stack; an EvaluatorError sets ``row``."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop the child processes behind the evaluator; an in-process one has none."""


# ---------------------------------------------------------------------------
# Builtin analytic problems
# ---------------------------------------------------------------------------

# A builtin's arithmetic runs with numpy's overflow and invalid-value warnings
# off: its callers turn a non-finite value into their own error.

class _CenteredSum(Evaluator):
    """Coefficient vector ``a`` and a ``center`` of the same length (zero by
    default), each of finite numbers, shared by the builtins that sum
    a_i g(mu_i - center_i).  Each subclass names itself in ``kind``, its
    catalog name, and sets ``_g``, the ufunc g."""

    def __init__(self, a, center=None):
        self.a = _number_array(a, "a")
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError(f"{self.kind} requires a 1-d vector a of coefficients")
        self.center = np.zeros_like(self.a) if center is None else _number_array(center, "center")
        if self.center.shape != self.a.shape:
            raise ValueError("center must match a in length")

    @property
    def dim(self) -> int:
        return self.a.size

    def many(self, points) -> np.ndarray:
        # One dot product per row: a matrix product would round differently.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self._g(np.asarray(points, dtype=float) - self.center)
            return np.array([self.a @ row for row in terms])


class QuadraticBowl(_CenteredSum):
    """Q(mu) = sum_i a_i (mu_i - center_i)^2."""

    kind = "quadratic-bowl"
    _g = np.square


class AbsSum(_CenteredSum):
    """Q(mu) = sum_i a_i |mu_i - center_i|."""

    kind = "abs-sum"
    _g = np.abs


class ExpCos(Evaluator):
    """Q(mu) = exp(mu_1) * cos(mu_2), a smooth two-parameter benchmark."""

    dim = 2

    def many(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(points[:, 0]) * np.cos(points[:, 1])


def _rank2_synthetic_model() -> SeparatedModel:
    # Fixed everywhere: default_rng(20240217).uniform(-1, 1, (2, 2, 4)), written out.
    coeffs = np.array([
        [[0.6334851193419209, -0.9624502498957448, -0.956161629574666, 0.9995316776334144],
         [-0.6739534346887626, 0.7059802021845596, -0.20684281440729158, -0.021729390459781506]],
        [[0.20781553681468568, 0.9407252158171655, -0.7004482105492975, -0.1245602495335032],
         [-0.13724865921232743, 0.1161030928577822, -0.036327053537505094, 0.6052654235527923]]])
    return SeparatedModel(
        dim=2,
        rank=2,
        degree=3,
        intervals=(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
        scales=np.array([1.5, 0.75]),
        coeffs=coeffs,
    )


class Rank2Synthetic(Evaluator):
    """A fixed rank-2, degree-3 separated function on [-1, 1]^2."""

    dim = 2

    def __init__(self):
        self.model = _rank2_synthetic_model()

    def many(self, points) -> np.ndarray:
        return self.model.eval_many(points)


class LinearForm(_CenteredSum):
    """Q(mu) = a . mu, handy for affine-reproduction checks: the center is 0."""

    kind = "linear"
    _g = np.positive

    def __init__(self, a):
        super().__init__(a)


# Each builtin's class and the keys of its parameters, required and optional.
_BUILTINS = {
    "quadratic-bowl": (QuadraticBowl, {"a"}, {"center"}),
    "abs-sum": (AbsSum, {"a"}, {"center"}),
    "exp-cos": (ExpCos, set(), set()),
    "rank2-synthetic": (Rank2Synthetic, set(), set()),
    "linear": (LinearForm, {"a"}, set()),
}


def builtin_catalog() -> dict[str, type]:
    """Named analytic benchmark problems keyed by catalog name."""
    return {name: cls for name, (cls, _, _) in _BUILTINS.items()}


def make_builtin(name: str, parameters: dict | None = None):
    if not isinstance(name, str) or name not in _BUILTINS:
        raise KeyError(f"unknown builtin evaluator {name!r}; known: {sorted(_BUILTINS)}")
    cls, required, optional = _BUILTINS[name]
    parameters = {} if parameters is None else parameters
    return cls(**_fields(parameters, f"'parameters' of {name}", required, optional))


# ---------------------------------------------------------------------------
# Tabulated evaluator
# ---------------------------------------------------------------------------

class TabulatedEvaluator(Evaluator):
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

    def many(self, points) -> np.ndarray:
        return np.array([self._interpolate(mu) for mu in np.asarray(points, dtype=float)])

    def _interpolate(self, mu: np.ndarray) -> float:
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

class ExternalEvaluator(Evaluator):
    """Bridges to a resident child process over a line-based protocol.

    One request per line: ``dim`` whitespace-separated decimal reals on stdin.
    One answer per request: a single decimal real on its own stdout line,
    given in the order of the requests.  Requests may be written before
    earlier ones are answered, so the child must read stdin as a stream; it
    stays resident across requests and batches.  Each answer must arrive
    within ``timeout_seconds`` of the previous answer, or of the start of the
    batch for the first one.  An answer line must follow a request line
    already written: any other output is "unsolicited output", an error
    whether it is found as output arrives, at the end of the batch or at
    :meth:`close`, so answers cannot drift out of step with requests
    unnoticed.  An evaluator is used from one thread; it takes no lock.
    :meth:`many` can build sample-file rows as the answers arrive, from the
    request lines sent and ``repr`` of each answer's float, never the child's
    own spelling; ``sample`` writes them only once :meth:`close` has found no
    stray output.  The pipes carry bytes, and output is decoded with
    replacement, so a non-UTF-8 byte is never a decoding error.  The child's
    stderr goes to an unnamed temporary file, so a child that logs cannot
    block on a full pipe.
    """

    def __init__(self, command, dim: int, timeout_seconds: float = 60.0):
        if not (isinstance(command, list) and command
                and all(isinstance(arg, str) for arg in command)):
            raise ValueError(f"command must be a non-empty list of strings, got {command!r}")
        self.command = list(command)
        self._dim = _integer(dim, "dim", 1)
        timeout = _number_array(timeout_seconds, "timeout_seconds")
        if timeout.ndim or not timeout > 0:
            raise ValueError(f"timeout_seconds must be a finite number > 0, "
                             f"got {timeout_seconds!r}")
        self.timeout_seconds = float(timeout)
        self._proc = None  # the running child's subprocess.Popen
        self._stderr = None  # the running child's stderr file

    @property
    def dim(self) -> int:
        return self._dim

    def _ensure_started(self):
        import subprocess
        if self._proc is None or self._proc.poll() is not None:
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
        if self._proc is None:
            return b"", ""
        import subprocess
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

    def _fail(self, what: str, row: int | None = None) -> EvaluatorError:
        """Stop the child and describe ``what`` it did, with its stderr tail;
        the error names ``row``, the point at fault, if there is one."""
        _, stderr = self._stop(grace=0.0)
        exc = _external_error(what, stderr)
        exc.row = row
        return exc

    def _parse(self, line: bytes, row: int) -> float:
        text = line.decode(errors="replace")
        try:
            value = float(text)
        except ValueError:
            raise self._fail(f"returned non-numeric output {_quote(text)}", row)
        if not math.isfinite(value):
            raise self._fail(f"returned non-finite value {_quote(text)}", row)
        return value

    def many(self, points, rows: list | None = None) -> np.ndarray:
        """Values at the rows of an (n, dim) stack, in one pipelined exchange.

        Given a list, ``rows`` gets one :func:`tolalloc.files.sample_rows` text
        per chunk of answers, from the request lines sent: no coordinate is
        formatted twice.

        On failure the child is stopped, the next call starts a new one, and
        the :class:`EvaluatorError` names in ``row`` the point whose answer
        failed.  It names none for output that answers a request not yet
        written, or for a child that cannot start.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self._dim:
            raise ValueError(f"expected an (n, {self._dim}) stack of points, "
                             f"got shape {points.shape}")
        values = np.empty(len(points))
        answered = 0
        try:
            for chunk, requests in self._answers(points):
                values[answered:answered + len(chunk)] = chunk
                answered += len(chunk)
                if rows is not None:
                    rows.append(sample_rows(requests, chunk))
        except BaseException:
            # An interrupted batch leaves answers in flight; drop them
            # with the child rather than read them as the next batch's.
            self._stop(grace=0.0)
            raise
        return values

    def _answers(self, points: np.ndarray):
        """The child's answers to the rows of ``points``, in order, as chunks:
        the values read in one go, with the request line of each.  Requests
        are encoded REQUEST_BLOCK_ROWS at a time and written as the child's
        stdin accepts them, while answers are read as they arrive.  A line is
        taken as an answer only while a request written is unanswered; a byte
        beyond the answer to the last request written is unsolicited output."""
        import select
        proc = self._ensure_started()
        out_fd, in_fd = proc.stdout.fileno(), proc.stdin.fileno()
        n, answered, encoded, written = len(points), 0, 0, 0
        outbox = b""
        pending = b""  # stdout bytes read but not yet consumed
        unanswered = []  # the request lines encoded but not yet answered
        deadline = time.monotonic() + self.timeout_seconds
        while answered < n:
            if not outbox and encoded < n:
                block = points[encoded:encoded + REQUEST_BLOCK_ROWS]
                text = format_rows(block, " ", "\n")
                unanswered += text.splitlines()
                outbox = text.encode()
                encoded += len(block)
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise self._fail(f"timed out after {self.timeout_seconds}s", answered)
            readable, writable, _ = select.select([out_fd], [in_fd] if outbox else [], [],
                                                  remaining)
            if readable:
                chunk = os.read(out_fd, READ_BYTES)
                if not chunk:
                    raise self._fail(f"exited on request "
                                     f"{format_rows(points[answered:answered + 1], ' ', '')!r}",
                                     answered)
                lines = (pending + chunk).split(b"\n")
                taken = min(len(lines) - 1, written - answered)
                pending = b"\n".join(lines[taken:])
                if taken:
                    requests, unanswered = unanswered[:taken], unanswered[taken:]
                    # float() of bytes reads only ASCII, and what it reads, it
                    # reads as float() of the decoded line does.
                    try:
                        values = list(map(float, lines[:taken]))
                    except ValueError:
                        values = None
                    if values is None or not all(map(math.isfinite, values)):
                        # One line at a time, so that the error names its own row.
                        values = [self._parse(line, answered + row)
                                  for row, line in enumerate(lines[:taken])]
                    yield values, requests
                    answered += taken
                    deadline = time.monotonic() + self.timeout_seconds
                if pending and answered == written < n:
                    raise self._fail(f"wrote unsolicited output {_quote(pending)}")
            if writable:
                try:
                    sent = os.write(in_fd, outbox)
                except BrokenPipeError:
                    # The child stopped reading; reading stdout to its end
                    # still takes its answers to the requests it was sent.
                    outbox, encoded = b"", n
                else:
                    written += outbox.count(b"\n", 0, sent)
                    outbox = outbox[sent:]
        if pending:
            raise self._fail(f"wrote unsolicited output {_quote(pending)} after its answer "
                             f"to {format_rows(points[-1:], ' ', '')!r}", n - 1)

    def close(self) -> None:
        """Stop the child.  Raises :class:`EvaluatorError`, once the child is
        reaped, if it wrote output that no request asked for."""
        stray, stderr = self._stop(grace=5.0)
        if stray:
            raise _external_error(f"wrote unsolicited output {_quote(stray)} "
                                  f"after its last answer", stderr)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _external_error(what: str, stderr: str) -> EvaluatorError:
    stderr = stderr.strip()
    detail = f"; stderr: {stderr}" if stderr else ""
    return EvaluatorError(f"external evaluator {what}{detail}")


def _quote(output) -> str:
    """The repr of the child's ``output``, bytes or str, cut after STDOUT_QUOTE_CHARS."""
    more = len(output) - STDOUT_QUOTE_CHARS
    return repr(output[:STDOUT_QUOTE_CHARS]) + (f" and {more} more" if more > 0 else "")


# ---------------------------------------------------------------------------
# Max composite
# ---------------------------------------------------------------------------

class MaxComposite(Evaluator):
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

    def many(self, points) -> np.ndarray:
        """Elementwise maximum of the children's values at the rows of an
        (n, dim) stack."""
        return np.max([child.many(points) for child in self.children], axis=0)

    def close(self) -> None:
        """Close every child, even after one of them raises."""
        with contextlib.ExitStack() as stack:
            for child in self.children:
                stack.callback(child.close)


# ---------------------------------------------------------------------------
# Config factory and sampling
# ---------------------------------------------------------------------------

# The keys each evaluator variant reads besides "variant": required, optional.
VARIANT_KEYS = {
    "builtin": ({"name"}, {"parameters"}),
    "tabulated": ({"path"}, set()),
    "external": ({"command", "dim"}, {"timeout_seconds"}),
    "max": ({"children"}, set()),
}


def from_config(spec: dict):
    """Build an evaluator from its JSON description.

    Variants: ``{"variant": "builtin", "name": ..., "parameters": {...}}``,
    ``{"variant": "tabulated", "path": ...}``,
    ``{"variant": "external", "command": [...], "dim": ..., "timeout_seconds": ...}``,
    ``{"variant": "max", "children": [spec, ...]}``.  A key the variant does
    not read, or a missing one, is a ``ValueError`` that names it.
    """
    variant = _fields(spec, "an evaluator spec", ["variant"])["variant"]
    if not isinstance(variant, str) or variant not in VARIANT_KEYS:
        raise ValueError(f"unknown evaluator variant {variant!r}")
    required, optional = VARIANT_KEYS[variant]
    _fields(spec, f"{variant} evaluator", {"variant", *required}, optional)
    if variant == "builtin":
        return make_builtin(spec["name"], spec.get("parameters"))
    if variant == "tabulated":
        if not isinstance(spec["path"], str):
            raise ValueError(f"path must be a string, got {spec['path']!r}")
        return TabulatedEvaluator(SampleSet(*read_samples(spec["path"])))
    if variant == "external":
        return ExternalEvaluator(spec["command"], dim=spec["dim"],
                                 timeout_seconds=spec.get("timeout_seconds", 60.0))
    if not isinstance(spec["children"], list):
        raise ValueError("children must be a non-empty list of evaluator specs, "
                         f"got {spec['children']!r}")
    return MaxComposite(from_config(child) for child in spec["children"])


def draw_samples(evaluator, domain, n: int, seed: int) -> SampleSet:
    """Draw n i.i.d. uniform points over the box and evaluate them.

    Uses a counter-based generator (SplitMix64, :func:`_uniform`) so sequences
    reproduce across platforms and numpy versions.  Sample order is
    deterministic given the seed, an integer in [0, 2**64).  An external
    evaluator renders the sample-file rows during its exchange, and the set
    carries them as ``csv_text``.
    """
    _integer(n, "n", 1)
    _integer(seed, "seed", 0, 2**64)
    intervals = tuple(domain)
    if len(intervals) != evaluator.dim:
        raise ValueError(f"sampling domain has {len(intervals)} interval(s) for a "
                         f"{evaluator.dim}-parameter evaluator")
    lo = np.array([iv.lo for iv in intervals])
    width = np.array([iv.width for iv in intervals])
    points = lo + _uniform(seed, (n, len(intervals))) * width
    rows = [] if isinstance(evaluator, ExternalEvaluator) else None
    try:
        values = evaluator.many(points) if rows is None else evaluator.many(points, rows)
    except EvaluatorError as exc:
        at = "" if exc.row is None else f" at mu={points[exc.row].tolist()}"
        raise EvaluatorError(f"evaluation failed{at}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EvaluatorError(f"evaluation failed at mu={points[bad[0]].tolist()}: "
                             f"non-finite value {float(values[bad[0]])}")
    return SampleSet(points=points, values=values,
                     csv_text=None if rows is None else "".join(rows))
