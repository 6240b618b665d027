"""Every file the toolkit reads or writes, and the rules that read input values.

Each artifact has one atomic writer here, and each that a command reads one
reader, so its keys and columns are spelled once.  Imports no ``tolalloc`` module.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

# The format_version of every file the toolkit writes and reads.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Input rules
# ---------------------------------------------------------------------------

def _number_array(value, name: str) -> np.ndarray:
    """``value``, a number or nested lists of numbers, as a float array: the one
    parser of input numbers.  A bool, a string, NaN, an infinity or an integer
    too big for a float raises ValueError naming ``name``."""
    for item in np.asarray(value, dtype=object).ravel():
        if isinstance(item, bool) or not isinstance(item, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must hold only numbers, got {value!r}")
    try:
        array = np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the largest float
        array = np.array(np.inf)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must hold only finite numbers, got {value!r}")
    return array


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` if it is an integer, not a bool, with low <= value (and
    value < high when ``high`` is given); else a ValueError naming ``name``."""
    if type(value) is not int or value < low or high is not None and value >= high:
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _fields(value, name: str, required=(), optional=None) -> dict:
    """``value`` if it is a JSON object with every key of ``required`` and, when
    ``optional`` is given, no key outside both: the one reader of an input
    object's keys.  A ``format_version`` key must be FORMAT_VERSION, checked
    first.  Else a ValueError naming ``name`` and the keys at fault."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    if "format_version" in value:
        _integer(value["format_version"], f"unsupported format_version in {name}: format_version",
                 FORMAT_VERSION, FORMAT_VERSION + 1)
    missing = sorted(set(required) - set(value))
    if missing:
        raise ValueError(f"{name} lacks key(s) {', '.join(missing)}")
    if optional is not None:
        known = {*required, *optional}
        unknown = sorted(set(value) - known)
        if unknown:
            raise ValueError(f"{name} does not read key(s) {', '.join(unknown)}; "
                             f"it reads {', '.join(sorted(known)) or 'no key'}")
    return value


class Interval:
    """A closed parameter interval [lo, hi] with lo < hi; equal to another with
    the same bounds."""

    def __init__(self, lo: float, hi: float):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _intervals(value, name: str) -> tuple[Interval, ...]:
    """``value``, a list of [lo, hi] pairs of numbers with lo < hi, as
    Intervals; else a ValueError naming ``name``."""
    pairs = _number_array(value, name)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.all(pairs[:, 0] < pairs[:, 1]):
        raise ValueError(f"{name} must be a list of [lo, hi] pairs with lo < hi, got {value!r}")
    return tuple(Interval(lo, hi) for lo, hi in pairs.tolist())


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def atomic_write(path, write) -> None:
    """Call ``write(tmp)`` on a new file beside ``path`` (with the umask's mode),
    then rename it over ``path``, so readers never see a partial artifact."""
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


def format_rows(table, sep: str = ",", end: str = "\r\n") -> str:
    """The rows of a 2-d float ``table``, each cell ``repr(float(v))`` (which
    reads back bit for bit), joined by ``sep`` and each row ended by ``end``,
    in one ``%r`` pass over the Python floats of its ``tolist()``."""
    table = np.asarray(table, dtype=float)
    line = sep.join(["%r"] * table.shape[1]) + end
    return (line * table.shape[0]) % tuple(table.ravel().tolist())


def write_csv(path, header, rows) -> None:
    """Write the ``header`` line and ``rows`` as CSV, atomically.  ``rows`` is a
    2-d float table, written through :func:`format_rows`, or text it rendered."""
    text = ",".join(header) + "\r\n" + (rows if isinstance(rows, str) else format_rows(rows))
    atomic_write(path, lambda tmp: Path(tmp).write_text(text, newline=""))


def read_json(path):
    return json.loads(Path(path).read_text())


def write_domain(path, bbox, intervals, capped) -> None:
    """The tolerance box, the sampling intervals and the axes that hit their cap."""
    write_json(path, {"format_version": FORMAT_VERSION, "tau_min": bbox.tau_min.tolist(),
                      "tau_max": bbox.tau_max.tolist(),
                      "sampling_domain": [[iv.lo, iv.hi] for iv in intervals],
                      "capped": capped})


def read_domain(data, path, box) -> tuple:
    """``box(tau_min, tau_max)`` and the sampling intervals of the domain file
    ``path``'s object, in that order."""
    where = f"domain file {path}"
    _fields(data, where, ("tau_min", "tau_max", "sampling_domain"))
    tau_min, tau_max = (_number_array(data[name], f"field {name!r} of {where}")
                        for name in ("tau_min", "tau_max"))
    return box(tau_min, tau_max), _intervals(data["sampling_domain"],
                                             f"field 'sampling_domain' of {where}")


def write_samples(path, samples) -> None:
    """``mu_1,...,mu_d,q``, then each point and its value (or ``csv_text``)."""
    rows = samples.csv_text
    write_csv(path, [f"mu_{i + 1}" for i in range(samples.dim)] + ["q"],
              np.column_stack([samples.points, samples.values]) if rows is None else rows)


def sample_rows(requests, values) -> str:
    """The sample-file rows of request lines (``format_rows`` with sep " ") and
    their values: no ``%r`` of a float holds a space."""
    return "".join([f"{request},{value!r}\r\n"
                    for request, value in zip(requests, values)]).replace(" ", ",")


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Points and values of a sample file: ``mu_1,...,mu_d,q``, then d + 1
    finite floats a row, with no blank line, comment or quote."""
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
        finite = np.isfinite(table).all(axis=1)
        if not finite.all():
            raise ValueError(f"line {int(np.argmin(finite)) + 2} holds a non-finite number")
    except ValueError as exc:
        raise ValueError(f"malformed sample file {path}: {exc}") from exc
    return table[:, :-1], table[:, -1]


def model_dict(model) -> dict:
    return {"format_version": FORMAT_VERSION, "dim": model.dim, "rank": model.rank,
            "degree": model.degree, "intervals": [[iv.lo, iv.hi] for iv in model.intervals],
            "scales": model.scales.tolist(), "coeffs": model.coeffs.tolist()}


def write_model(path, model) -> None:
    write_json(path, model_dict(model))


def model_fields(data) -> dict:
    """The SeparatedModel fields of a model file's object; a ValueError names
    the key at fault, and other keys are ignored."""
    _fields(data, "model", "format_version dim rank degree intervals scales coeffs".split())
    return {"dim": _integer(data["dim"], "dim", 1), "rank": _integer(data["rank"], "rank", 1),
            "degree": _integer(data["degree"], "degree", 0),
            "intervals": _intervals(data["intervals"], "intervals"),
            "scales": _number_array(data["scales"], "scales"),
            "coeffs": _number_array(data["coeffs"], "coeffs")}


def write_result(path, result) -> None:
    write_json(path, {"format_version": FORMAT_VERSION, "method": result.method,
                      "tau": result.tau.tolist(), "f_opt": result.f_opt,
                      "g_residual": result.g_residual, "iterations": result.iterations,
                      "stop": result.stop, "restarts": result.trace.restarts})


def read_tau(data, where: str) -> np.ndarray:
    """The tau of the result file ``where``'s object, finite numbers >= 0."""
    tau = _fields(data, where, ("tau",))["tau"]
    name = f"{where} lacks a 'tau' vector of finite numbers >= 0"
    vector = _number_array(tau, f"{name}: tau")
    if vector.ndim != 1 or np.any(vector < 0.0):
        raise ValueError(f"{name}: got {tau!r}")
    return vector


def write_trace(path, trace) -> None:
    """Each iterate's index, tau, F, G residual and events (``wall:AXIS``, ``restart``)."""
    events = {}
    for iteration, axis in trace.wall_events:
        events.setdefault(iteration, []).append(f"wall:{axis}")
    for iteration in trace.restarts:
        events.setdefault(iteration, []).append("restart")
    dim = trace.iterates[0].size if trace.iterates else 0
    write_csv(path, ["iter", *(f"tau_{i + 1}" for i in range(dim)), "F", "G_residual", "event"],
              "".join(",".join([str(it), *map(repr, map(float, [*tau, f, g])),
                                ";".join(events.get(it, []))]) + "\r\n"
                      for it, (tau, f, g)
                      in enumerate(zip(trace.iterates, trace.f_values, trace.g_residuals))))


def write_scan(path, taus, g) -> None:
    write_csv(path, ["tau_1", "tau_2", "G"], np.column_stack([taus, g]))


def write_summary(directory, load) -> tuple[Path, list]:
    """Write ``load(path)`` of every other JSON file of ``directory`` to its
    summary.json; return that path and (name, method, tau, F) of each result."""
    path = Path(directory) / "summary.json"
    if not path.parent.is_dir():
        raise ValueError(f"not a directory: {path.parent}")
    artifacts = {other.name: load(other) for other in sorted(path.parent.glob("*.json"))
                 if other != path}
    write_json(path, {"format_version": FORMAT_VERSION, "artifacts": artifacts})
    return path, [(name, data.get("method", "?"), data["tau"], data.get("f_opt"))
                  for name, data in artifacts.items() if isinstance(data, dict) and "tau" in data]
