import gc
import os
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from tolalloc import Interval, SampleSet
from tolalloc.evaluator import (
    REQUEST_BLOCK_ROWS,
    AbsSum,
    DomainError,
    Evaluator,
    EvaluatorError,
    ExpCos,
    ExternalEvaluator,
    LinearForm,
    MaxComposite,
    QuadraticBowl,
    Rank2Synthetic,
    TabulatedEvaluator,
    builtin_catalog,
    draw_samples,
    from_config,
    make_builtin,
)
from tolalloc.files import read_samples, write_samples
from tolalloc.surrogate import _uniform
from helpers.splitmix64 import splitmix64, uniforms

SERVER = "tests/helpers/quadratic_bowl_server.py"
MISBEHAVING = "tests/helpers/misbehaving_server.py"


# ---------------------------------------------------------------------------
# Builtin analytic problems
# ---------------------------------------------------------------------------

def test_quadratic_bowl_value():
    bowl = QuadraticBowl(a=[2.0, 3.0], center=[0.5, -1.0])
    assert bowl(np.array([1.5, 1.0])) == pytest.approx(2.0 * 1.0 + 3.0 * 4.0)
    assert bowl([0.5, -1.0]) == 0.0


def test_quadratic_bowl_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QuadraticBowl(a=[[1.0]])
    with pytest.raises(ValueError):
        QuadraticBowl(a=[1.0, 2.0], center=[0.0])


def test_abs_sum_value():
    f = AbsSum(a=[1.0, 2.0])
    assert f([-0.5, 0.25]) == pytest.approx(0.5 + 0.5)
    assert AbsSum(a=[1.0, 2.0], center=[1.0, -1.0])([0.0, 0.0]) == pytest.approx(1.0 + 2.0)


def test_exp_cos_matches_formula():
    f = ExpCos()
    mu = np.array([0.3, -0.2])
    assert f(mu) == pytest.approx(np.exp(0.3) * np.cos(-0.2))


def test_rank2_synthetic_is_reproducible_and_separated():
    f = Rank2Synthetic()
    g = Rank2Synthetic()
    mu = np.array([0.31, -0.47])
    assert f(mu) == g(mu)
    model = f.model
    assert model.rank == 2 and model.degree == 3
    assert model(mu) == f(mu)


def test_rank2_synthetic_coefficients_are_the_seeded_draw():
    # The module writes the draw out so that it imports no numpy.random.
    expected = np.random.default_rng(20240217).uniform(-1.0, 1.0, size=(2, 2, 4))
    assert Rank2Synthetic().model.coeffs.tobytes() == expected.tobytes()


def test_linear_form():
    f = LinearForm(a=[1.0, -2.0, 0.5])
    assert f([1.0, 1.0, 2.0]) == pytest.approx(0.0)
    assert f([9.0, 9.0, 9.0]) == pytest.approx(-4.5)


def test_builtin_catalog_and_factory():
    catalog = builtin_catalog()
    assert set(catalog) == {"quadratic-bowl", "abs-sum", "exp-cos", "rank2-synthetic", "linear"}
    bowl = make_builtin("quadratic-bowl", {"a": [1.0, 1.0]})
    assert bowl.dim == 2
    with pytest.raises(KeyError):
        make_builtin("no-such-problem")


# ---------------------------------------------------------------------------
# Tabulated evaluator
# ---------------------------------------------------------------------------

def _grid_samples(fn, axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    values = np.array([fn(p) for p in points])
    return SampleSet(points=points, values=values)


def test_tabulated_reproduces_grid_nodes():
    axes = (np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 4))
    samples = _grid_samples(lambda p: p[0] ** 2 + np.sin(p[1]), axes)
    tab = TabulatedEvaluator(samples)
    for point, value in zip(samples.points, samples.values):
        assert tab(point) == pytest.approx(value, abs=1e-14)


def test_tabulated_multilinear_exact_on_affine_data():
    axes = (np.linspace(-1.0, 1.0, 4), np.linspace(-2.0, 2.0, 6))
    samples = _grid_samples(lambda p: 3.0 * p[0] - 0.5 * p[1] + 1.0, axes)
    tab = TabulatedEvaluator(samples)
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = rng.uniform([-1.0, -2.0], [1.0, 2.0])
        assert tab(mu) == pytest.approx(3.0 * mu[0] - 0.5 * mu[1] + 1.0, abs=1e-12)


def test_tabulated_rejects_non_grid_and_out_of_hull():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="tensor-product"):
        TabulatedEvaluator(SampleSet(points=points, values=np.zeros(3)))
    repeated = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="duplicate or missing"):
        TabulatedEvaluator(SampleSet(points=repeated, values=np.zeros(4)))
    axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    tab = TabulatedEvaluator(_grid_samples(lambda p: 0.0, axes))
    with pytest.raises(DomainError):
        tab([1.5, 0.5])
    with pytest.raises(ValueError) as info:
        tab([0.5, 0.5, 0.5])
    assert not isinstance(info.value, DomainError)


# Axis lengths per dimension, 1 to 5 nodes, a single-node axis included.
SCIPY_ORACLE_AXES = {1: (5,), 2: (1, 4), 3: (3, 5, 2), 4: (2, 1, 5, 3)}


@pytest.mark.parametrize("d", sorted(SCIPY_ORACLE_AXES))
def test_tabulated_matches_scipy_linear(d):
    rng = np.random.default_rng(100 + d)
    axes = [np.sort(rng.uniform(-2.0, 3.0, n)) for n in SCIPY_ORACLE_AXES[d]]
    table = rng.normal(scale=50.0, size=SCIPY_ORACLE_AXES[d])
    nodes = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    order = rng.permutation(len(nodes))
    tab = TabulatedEvaluator(SampleSet(points=nodes[order], values=table.ravel()[order]))
    oracle = RegularGridInterpolator(axes, table, method="linear", bounds_error=True)

    assert [tab(node) for node in nodes] == list(table.ravel())
    points = np.column_stack([rng.uniform(ax[0], ax[-1], 2000) for ax in axes])
    ours = np.array([tab(point) for point in points])
    tolerance = 4 * np.spacing(np.abs(table).max())
    np.testing.assert_allclose(ours, oracle(points), rtol=0.0, atol=tolerance)

    outside = nodes[0].copy()
    outside[-1] = np.nextafter(axes[-1][-1], np.inf)
    with pytest.raises(DomainError):
        tab(outside)
    outside[-1] = np.nan
    with pytest.raises(DomainError):
        tab(outside)


def test_tabulated_csv_roundtrip(tmp_path):
    axes = (np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 3))
    samples = _grid_samples(lambda p: p[0] * p[1], axes)
    path = tmp_path / "table.csv"
    write_samples(path, samples)
    tab = TabulatedEvaluator(SampleSet(*read_samples(path)))
    assert tab([0.5, 0.5]) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# External subprocess evaluator
# ---------------------------------------------------------------------------

def test_external_matches_reference_values():
    with ExternalEvaluator([sys.executable, SERVER, "2.0,0.5"], dim=2) as ext:
        ref = QuadraticBowl(a=[2.0, 0.5])
        for mu in ([0.0, 0.0], [1.0, -2.0], [0.3, 0.7]):
            assert ext(mu) == pytest.approx(ref(mu), rel=1e-15)


def test_external_reports_non_numeric_output():
    # Request dimension disagrees with the server's coefficient vector, so the
    # child answers with an error string instead of a number.
    with ExternalEvaluator([sys.executable, SERVER, "1.0"], dim=2) as ext:
        with pytest.raises(EvaluatorError, match="non-numeric"):
            ext([1.0, 2.0])


def test_external_restarts_after_child_death():
    ext = ExternalEvaluator([sys.executable, SERVER, "1.0,1.0"], dim=2)
    try:
        assert ext([1.0, 1.0]) == pytest.approx(2.0)
        ext._proc.kill()
        ext._proc.wait()
        # The next call should transparently restart the child.
        assert ext([2.0, 0.0]) == pytest.approx(4.0)
    finally:
        ext.close()


def test_external_rejects_wrong_arity_and_bad_command():
    ext = ExternalEvaluator([sys.executable, SERVER, "1.0"], dim=1)
    with pytest.raises(ValueError):
        ext([1.0, 2.0])
    ext.close()
    missing = ExternalEvaluator(["/no/such/binary"], dim=1)
    with pytest.raises(EvaluatorError, match="cannot start"):
        missing([0.0])
    with pytest.raises(ValueError):
        ExternalEvaluator(["cat"], dim=0)


def test_external_timeout():
    with ExternalEvaluator([sys.executable, "-c", "import time; time.sleep(30)"],
                           dim=1, timeout_seconds=0.2) as ext:
        with pytest.raises(EvaluatorError, match="timed out"):
            ext([1.0])


def test_external_rejects_unsolicited_output():
    # Read as two answers, the duplicate line would make [3, 0] return the
    # stale 5.0 of [1, 2] instead of 9.0.
    with ExternalEvaluator([sys.executable, MISBEHAVING, "twice"], dim=2) as ext:
        with pytest.raises(EvaluatorError, match="unsolicited output"):
            ext([1.0, 2.0])
        with pytest.raises(EvaluatorError, match="unsolicited output"):
            ext([3.0, 0.0])


def test_external_survives_a_child_that_logs_to_stderr():
    with ExternalEvaluator([sys.executable, MISBEHAVING, "chatty"],
                           dim=2, timeout_seconds=5.0) as ext:
        for k in range(2000):
            assert ext([float(k), 1.0]) == float(k * k + 1)


def test_external_error_quotes_the_tail_of_child_stderr():
    script = ("import sys; sys.stderr.write('x' * 100000 + '\\nsolver: licence expired\\n');"
              " sys.exit(1)")
    with ExternalEvaluator([sys.executable, "-c", script], dim=1) as ext:
        with pytest.raises(EvaluatorError, match="solver: licence expired") as exc:
            ext([1.0])
    assert len(str(exc.value)) < 5000


def test_external_survives_a_flood_of_non_utf8_output():
    # The child answers, then writes 200 000 0xff bytes: more than one pipe
    # read, none of it UTF-8.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ext = ExternalEvaluator([sys.executable, MISBEHAVING, "flood"], dim=1)
        with pytest.raises(EvaluatorError, match="unsolicited output"):
            ext([1.0])
        assert ext._proc is None
        ext.close()
        del ext
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("output, named", [
    ("'1.0\\n' + 'x' * 200000", "unsolicited output"),
    ("'x' * 200000 + '\\n'", "non-numeric output"),
], ids=["after-answer", "long-line"])
def test_external_error_quotes_a_bounded_head_of_child_output(output, named):
    script = f"import sys; sys.stdin.readline(); sys.stdout.write({output}); sys.stdout.flush()"
    with ExternalEvaluator([sys.executable, "-c", script], dim=1) as ext:
        with pytest.raises(EvaluatorError, match=named) as exc:
            ext([1.0])
    assert len(str(exc.value)) < 5000


def test_external_timeout_on_partial_line():
    with ExternalEvaluator([sys.executable, MISBEHAVING, "no-newline"],
                           dim=1, timeout_seconds=1.0) as ext:
        start = time.monotonic()
        with pytest.raises(EvaluatorError, match="timed out"):
            ext([1.0])
        assert time.monotonic() - start < 10.0


def test_external_many_on_a_large_batch_matches_per_point_calls():
    # 20 000 requests and answers are each more than a pipe buffer, so a
    # parent that wrote everything before reading would deadlock.
    points = np.column_stack([np.arange(20_000) * 0.37, np.full(20_000, -1.25)])
    with ExternalEvaluator([sys.executable, MISBEHAVING, "chatty"],
                           dim=2, timeout_seconds=5.0) as ext:
        batch = ext.many(points)
        single = np.array([ext(point) for point in points[::97]])
    np.testing.assert_array_equal(batch[::97], single)
    np.testing.assert_array_equal(batch, [sum(float(v) ** 2 for v in p) for p in points])


def test_external_many_writes_requests_ahead_of_the_answers():
    # The child answers nothing until it holds K requests.
    k = 7
    points = np.arange(6 * k, dtype=float).reshape(3 * k, 2)
    with ExternalEvaluator([sys.executable, MISBEHAVING, "batch", str(k)],
                           dim=2, timeout_seconds=1.0) as ext:
        with pytest.raises(EvaluatorError, match="timed out"):
            ext(points[0])
        np.testing.assert_array_equal(ext.many(points[:k]), (points[:k] ** 2).sum(axis=1))
        np.testing.assert_array_equal(ext.many(points), (points ** 2).sum(axis=1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_external_duplicated_answers_fail_no_later_than_close(n):
    # Pipelined, the copy of answer j can be read as answer j + 1; the batch
    # or, at the latest, close() must see the copy left over at the end.
    points = np.arange(2.0 * n).reshape(n, 2)
    ext = ExternalEvaluator([sys.executable, MISBEHAVING, "slow-twice"], dim=2)
    with pytest.raises(EvaluatorError, match="unsolicited output"):
        try:
            ext.many(points)
        finally:
            ext.close()
    assert ext._proc is None


@pytest.mark.parametrize("mode, named", [
    ("exit-after", "exited on request"),
    ("garbage-at", "non-numeric output 'oops'"),
    ("stall-at", "timed out"),
])
def test_external_failure_mid_batch_names_the_row_and_restarts(mode, named):
    k, domain = 3, (Interval(-1, 1), Interval(-1, 1))
    points = draw_samples(QuadraticBowl(a=[1.0, 1.0]), domain, 8, seed=4).points
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ext = ExternalEvaluator([sys.executable, MISBEHAVING, mode, str(k)],
                                dim=2, timeout_seconds=1.0)
        with pytest.raises(EvaluatorError, match=named) as exc:
            draw_samples(ext, domain, 8, seed=4)
        assert f"evaluation failed at mu={points[k].tolist()}:" in str(exc.value)
        assert exc.value.__cause__.row == k
        assert ext._proc is None
        np.testing.assert_array_equal(ext.many(points[:k]), (points[:k] ** 2).sum(axis=1))
        ext.close()
        del ext
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# Reads ARGV[1] requests, then writes every answer in one call, so the parent
# reads them as one chunk: sum of squares, with ARGV[2] digits ("ascii" or
# "arabic-indic") and ARGV[3] line ends, the answer to row ARGV[4] (if given)
# replaced by ARGV[5].
BLOCK_CHILD = """
import sys
n, digits, end = int(sys.argv[1]), sys.argv[2], sys.argv[3].encode().decode("unicode_escape")
bad = {int(sys.argv[4]): sys.argv[5]} if len(sys.argv) > 4 else {}
table = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
answers = [repr(sum(float(t) ** 2 for t in sys.stdin.readline().split())) for _ in range(n)]
if digits == "arabic-indic":
    answers = [answer.translate(table) for answer in answers]
answers = [bad.get(row, answer) for row, answer in enumerate(answers)]
sys.stdout.buffer.write("".join(answer + end for answer in answers).encode())
sys.stdout.flush()
sys.stdin.read()
"""


@pytest.mark.parametrize("answer, named", [
    ("oops", "non-numeric output 'oops'"),
    ("nan", "non-finite value 'nan'"),
    ("-inf", "non-finite value '-inf'"),
    ("", "non-numeric output ''"),
])
def test_external_bad_answer_inside_a_chunk_names_its_own_row(answer, named):
    points = np.arange(16.0).reshape(8, 2)
    ext = ExternalEvaluator([sys.executable, "-c", BLOCK_CHILD, "8", "ascii", "\\n", "5", answer],
                            dim=2, timeout_seconds=5.0)
    with pytest.raises(EvaluatorError, match=named) as exc:
        ext.many(points)
    assert exc.value.row == 5
    assert ext._proc is None


@pytest.mark.parametrize("digits, end", [
    ("ascii", "\\r\\n"), ("arabic-indic", "\\n"), ("arabic-indic", "\\r\\n"),
], ids=["crlf", "arabic-indic", "arabic-indic-crlf"])
def test_external_accepts_answers_that_python_float_reads(digits, end):
    points = np.arange(16.0).reshape(8, 2)
    with ExternalEvaluator([sys.executable, "-c", BLOCK_CHILD, "8", digits, end],
                           dim=2, timeout_seconds=5.0) as ext:
        np.testing.assert_array_equal(ext.many(points), (points ** 2).sum(axis=1))


# Coordinates of many magnitudes, so that the %r of a cell takes each form:
# fixed, with an exponent, negative, and squares that underflow to 0.0.
SCALES = [(-1.0, 2.0), (-1e-12, 3e-13), (0.0, 1e20), (-1e-300, 1e-300), (-7e5, -6e5)]


@pytest.mark.parametrize("d", [1, 2, 5])
def test_external_sample_file_is_the_file_of_its_arrays(tmp_path, d):
    domain = tuple(Interval(lo, hi) for lo, hi in SCALES[:d])
    streamed, rendered = tmp_path / "streamed.csv", tmp_path / "rendered.csv"
    with ExternalEvaluator([sys.executable, SERVER, ",".join(["1.0"] * d)], dim=d) as ext:
        for n in (1, REQUEST_BLOCK_ROWS - 1, REQUEST_BLOCK_ROWS, REQUEST_BLOCK_ROWS + 1,
                  3 * REQUEST_BLOCK_ROWS + 7):
            samples = draw_samples(ext, domain, n, seed=n)
            assert samples.csv_text is not None
            write_samples(streamed, samples)
            write_samples(rendered, SampleSet(points=samples.points, values=samples.values))
            assert streamed.read_bytes() == rendered.read_bytes()
            np.testing.assert_array_equal(samples.values, (samples.points ** 2).sum(axis=1))


# Answers request j with ARGV[2 + j % (len(ARGV) - 2)] verbatim, ended by the
# escaped line end ARGV[1].
SPELLING_CHILD = """
import sys
end, spellings = sys.argv[1].encode().decode("unicode_escape"), sys.argv[2:]
for row, _ in enumerate(sys.stdin):
    sys.stdout.buffer.write((spellings[row % len(spellings)] + end).encode())
    sys.stdout.flush()
"""


@pytest.mark.parametrize("end", ["\\n", "\\r\\n"], ids=["lf", "crlf"])
def test_external_sample_file_rewrites_each_answer_as_the_repr_of_its_float(tmp_path, end):
    spellings = ["1.50", "+2", "1E3", "\u0661\u0662.\u0665", " -0 ", "7_0.25"]
    path = tmp_path / "samples.csv"
    with ExternalEvaluator([sys.executable, "-c", SPELLING_CHILD, end, *spellings],
                           dim=2, timeout_seconds=5.0) as ext:
        samples = draw_samples(ext, (Interval(-1, 1), Interval(-1, 1)), 13, seed=3)
    write_samples(path, samples)
    rows = path.read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == [
        repr(float(spellings[j % len(spellings)])) for j in range(13)]
    assert [row.split(",")[2] for row in rows][:4] == ["1.5", "2.0", "1000.0", "12.5"]
    assert [row.rsplit(",", 1)[0] for row in rows] == [
        f"{x!r},{y!r}" for x, y in samples.points.tolist()]


# Reads one request, answers ARGV[1] of them at once with 0.5, 1.5, ..., then
# reads the rest: the answers are ahead of the requests the parent wrote.
AHEAD_CHILD = """
import sys
sys.stdin.readline()
sys.stdout.write("".join(f"{j + 0.5!r}\\n" for j in range(int(sys.argv[1]))))
sys.stdout.flush()
sys.stdin.read()
"""


# An answer to a request not yet written answers no point, so the error names
# no row.
@pytest.mark.parametrize("command", [["-c", AHEAD_CHILD], [MISBEHAVING, "early-close"]],
                         ids=["ahead", "early-close"])
def test_external_answers_beyond_the_requests_written_are_unsolicited(command):
    n = 3 * REQUEST_BLOCK_ROWS + 7
    with ExternalEvaluator([sys.executable, *command, str(n)], dim=2,
                           timeout_seconds=5.0) as ext:
        with pytest.raises(EvaluatorError,
                           match="^evaluation failed: .*unsolicited output") as exc:
            draw_samples(ext, (Interval(-1, 1), Interval(-1, 1)), n, seed=5)
        assert exc.value.__cause__.row is None
        assert ext._proc is None


# Reads ARGV[1] requests, closes its stdin, answers them and exits.  Closing
# before it answers makes the parent's next write fail, whether or not it has
# read the answers first.
CLOSING_CHILD = """
import os, sys
requests = [sys.stdin.readline() for _ in range(int(sys.argv[1]))]
os.close(0)
sys.stdout.write("".join(f"{sum(float(t) ** 2 for t in line.split())!r}\\n" for line in requests))
"""


def test_external_child_that_stops_reading_fails_at_the_first_request_it_did_not_answer(
        monkeypatch):
    # 5 000 requests are well over a 64 KiB pipe, so requests are still
    # waiting to be written when the child closes its stdin.
    k, points = 3, 2.0 * _uniform(8, (5000, 2)) - 1.0
    broken, write = [], os.write

    def recording_write(fd, data):
        try:
            return write(fd, data)
        except BrokenPipeError:
            broken.append(fd)
            raise

    monkeypatch.setattr(os, "write", recording_write)
    ext = ExternalEvaluator([sys.executable, "-c", CLOSING_CHILD, str(k)], dim=2,
                            timeout_seconds=5.0)
    with pytest.raises(EvaluatorError) as exc:
        ext.many(points)
    assert str(exc.value) == (f"external evaluator exited on request "
                              f"{' '.join(map(repr, points[k].tolist()))!r}")
    assert exc.value.row == k
    assert len(broken) == 1
    assert ext._proc is None


def test_external_batch_interrupted_between_chunks_stops_the_child():
    # 5000 answers take more than one READ_BYTES read, so at least two chunks.
    points = 2.0 * _uniform(3, (5000, 2)) - 1.0
    children = []

    class InterruptedRows(list):
        """Rows whose second append, after the second chunk, is interrupted."""

        def append(self, text):
            children.append(ext._proc)
            if len(children) == 2:
                raise KeyboardInterrupt
            super().append(text)

    with ExternalEvaluator([sys.executable, SERVER, "1.0,1.0"], dim=2) as ext:
        with pytest.raises(KeyboardInterrupt):
            ext.many(points, InterruptedRows())
        assert ext._proc is None and children[0].returncode is not None
        np.testing.assert_array_equal(ext.many(points[:8]), (points[:8] ** 2).sum(axis=1))
        assert ext._proc.pid != children[0].pid


def test_external_many_rejects_a_stack_of_the_wrong_shape():
    ext = ExternalEvaluator([sys.executable, SERVER, "1.0,1.0"], dim=2)
    for points in ([1.0, 2.0], np.zeros((3, 1))):
        with pytest.raises(ValueError, match="stack of points"):
            ext.many(points)
    assert ext._proc is None


# ---------------------------------------------------------------------------
# Max composite
# ---------------------------------------------------------------------------

def test_max_composite_value_is_the_largest_child_value():
    comp = MaxComposite([LinearForm([1.0, 0.0]), LinearForm([0.0, 1.0])])
    assert comp([2.0, 1.0]) == 2.0
    assert comp([1.0, 3.0]) == 3.0
    assert comp([1.5, 1.5]) == 1.5


def test_max_composite_validates_children():
    with pytest.raises(ValueError):
        MaxComposite([])
    with pytest.raises(ValueError, match="dim"):
        MaxComposite([LinearForm([1.0]), LinearForm([1.0, 2.0])])


def test_max_composite_close_stops_every_child_when_one_fails():
    duplicating = ExternalEvaluator([sys.executable, MISBEHAVING, "slow-twice"], dim=2)
    honest = ExternalEvaluator([sys.executable, SERVER, "1.0,1.0"], dim=2)
    comp = MaxComposite([duplicating, honest])
    duplicating.many(np.zeros((2, 2)))  # leaves the copy of the second answer unread
    assert honest([1.0, 2.0]) == 5.0
    with pytest.raises(EvaluatorError, match="after its last answer"):
        comp.close()
    assert duplicating._proc is None and honest._proc is None


def test_max_composite_samples_as_its_children_do_point_by_point():
    # Two children answer batches over the line protocol; the linear one
    # answers in process.
    comp = MaxComposite([ExternalEvaluator([sys.executable, MISBEHAVING, "chatty"], dim=2),
                         ExternalEvaluator([sys.executable, SERVER, "4.0,0.25"], dim=2),
                         LinearForm([1.0, -1.0])])
    domain = (Interval(-1.0, 1.0), Interval(-2.0, 2.0))
    try:
        samples = draw_samples(comp, domain, 200, seed=3)
        batch = comp.many(samples.points)
        per_point = np.array([[child(point) for child in comp.children]
                              for point in samples.points])
    finally:
        comp.close()
    assert len(set(per_point.argmax(axis=1))) == 3
    np.testing.assert_array_equal(batch, per_point.max(axis=1))
    np.testing.assert_array_equal(samples.values, batch)


class FailsAtRow(Evaluator):
    """Q(mu) = mu_1, raising EvaluatorError at row ``k`` of a batch that has one."""

    dim = 2

    def __init__(self, k):
        self.k = k

    def many(self, points) -> np.ndarray:
        if len(points) > self.k:
            exc = EvaluatorError("no value")
            exc.row = self.k
            raise exc
        return np.asarray(points, dtype=float)[:, 0]


@pytest.mark.parametrize("children", [
    lambda k: [ExternalEvaluator([sys.executable, MISBEHAVING, "garbage-at", str(k)], dim=2),
               ExternalEvaluator([sys.executable, SERVER, "1.0,1.0"], dim=2)],
    lambda k: [ExternalEvaluator([sys.executable, SERVER, "1.0,1.0"], dim=2),
               ExternalEvaluator([sys.executable, MISBEHAVING, "garbage-at", str(k)], dim=2)],
    lambda k: [LinearForm([1.0, 1.0]), FailsAtRow(k)],
], ids=["first-child", "second-child", "per-point-child"])
def test_max_composite_failure_mid_batch_names_the_row(children):
    k, domain = 3, (Interval(-1, 1), Interval(-1, 1))
    points = draw_samples(QuadraticBowl(a=[1.0, 1.0]), domain, 8, seed=4).points
    comp = MaxComposite(children(k))
    try:
        with pytest.raises(EvaluatorError) as exc:
            draw_samples(comp, domain, 8, seed=4)
    finally:
        comp.close()
    assert f"evaluation failed at mu={points[k].tolist()}:" in str(exc.value)
    assert exc.value.__cause__.row == k


# ---------------------------------------------------------------------------
# The evaluator contract
# ---------------------------------------------------------------------------

# The parameters of each builtin that takes some; the others take none.
BUILTIN_PARAMETERS = {
    "quadratic-bowl": {"a": [2.0, 0.5], "center": [0.25, -0.5]},
    "abs-sum": {"a": [1.0, 3.0], "center": [-0.5, 0.125]},
    "linear": {"a": [1.5, -2.0]},
}
CONTRACT_CASES = {
    **{name: lambda name=name: make_builtin(name, BUILTIN_PARAMETERS.get(name))
       for name in sorted(builtin_catalog())},
    "tabulated": lambda: TabulatedEvaluator(_grid_samples(
        lambda p: p[0] ** 2 + np.sin(p[1]), (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 4))
    )),
    "external": lambda: ExternalEvaluator([sys.executable, SERVER, "2.0,0.5"], dim=2),
    "max": lambda: MaxComposite([ExternalEvaluator([sys.executable, SERVER, "2.0,0.5"], dim=2),
                                 make_builtin("exp-cos")]),
}


@pytest.mark.parametrize("make", CONTRACT_CASES.values(), ids=CONTRACT_CASES.keys())
def test_every_evaluator_answers_a_point_as_a_batch_of_one(make):
    # Points of [-1, 1]^2, where every case is defined.
    points = 2.0 * _uniform(9, (40, 2)) - 1.0
    evaluator = make()
    try:
        batch = evaluator.many(points)
        single = np.array([evaluator(point) for point in points])
        for wrong in (points[0, :1], np.zeros(3), points[:2]):
            with pytest.raises(ValueError, match="expected 2 components"):
                evaluator(wrong)
    finally:
        evaluator.close()
    assert batch.dtype == np.float64 and batch.tobytes() == single.tobytes()


# ---------------------------------------------------------------------------
# Config factory
# ---------------------------------------------------------------------------

def test_from_config_builtin_and_max():
    spec = {
        "variant": "max",
        "children": [
            {"variant": "builtin", "name": "linear", "parameters": {"a": [1.0, 0.0]}},
            {"variant": "builtin", "name": "quadratic-bowl", "parameters": {"a": [1.0, 1.0]}},
        ],
    }
    comp = from_config(spec)
    assert comp.dim == 2
    assert comp([0.5, 0.0]) == pytest.approx(0.5)
    assert comp([2.0, 0.0]) == pytest.approx(4.0)


def test_from_config_tabulated_and_external(tmp_path):
    axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    samples = _grid_samples(lambda p: p[0] + p[1], axes)
    path = tmp_path / "grid.csv"
    write_samples(path, samples)
    tab = from_config({"variant": "tabulated", "path": str(path)})
    assert tab([0.5, 0.5]) == pytest.approx(1.0)
    ext = from_config({
        "variant": "external",
        "command": [sys.executable, SERVER, "1.0"],
        "dim": 1,
        "timeout_seconds": 10,
    })
    with ext:
        assert ext([3.0]) == pytest.approx(9.0)
    with pytest.raises(ValueError, match="variant"):
        from_config({"variant": "mystery"})


# A key missing from a spec, or from a builtin's parameters, is named too.
@pytest.mark.parametrize("spec, message", [
    ({"variant": "tabulated", "path": "table.csv", "interpolation": "cubic"},
     "tabulated evaluator does not read key\\(s\\) interpolation; it reads path, variant"),
    ({"variant": "external", "command": ["solver"], "dim": 1, "timeout_second": 5},
     "does not read key\\(s\\) timeout_second"),
    ({"variant": "builtin", "name": "exp-cos", "params": {}}, "does not read key\\(s\\) params"),
    ({"variant": "max", "children": [{"variant": "builtin", "name": "exp-cos", "dim": 2}]},
     "does not read key\\(s\\) dim"),
    ({"variant": "builtin"}, "builtin evaluator lacks key\\(s\\) name"),
    ({"variant": "external", "command": ["solver"]}, "external evaluator lacks key\\(s\\) dim"),
    ({"variant": "max"}, "max evaluator lacks key\\(s\\) children"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": {"a": [1.0], "b": 1}},
     "'parameters' of quadratic-bowl does not read key\\(s\\) b; it reads a, center"),
    ({"variant": "builtin", "name": "quadratic-bowl", "parameters": [1]},
     "'parameters' of quadratic-bowl must be a JSON object, got \\[1\\]"),
    ({"variant": "builtin", "name": "linear", "parameters": {}},
     "'parameters' of linear lacks key\\(s\\) a"),
    ({"variant": "max", "children": {"variant": "builtin", "name": "exp-cos"}},
     "children must be a non-empty list of evaluator specs"),
    ([{"variant": "builtin"}], "an evaluator spec must be a JSON object"),
], ids=["tabulated", "external", "builtin", "max-child", "builtin-no-name", "external-no-dim",
        "max-no-children", "bowl-parameter-b", "bowl-parameters-list", "linear-no-a",
        "max-children-object", "spec-list"])
def test_from_config_rejects_keys_the_variant_does_not_read(spec, message):
    with pytest.raises(ValueError, match=message):
        from_config(spec)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_draw_samples_deterministic_and_inside_box():
    domain = (Interval(-0.5, 0.5), Interval(1.0, 3.0))
    first = draw_samples(ExpCos(), domain, 64, seed=7)
    second = draw_samples(ExpCos(), domain, 64, seed=7)
    np.testing.assert_array_equal(first.points, second.points)
    np.testing.assert_array_equal(first.values, second.values)
    assert np.all(first.points[:, 0] >= -0.5) and np.all(first.points[:, 0] <= 0.5)
    assert np.all(first.points[:, 1] >= 1.0) and np.all(first.points[:, 1] <= 3.0)
    different = draw_samples(ExpCos(), domain, 64, seed=8)
    assert not np.array_equal(first.points, different.points)


def test_uniform_is_splitmix64():
    assert splitmix64(0, 1) == [0xE220A8397B1DCDAF]
    assert uniforms(1, 3) == [0.5665615751722809, 0.7457817572627011, 0.9710027535867962]
    assert _uniform(0, (1,)).tolist() == [(0xE220A8397B1DCDAF >> 11) * 2.0**-53]
    for seed in (0, 1, 7, 2**63, 2**64 - 1):
        # The (n, d) fill runs in C order: row by row, one output per entry.
        table = _uniform(seed, (5, 3))
        assert table.dtype == np.float64 and table.shape == (5, 3)
        assert table.ravel().tolist() == uniforms(seed, 15), seed
        assert np.all((table >= 0.0) & (table < 1.0))


def test_uniform_fills_64_bins_evenly():
    n, bins = 2**16, 64
    counts = np.bincount((_uniform(12345, (n,)) * bins).astype(int), minlength=bins)
    expected, sigma = n / bins, np.sqrt(n * (1 / bins) * (1 - 1 / bins))
    assert counts.size == bins
    assert np.all(np.abs(counts - expected) <= 5 * sigma), counts


def test_draw_samples_scales_the_uniform_table():
    domain = (Interval(-0.5, 0.5), Interval(1.0, 3.0), Interval(-2.0, -1.5))
    points = draw_samples(QuadraticBowl(a=[1.0, 1.0, 1.0]), domain, 33, seed=2**64 - 1).points
    lo, width = np.array([-0.5, 1.0, -2.0]), np.array([1.0, 2.0, 0.5])
    assert points.tobytes() == (lo + _uniform(2**64 - 1, (33, 3)) * width).tobytes()


def test_draw_samples_requires_positive_count():
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
        draw_samples(ExpCos(), (Interval(-1, 1), Interval(-1, 1)), 0, seed=0)


@pytest.mark.parametrize("n", [2.5, True])
def test_draw_samples_requires_an_integer_count(n):
    with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n}"):
        draw_samples(ExpCos(), (Interval(-1, 1), Interval(-1, 1)), n, seed=0)


# A seed of True or 1.0 would draw seed 1's stream if it were read as 1.
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, float("nan"), True, 1.0])
def test_draw_samples_rejects_a_seed_that_is_not_a_64_bit_integer(seed):
    with pytest.raises(ValueError, match=rf"seed must be an integer in \[0, {2**64}\), got {seed}"):
        draw_samples(ExpCos(), (Interval(-1, 1), Interval(-1, 1)), 4, seed=seed)


def test_draw_samples_rejects_a_domain_of_another_dimension():
    with pytest.raises(ValueError, match=r"1 interval\(s\) for a 2-parameter evaluator"):
        draw_samples(ExpCos(), (Interval(-1, 1),), 4, seed=0)


def test_draw_samples_annotates_failures():
    with ExternalEvaluator([sys.executable, SERVER, "1.0"], dim=2) as ext:
        with pytest.raises(EvaluatorError, match="mu="):
            draw_samples(ext, (Interval(-1, 1), Interval(-1, 1)), 3, seed=0)
