import json
import re
import warnings

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from tolalloc import (
    FitConfig,
    FitError,
    Interval,
    SampleSet,
    SeparatedModel,
    als_fit,
)
from tolalloc import surrogate
from tolalloc.metrics import surrogate_errors
from tolalloc.surrogate import legendre_deriv_table, legendre_table, write_json

from conftest import random_model
from helpers.als_reference import reference_als_fit


# ---------------------------------------------------------------------------
# Legendre basis
# ---------------------------------------------------------------------------

def legendre_eval(j, x):
    return float(legendre_table(x, j)[..., j])


def legendre_deriv(j, x):
    return float(legendre_deriv_table(legendre_table(x, j))[..., j])


def test_legendre_low_degrees():
    assert legendre_eval(0, 0.7) == 1.0
    assert legendre_eval(1, 0.3) == 0.3
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


@pytest.mark.parametrize("degree", range(9))
def test_legendre_matches_numpy(degree):
    # numpy.polynomial.legendre is the independent oracle
    rng = np.random.default_rng(degree)
    for x in rng.uniform(-1.0, 1.0, 20):
        unit = np.zeros(degree + 1)
        unit[degree] = 1.0
        assert legendre_eval(degree, x) == pytest.approx(npleg.legval(x, unit), rel=1e-13)


@pytest.mark.parametrize("degree", range(1, 9))
def test_legendre_derivative_matches_numpy(degree):
    rng = np.random.default_rng(100 + degree)
    for x in rng.uniform(-1.0, 1.0, 20):
        unit = np.zeros(degree + 1)
        unit[degree] = 1.0
        expected = npleg.legval(x, npleg.legder(unit))
        assert legendre_deriv(degree, x) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_legendre_endpoint_values():
    for degree in range(8):
        assert legendre_eval(degree, 1.0) == pytest.approx(1.0, abs=1e-13)
        assert legendre_eval(degree, -1.0) == pytest.approx((-1.0) ** degree, abs=1e-13)


def test_legendre_negative_degree_error():
    # The [-1, 1] range is _standardize's rule, tested through the model and
    # the fit below.
    with pytest.raises(ValueError):
        legendre_table(0.0, -1)


# ---------------------------------------------------------------------------
# Interval standardization
# ---------------------------------------------------------------------------

def test_to_standard_examples():
    intervals = (Interval(0.0, 2.0), Interval(-1.0, 1.0), Interval(0.3, 0.4))
    lo = np.array([iv.lo for iv in intervals])
    width = np.array([iv.width for iv in intervals])
    x = surrogate._standardize(np.array([[1.0, 0.25, 0.375], [2.0, -1.0, 0.3]]), lo, width)
    assert x[0, 0] == 0.0
    assert x[0, 1] == 0.25
    assert x[0, 2] == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_array_equal(x[1], [1.0, -1.0, -1.0])


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(np.nan, 1.0)


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------

def _product_model():
    # (1 + mu1) * (1 - mu2) on [-1, 1]^2 as a rank-1, degree-1 model
    return SeparatedModel(
        dim=2,
        rank=1,
        degree=1,
        intervals=(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
        scales=np.array([1.0]),
        coeffs=np.array([[[1.0, 1.0], [1.0, -1.0]]]),
    )


def test_model_eval_product():
    model = _product_model()
    assert model(np.array([0.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    assert model(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)


def _naive_eval(model, mu):
    x = [2.0 * (v - iv.lo) / (iv.hi - iv.lo) - 1.0 for iv, v in zip(model.intervals, mu)]
    total = 0.0
    for ell in range(model.rank):
        term = model.scales[ell]
        for i in range(model.dim):
            factor = 0.0
            for j in range(model.degree + 1):
                factor += model.coeffs[ell, i, j] * legendre_eval(j, x[i])
            term *= factor
        total += term
    return total


def test_model_eval_matches_naive_oracle():
    rng = np.random.default_rng(7)
    model = random_model(rng, dim=3, rank=2, degree=3)
    for mu in rng.uniform(-1.0, 1.0, (100, 3)):
        expected = _naive_eval(model, mu)
        assert model(mu) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_model_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        _product_model()(np.array([0.0, 0.0, 0.0]))


def test_model_eval_extrapolation_clamped_then_error():
    model = _product_model()
    # round-off overshoot is clamped
    model(np.array([1.0 + 1e-12, 0.0]))
    with pytest.raises(ValueError, match="dimension 0"):
        model(np.array([1.1, 0.0]))
    with pytest.raises(ValueError, match="dimension 1"):
        model(np.array([0.0, np.nan]))


def test_evaluation_linearity():
    rng = np.random.default_rng(8)
    a = random_model(rng, dim=2, rank=2, degree=2)
    b = random_model(rng, dim=2, rank=3, degree=2)
    merged = SeparatedModel(
        dim=2,
        rank=5,
        degree=2,
        intervals=a.intervals,
        scales=np.concatenate([a.scales, b.scales]),
        coeffs=np.concatenate([a.coeffs, b.coeffs], axis=0),
    )
    for mu in rng.uniform(-1.0, 1.0, (50, 2)):
        expected = a(mu) + b(mu)
        assert merged(mu) == pytest.approx(expected, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_model_grad_product_rule_by_hand():
    model = _product_model()
    np.testing.assert_allclose(model.gradient(np.zeros(2)), [1.0, -1.0], atol=1e-14)


def test_model_grad_constant_model():
    model = SeparatedModel(
        dim=2,
        rank=1,
        degree=0,
        intervals=(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
        scales=np.array([3.0]),
        coeffs=np.array([[[1.0], [1.0]]]),
    )
    np.testing.assert_array_equal(model.gradient(np.array([0.3, -0.2])), np.zeros(2))


def test_model_grad_matches_central_differences():
    rng = np.random.default_rng(9)
    intervals = (Interval(-0.5, 0.5), Interval(0.0, 2.0), Interval(-3.0, -1.0))
    model = random_model(rng, dim=3, rank=2, degree=4, intervals=intervals)
    widths = np.array([iv.width for iv in intervals])
    lo = np.array([iv.lo for iv in intervals]) + 0.05 * widths
    hi = np.array([iv.hi for iv in intervals]) - 0.05 * widths
    for mu in lo + rng.random((100, 3)) * (hi - lo):
        grad = model.gradient(mu)
        fd = np.zeros(3)
        for i in range(3):
            h = 1e-6 * widths[i]
            up, dn = mu.copy(), mu.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (model(up) - model(dn)) / (2 * h)
        for i in range(3):
            if abs(grad[i]) < 1e-10:
                assert abs(grad[i] - fd[i]) < 1e-8
            else:
                assert grad[i] == pytest.approx(fd[i], rel=1e-6)


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_eval_grad_many_rows_equal_eval_many_and_grad_many(dim, rank):
    rng = np.random.default_rng(100 * dim + rank)
    model = random_model(rng, dim=dim, rank=rank, degree=3)
    points = rng.uniform(-1.0, 1.0, (23, dim))
    values, grads = model.eval_grad_many(points)
    assert values.shape == (23,) and grads.shape == (23, dim)
    assert values.tobytes() == model.eval_many(points).tobytes()
    assert grads.tobytes() == model.grad_many(points).tobytes()
    value, grad = model.eval_grad_many(points[5])
    assert value.tobytes() == np.float64(model(points[5])).tobytes()
    assert grad.tobytes() == model.gradient(points[5])[None, :].tobytes()


def test_values_build_no_derivative_table(monkeypatch):
    rng = np.random.default_rng(17)
    model = random_model(rng, dim=4, rank=3, degree=3)
    points = rng.uniform(-1.0, 1.0, (11, 4))
    values = model.eval_many(points)
    value = model(points[2])

    def no_derivatives(vals):
        raise AssertionError("a value-only evaluation built the derivative table")

    monkeypatch.setattr(surrogate, "legendre_deriv_table", no_derivatives)
    assert model.eval_many(points).tobytes() == values.tobytes()
    assert model(points[2]) == value
    with pytest.raises(AssertionError, match="derivative table"):
        model.eval_grad_many(points)


# ---------------------------------------------------------------------------
# ALS fitting
# ---------------------------------------------------------------------------

def test_als_recovers_rank1_product():
    rng = np.random.default_rng(10)
    intervals = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    points = rng.uniform(-1.0, 1.0, (50, 2))
    values = (1.0 + points[:, 0]) * (1.0 - points[:, 1])
    model, report = als_fit(
        SampleSet(points=points, values=values),
        FitConfig(target_rank=1, degree=1, rel_residual_tol=1e-11, seed=0),
        intervals,
    )
    assert report.residual_history[-1] < 1e-10
    assert report.converged


def test_als_recovers_separated_function():
    rng = np.random.default_rng(3)
    intervals = tuple(Interval(-1.0, 1.0) for _ in range(3))
    generator = random_model(rng, dim=3, rank=2, degree=2, intervals=intervals)
    points = rng.uniform(-1.0, 1.0, (600, 3))
    model, report = als_fit(
        SampleSet(points=points, values=generator.eval_many(points)),
        FitConfig(target_rank=2, degree=2, rel_residual_tol=1e-10, seed=1),
        intervals,
    )
    assert report.residual_history[-1] <= 1e-8
    holdout = rng.uniform(-1.0, 1.0, (200, 3))
    truth = generator.eval_many(holdout)
    rel = np.abs(model.eval_many(holdout) - truth) / np.maximum(np.abs(truth), 1e-12)
    assert rel.max() < 1e-6


def test_als_residual_history_monotone():
    rng = np.random.default_rng(12)
    intervals = (Interval(-0.5, 0.5), Interval(-0.5, 0.5))
    points = rng.uniform(-0.5, 0.5, (300, 2))
    values = np.exp(points[:, 0]) * np.cos(points[:, 1])
    # d = 1 keeps each term's scale through the only per-dimension solve.
    x = rng.uniform(-1.0, 1.0, 50)
    cases = [
        (SampleSet(points=points, values=values), FitConfig(target_rank=2, degree=3, seed=2),
         intervals),
        (SampleSet(points=x[:, None], values=1.0 + x + x**2 + np.cos(3.0 * x)),
         FitConfig(target_rank=1, degree=2, seed=0), (Interval(-1.0, 1.0),)),
    ]
    for samples, config, domain in cases:
        _, report = als_fit(samples, config, domain)
        history = np.asarray(report.residual_history)
        assert np.all(np.diff(history) <= 1e-12 + 1e-6 * history[:-1])


def test_als_sample_count_precondition():
    rng = np.random.default_rng(13)
    points = rng.uniform(-1.0, 1.0, (5, 2))
    samples = SampleSet(points=points, values=points[:, 0])
    with pytest.raises(FitError):
        als_fit(samples, FitConfig(target_rank=2, degree=3), (Interval(-1, 1), Interval(-1, 1)))


def test_als_rejects_samples_outside_intervals():
    for outside in (2.0, np.nan):
        points = np.array([[0.0, 0.0], [outside, 0.0]])
        samples = SampleSet(points=points, values=np.array([1.0, 2.0]))
        with pytest.raises(FitError, match="outside interval for dimension 0"):
            als_fit(samples, FitConfig(target_rank=1, degree=1),
                    (Interval(-1, 1), Interval(-1, 1)))


def test_als_normalization_invariant():
    rng = np.random.default_rng(14)
    intervals = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    points = rng.uniform(-1.0, 1.0, (200, 2))
    values = (1.0 + points[:, 0]) * (1.0 - points[:, 1]) + 0.5 * points[:, 0] * points[:, 1]
    model, _ = als_fit(
        SampleSet(points=points, values=values),
        FitConfig(target_rank=2, degree=1, seed=3),
        intervals,
    )
    norms = np.linalg.norm(model.coeffs, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_als_deterministic_given_seed():
    rng = np.random.default_rng(15)
    intervals = (Interval(-0.5, 0.5), Interval(-0.5, 0.5))
    points = rng.uniform(-0.5, 0.5, (200, 2))
    samples = SampleSet(points=points, values=np.exp(points[:, 0]) * np.cos(points[:, 1]))
    config = FitConfig(target_rank=2, degree=3, seed=4)
    model_a, _ = als_fit(samples, config, intervals)
    model_b, _ = als_fit(samples, config, intervals)
    np.testing.assert_array_equal(model_a.coeffs, model_b.coeffs)
    np.testing.assert_array_equal(model_a.scales, model_b.scales)


@pytest.mark.parametrize("target_rank, dim", [
    (1, 1), (1, 2), (1, 6), (1, 10), (3, 1), (3, 2), (3, 6), (3, 10), (6, 6),
])
def test_als_matches_recompute_all_reference(dim, target_rank, monkeypatch):
    # The incrementally updated factor table must reproduce the fit that
    # recomputes every factor before each solve, bit for bit, from the
    # additive start (target_rank >= dim) and from the random one.
    rng = np.random.default_rng(40 + dim)
    intervals = tuple(Interval(-2.0, 1.5) for _ in range(dim))
    points = rng.uniform(-2.0, 1.5, (30 * dim + 20, dim))
    values = (points ** 2) @ rng.uniform(0.5, 5.0, dim) + np.cos(points.sum(axis=1))
    samples = SampleSet(points=points, values=values)
    monkeypatch.setattr(surrogate, "MAX_SWEEPS", 40)
    config = FitConfig(target_rank=target_rank, degree=2, seed=dim)
    model, report = als_fit(samples, config, intervals)
    scales, coeffs, history = reference_als_fit(samples, config, intervals)
    assert report.final_rank == target_rank
    np.testing.assert_array_equal(model.coeffs, coeffs)
    np.testing.assert_array_equal(model.scales, scales)
    np.testing.assert_array_equal(report.residual_history, history)


def test_als_fits_an_additive_bowl_without_a_sweep():
    # A d = 10 bowl has CP rank 10 but border rank 2, so ALS from a random
    # start never converges on it; the additive start is exact.
    rng = np.random.default_rng(21)
    d = 10
    a = rng.uniform(0.5, 5.0, d)
    half = 1.0 / np.sqrt(a)
    intervals = tuple(Interval(-h, h) for h in half)
    points, holdout = (rng.uniform(-half, half, (400, d)) for _ in range(2))
    model, report = als_fit(SampleSet(points=points, values=points ** 2 @ a),
                            FitConfig(target_rank=d, degree=2, seed=1), intervals)
    assert report.sweeps_used == 0
    assert report.converged
    assert report.final_rank == d
    assert report.residual_history == [report.additive_residual]
    holdout_errors = surrogate_errors(model, SampleSet(points=holdout, values=holdout ** 2 @ a))
    assert holdout_errors.max_rel <= 1e-9


@pytest.mark.parametrize("dim, degree, values", [
    (1, 2, lambda x: 1.0 + x[:, 0] + x[:, 0] ** 2 + np.cos(3.0 * x[:, 0])),
    (2, 0, lambda x: x[:, 0] * x[:, 1]),
], ids=["d1", "degree0"])
def test_als_additive_start_edge_cases(dim, degree, values):
    rng = np.random.default_rng(23)
    points = rng.uniform(-1.0, 1.0, (50, dim))
    model, report = als_fit(SampleSet(points=points, values=values(points)),
                            FitConfig(target_rank=dim, degree=degree),
                            tuple(Interval(-1, 1) for _ in range(dim)))
    assert report.final_rank == dim
    assert report.residual_history[0] == report.additive_residual
    assert np.all(np.isfinite(model.eval_many(points)))


def test_als_all_zero_values_fit_the_zero_model():
    points = np.random.default_rng(24).uniform(-1.0, 1.0, (40, 3))
    model, report = als_fit(SampleSet(points=points, values=np.zeros(40)),
                            FitConfig(target_rank=3, degree=2),
                            tuple(Interval(-1, 1) for _ in range(3)))
    assert report.sweeps_used == 0
    assert report.additive_residual == 0.0
    np.testing.assert_array_equal(model.eval_many(points), 0.0)


def test_als_below_rank_d_keeps_the_random_start():
    # Acceptance criterion 1's generator: rank 2 at d = 4 starts from the
    # seeded random term, exactly as the recompute-all reference does.
    generator_rng = np.random.default_rng(42)
    intervals = tuple(Interval(-1.0, 1.0) for _ in range(4))
    generator = SeparatedModel(dim=4, rank=2, degree=3, intervals=intervals,
                               scales=np.array([2.0, 0.7]),
                               coeffs=generator_rng.uniform(-1.0, 1.0, (2, 4, 4)))
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (2000, 4))
    samples = SampleSet(points=points, values=generator.eval_many(points))
    config = FitConfig(target_rank=2, degree=3, rel_residual_tol=1e-12, seed=5)
    model, report = als_fit(samples, config, intervals)
    scales, coeffs, history = reference_als_fit(samples, config, intervals)
    assert report.additive_residual is None
    np.testing.assert_array_equal(model.coeffs, coeffs)
    np.testing.assert_array_equal(model.scales, scales)
    np.testing.assert_array_equal(report.residual_history, history)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_model_json_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(16)
    model = random_model(rng, dim=3, rank=2, degree=4)
    path = tmp_path / "model.json"
    write_json(path, model.to_dict())
    restored = SeparatedModel.from_dict(json.loads(path.read_text()))
    np.testing.assert_array_equal(restored.coeffs, model.coeffs)
    np.testing.assert_array_equal(restored.scales, model.scales)
    assert restored.intervals == model.intervals


def test_model_rejects_unknown_format_version(tmp_path):
    rng = np.random.default_rng(17)
    data = random_model(rng).to_dict()
    data["format_version"] = 99
    with pytest.raises(ValueError):
        SeparatedModel.from_dict(data)


@pytest.mark.parametrize("field", ["dim", "intervals", "coeffs"])
def test_model_from_dict_names_a_missing_field(field):
    data = random_model(np.random.default_rng(17)).to_dict()
    del data[field]
    with pytest.raises(ValueError, match=rf"lacks field\(s\) {field}$"):
        SeparatedModel.from_dict(data)


@pytest.mark.parametrize("field, value", [("dim", None), ("intervals", 5), ("scales", "x")])
def test_model_from_dict_raises_value_error_on_a_malformed_field(field, value):
    data = random_model(np.random.default_rng(17)).to_dict()
    data[field] = value
    with pytest.raises(ValueError):
        SeparatedModel.from_dict(data)


def test_sample_csv_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(18)
    samples = SampleSet(points=rng.normal(size=(30, 3)), values=rng.normal(size=30))
    path = tmp_path / "samples.csv"
    samples.write_csv(path)
    restored = SampleSet.read_csv(path)
    np.testing.assert_array_equal(restored.points, samples.points)
    np.testing.assert_array_equal(restored.values, samples.values)


def test_sample_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        SampleSet.read_csv(path)


def test_write_csv_formats_a_float_table_cell_by_cell_as_repr(tmp_path):
    awkward = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, 2.0, float("nan")]
    rows = [[v if i % 2 else np.float64(v) for i, v in enumerate(awkward)],
            [np.float64(v) if i % 2 else v for i, v in enumerate(reversed(awkward))]]
    expected = "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in rows)
    header = [f"c{i}" for i in range(len(awkward))]
    for table in (np.array(rows), np.array(rows, dtype=object)):
        path = tmp_path / "table.csv"
        surrogate.write_csv(path, header, table)
        text = path.read_bytes().decode()
        assert text == ",".join(header) + "\r\n" + expected
        assert "np.float64(" not in text


def test_sample_csv_roundtrip_of_many_rows_is_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    table = rng.normal(size=(50_000, 3)) * 10.0 ** rng.integers(-300, 300, size=(50_000, 3))
    path = tmp_path / "samples.csv"
    SampleSet(points=table[:, :2], values=table[:, 2]).write_csv(path)
    restored = SampleSet.read_csv(path)
    np.testing.assert_array_equal(restored.points.view(np.int64), table[:, :2].view(np.int64))
    np.testing.assert_array_equal(restored.values.view(np.int64), table[:, 2].view(np.int64))


@pytest.mark.parametrize("body, named", [
    ("1,2,3\r\n\r\n4,5,6\r\n", "line 3 is blank"),
    ("1,2,3\r\n4,5\r\n", "columns"),
    ("1,2,3\r\n4,5,6,7\r\n", "columns"),
    ("1,2,3,4\r\n", "4 columns under a 3-column header"),
    ("1,2,3\r\n4,x,6\r\n", "'x'"),
    ("# comment\r\n1,2,3\r\n", "'# comment'"),
    ('1,"2",3\r\n', """'"2"'"""),
    ("", "no sample rows"),
], ids=["blank-line", "short-row", "long-row", "wide-table", "non-numeric", "comment",
        "quoted", "header-only"])
def test_sample_csv_rejects_a_malformed_body_naming_the_file(tmp_path, body, named):
    path = tmp_path / "samples.csv"
    path.write_text("mu_1,mu_2,q\r\n" + body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pattern = f"malformed sample file {re.escape(str(path))}: .*{re.escape(named)}"
        with pytest.raises(ValueError, match=pattern):
            SampleSet.read_csv(path)
