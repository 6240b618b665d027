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
    draw_samples,
)
from tolalloc import surrogate
from tolalloc.metrics import surrogate_errors
from tolalloc import files
from tolalloc.files import model_dict, model_fields, read_samples, write_model, write_samples
from tolalloc.surrogate import legendre_deriv_table, legendre_table

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


def test_a_point_gets_the_same_bits_in_any_batch():
    # Each row's value and gradient are the same rows of the full batch bit
    # for bit, alone, in a slice, in a strided or shuffled subset.
    rng = np.random.default_rng(41)
    for d in range(1, 13):
        for rank in (1, 2, 3, 7, 10):
            model = random_model(rng, dim=d, rank=rank, degree=int(rng.integers(0, 5)))
            points = rng.uniform(-1.0, 1.0, (19, d))
            values, grads = model.eval_grad_many(points)
            assert values.tobytes() == model.eval_many(points).tobytes()
            subsets = [[i] for i in range(19)] + [
                list(range(5)), list(range(3, 17)), list(range(0, 19, 2)),
                rng.permutation(19)[:11].tolist()]
            for rows in subsets:
                sub_values, sub_grads = model.eval_grad_many(points[rows])
                assert sub_values.tobytes() == values[rows].tobytes(), (d, rank, rows)
                assert sub_grads.tobytes() == grads[rows].tobytes(), (d, rank, rows)
                assert model.eval_many(points[rows]).tobytes() == values[rows].tobytes()


def test_the_model_sums_rank_terms_in_rank_order():
    terms = np.array([[1.0, 1e17], [1e17, 1.0], [-1e17, -1e17]])
    # Left to right: (1 + 1e17) - 1e17 = 0 in both columns, where a sum that
    # first paired the last two terms would give 1.
    assert surrogate._rank_sum(np.ones(3), terms).tolist() == [0.0, 0.0]
    assert surrogate._rank_sum(np.array([2.0]), terms[:1]).tolist() == [2.0, 2e17]


def test_dimension_major_table_gives_the_contiguous_table_bits(monkeypatch):
    # The model reads its Legendre table as a transposed (d, N, p+1) array.
    # A table laid out point-major, as an (N, d, p+1) array, must give the
    # same values and gradients bit for bit.
    rng = np.random.default_rng(29)
    shapes = [(int(rng.integers(1, 11)), int(rng.integers(1, 11)), int(rng.integers(0, 7)),
               int(rng.choice([1, 2, 7, 64, 240]))) for _ in range(60)]
    models = [(random_model(rng, dim=d, rank=r, degree=p), rng.uniform(-1.0, 1.0, (n, d)))
              for r, d, p, n in shapes]

    def outputs():
        return [(model.eval_many(points), *model.eval_grad_many(points))
                for model, points in models]

    dimension_major = outputs()
    table = surrogate.legendre_table
    monkeypatch.setattr(surrogate, "legendre_table", lambda x, degree: np.ascontiguousarray(
        table(x, degree).transpose(1, 0, 2)).transpose(1, 0, 2))
    assert models[0][0]._basis_factors(models[0][1])[0].flags.c_contiguous
    for shape, got, want in zip(shapes, dimension_major, outputs()):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], shape


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
        FitConfig(target_rank=1, degree=1, rel_residual_tol=1e-11),
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
        FitConfig(target_rank=2, degree=2, rel_residual_tol=1e-10),
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
        (SampleSet(points=points, values=values), FitConfig(target_rank=2, degree=3),
         intervals),
        (SampleSet(points=x[:, None], values=1.0 + x + x**2 + np.cos(3.0 * x)),
         FitConfig(target_rank=1, degree=2), (Interval(-1.0, 1.0),)),
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
        FitConfig(target_rank=2, degree=1),
        intervals,
    )
    norms = np.linalg.norm(model.coeffs, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_als_draws_nothing_so_seed_has_no_effect():
    # Below rank d, with a rank-growth term: the fit is the same on every call
    # and for every seed, which FitConfig accepts but does not read.
    rng = np.random.default_rng(15)
    intervals = tuple(Interval(-0.5, 0.5) for _ in range(3))
    points = rng.uniform(-0.5, 0.5, (200, 3))
    samples = SampleSet(points=points, values=np.exp(points[:, 0]) * np.cos(points[:, 1])
                        + points[:, 2])
    fits = [als_fit(samples, config, intervals)
            for config in (FitConfig(target_rank=2, degree=3), FitConfig(target_rank=2, degree=3),
                           FitConfig(target_rank=2, degree=3, seed=4))]
    assert fits[0][1].final_rank == 2
    for model, report in fits[1:]:
        np.testing.assert_array_equal(model.coeffs, fits[0][0].coeffs)
        np.testing.assert_array_equal(model.scales, fits[0][0].scales)
        assert report.residual_history == fits[0][1].residual_history


@pytest.mark.parametrize("target_rank, dim", [
    (1, 1), (1, 2), (1, 6), (1, 10), (3, 1), (3, 2), (3, 6), (3, 10), (6, 6),
])
def test_als_matches_recompute_all_reference(dim, target_rank, monkeypatch):
    # The incrementally updated factor table must reproduce the fit that
    # recomputes every factor before each solve, bit for bit, from the
    # additive start (target_rank >= dim) and from the product term
    # prod_i (1 + x_i) below it.
    rng = np.random.default_rng(40 + dim)
    intervals = tuple(Interval(-2.0, 1.5) for _ in range(dim))
    points = rng.uniform(-2.0, 1.5, (30 * dim + 20, dim))
    values = (points ** 2) @ rng.uniform(0.5, 5.0, dim) + np.cos(points.sum(axis=1))
    samples = SampleSet(points=points, values=values)
    monkeypatch.setattr(surrogate, "MAX_SWEEPS", 40)
    config = FitConfig(target_rank=target_rank, degree=2)
    model, report = als_fit(samples, config, intervals)
    scales, coeffs, history = reference_als_fit(samples, config, intervals)
    assert report.final_rank == target_rank
    np.testing.assert_array_equal(model.coeffs, coeffs)
    np.testing.assert_array_equal(model.scales, scales)
    np.testing.assert_array_equal(report.residual_history, history)


def test_als_fits_an_additive_bowl_without_a_sweep():
    # A d = 10 bowl has CP rank 10 but border rank 2, so ALS grown term by
    # term from one product term does not converge on it (2.5e-5 after 1807
    # sweeps); the additive start is exact.
    rng = np.random.default_rng(21)
    d = 10
    a = rng.uniform(0.5, 5.0, d)
    half = 1.0 / np.sqrt(a)
    intervals = tuple(Interval(-h, h) for h in half)
    points, holdout = (rng.uniform(-half, half, (400, d)) for _ in range(2))
    model, report = als_fit(SampleSet(points=points, values=points ** 2 @ a),
                            FitConfig(target_rank=d, degree=2), intervals)
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
    # At every rank: below rank d as from the additive start (rank 3 = d).
    points = np.random.default_rng(24).uniform(-1.0, 1.0, (40, 3))
    for target_rank in (1, 2, 3):
        model, report = als_fit(SampleSet(points=points, values=np.zeros(40)),
                                FitConfig(target_rank=target_rank, degree=2),
                                tuple(Interval(-1, 1) for _ in range(3)))
        assert report.converged, target_rank
        assert report.residual_history[-1] == 0.0
        np.testing.assert_array_equal(model.eval_many(points), 0.0)
    assert report.sweeps_used == 0
    assert report.additive_residual == 0.0


def test_als_below_rank_d_starts_from_the_product_term_as_the_reference_does():
    # Acceptance criterion 1's generator: rank 2 at d = 4 starts, and grows,
    # from the term prod_i (1 + x_i), exactly as the recompute-all reference does.
    generator_rng = np.random.default_rng(42)
    intervals = tuple(Interval(-1.0, 1.0) for _ in range(4))
    generator = SeparatedModel(dim=4, rank=2, degree=3, intervals=intervals,
                               scales=np.array([2.0, 0.7]),
                               coeffs=generator_rng.uniform(-1.0, 1.0, (2, 4, 4)))
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (2000, 4))
    samples = SampleSet(points=points, values=generator.eval_many(points))
    config = FitConfig(target_rank=2, degree=3, rel_residual_tol=1e-12)
    model, report = als_fit(samples, config, intervals)
    scales, coeffs, history = reference_als_fit(samples, config, intervals)
    assert report.additive_residual is None
    np.testing.assert_array_equal(model.coeffs, coeffs)
    np.testing.assert_array_equal(model.scales, scales)
    np.testing.assert_array_equal(report.residual_history, history)


class _Product:
    """Q = prod_i (1 + a_i mu_i^2), exactly rank 1 at degree 2."""

    def __init__(self, a):
        self.a, self.dim = a, a.size

    def many(self, points):
        return np.prod(1.0 + self.a * points ** 2, axis=1)


@pytest.mark.parametrize("dim, seeds", [(6, range(1, 21)), (12, range(1, 5))],
                         ids=["d6", "d12"])
def test_als_fits_a_rank1_product_below_rank_d(dim, seeds):
    # Over the box where each factor runs from 1 to 2, a random start stalls
    # at a relative residual of 0.8-0.9 on many seeds; the product start
    # converges on every one.
    a = np.linspace(0.5, 5.0, dim)
    evaluator = _Product(a)
    intervals = tuple(Interval(-h, h) for h in 1.0 / np.sqrt(a))
    for seed in seeds:
        samples = draw_samples(evaluator, intervals, 40 * dim, seed)
        _, report = als_fit(samples, FitConfig(target_rank=1, degree=2), intervals)
        assert report.converged, (seed, report.residual_history[-1])
        assert report.residual_history[-1] <= 1e-8


@pytest.mark.parametrize("dim", [3, 5])
def test_als_grows_a_term_that_separates_from_a_constant(dim):
    # 5 + mu_1 mu_2 mu_3 at rank 2: a constant growth term would stay
    # collinear with the nearly constant first term and stall.
    rng = np.random.default_rng(25)
    intervals = tuple(Interval(-1.0, 1.0) for _ in range(dim))
    points = rng.uniform(-1.0, 1.0, (60 * dim, dim))
    samples = SampleSet(points=points, values=5.0 + points[:, :3].prod(axis=1))
    _, report = als_fit(samples, FitConfig(target_rank=2, degree=2), intervals)
    assert report.converged, report.residual_history[-1]
    assert report.final_rank == 2


# Every regularized solve of a fit raises FitError when np.linalg.solve finds
# its system singular or returns a non-finite solution: the additive start's
# (target_rank >= d, the first solve) and an ALS step's (target_rank < d, the
# solve in dimension 1 is the second).
@pytest.mark.parametrize("target_rank, call, fault, message", [
    (2, 1, "singular", "singular system in the additive start"),
    (2, 1, "non-finite", "non-finite solution in the additive start"),
    (1, 2, "singular", "singular system in dimension 1"),
    (1, 2, "non-finite", "non-finite solution in dimension 1"),
], ids=["additive-singular", "additive-non-finite", "step-singular", "step-non-finite"])
def test_als_solve_failures_raise_fit_error(monkeypatch, target_rank, call, fault, message):
    points = np.random.default_rng(26).uniform(-1.0, 1.0, (40, 2))
    samples = SampleSet(points=points, values=1.0 + points[:, 0] * points[:, 1])
    solve, calls = np.linalg.solve, []

    def failing_solve(a, b):
        calls.append(a.shape)
        if len(calls) < call:
            return solve(a, b)
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(b.shape, np.nan)

    monkeypatch.setattr(surrogate.np.linalg, "solve", failing_solve)
    with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
        als_fit(samples, FitConfig(target_rank=target_rank, degree=2),
                (Interval(-1, 1), Interval(-1, 1)))
    assert len(calls) == call


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_model_json_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(16)
    model = random_model(rng, dim=3, rank=2, degree=4)
    path = tmp_path / "model.json"
    write_model(path, model)
    restored = SeparatedModel(**model_fields(json.loads(path.read_text())))
    np.testing.assert_array_equal(restored.coeffs, model.coeffs)
    np.testing.assert_array_equal(restored.scales, model.scales)
    assert restored.intervals == model.intervals


def test_model_rejects_unknown_format_version(tmp_path):
    rng = np.random.default_rng(17)
    data = model_dict(random_model(rng))
    data["format_version"] = 99
    with pytest.raises(ValueError):
        SeparatedModel(**model_fields(data))


@pytest.mark.parametrize("field", ["dim", "intervals", "coeffs"])
def test_model_from_dict_names_a_missing_field(field):
    data = model_dict(random_model(np.random.default_rng(17)))
    del data[field]
    with pytest.raises(ValueError, match=rf"model lacks key\(s\) {field}$"):
        SeparatedModel(**model_fields(data))


@pytest.mark.parametrize("field, value", [("dim", None), ("intervals", 5), ("scales", "x"),
                                          ("dim", 2.5), ("degree", 3.9), ("rank", True),
                                          ("degree", "3"), ("scales", ["0.78"]),
                                          ("intervals", [[True, 1.0]]), ("coeffs", float("nan")),
                                          ("scales", [10**400]), ("intervals", [[1.0, -1.0]]),
                                          ("format_version", 2), ("format_version", True),
                                          ("format_version", 1.0), ("format_version", "1")])
def test_model_from_dict_raises_value_error_on_a_malformed_field(field, value):
    data = model_dict(random_model(np.random.default_rng(17)))
    data[field] = value
    with pytest.raises(ValueError) as raised:
        SeparatedModel(**model_fields(data))
    assert field in str(raised.value)


UNIT_SQUARE = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))


@pytest.mark.parametrize("fields, named", [
    ({"dim": 0, "intervals": ()}, "dim and rank must be positive"),
    ({"intervals": UNIT_SQUARE[:1]}, "one interval per dimension"),
    ({"scales": np.ones(3)}, r"scales must have shape \(2,\)"),
    ({"coeffs": np.ones((2, 2, 3))}, r"coeffs must have shape \(2, 2, 4\)"),
    ({"coeffs": np.full((2, 2, 4), np.inf)}, "coefficients must be finite"),
], ids=["dim-0", "interval-count", "scales-shape", "coeffs-shape", "coeffs-inf"])
def test_model_rejects_fields_that_disagree(fields, named):
    model = {"dim": 2, "rank": 2, "degree": 3, "intervals": UNIT_SQUARE,
             "scales": np.ones(2), "coeffs": np.ones((2, 2, 4))}
    with pytest.raises(ValueError, match=named):
        SeparatedModel(**{**model, **fields})


def test_sample_set_rejects_unequal_lengths_and_no_rows():
    with pytest.raises(ValueError, match="equal length"):
        SampleSet(points=np.zeros((3, 2)), values=np.zeros(2))
    with pytest.raises(ValueError, match="at least one sample"):
        SampleSet(points=np.zeros((0, 2)), values=np.zeros(0))


def test_als_rejects_a_wrong_interval_count():
    samples = SampleSet(points=np.zeros((4, 2)), values=np.ones(4))
    with pytest.raises(ValueError, match="one interval per sample dimension"):
        als_fit(samples, FitConfig(target_rank=1, degree=1), UNIT_SQUARE[:1])


def test_atomic_write_leaves_nothing_when_the_writer_raises(tmp_path):
    def write(tmp):
        with open(tmp, "w") as handle:
            handle.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        files.atomic_write(tmp_path / "model.json", write)
    assert list(tmp_path.iterdir()) == []


def test_sample_csv_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(18)
    samples = SampleSet(points=rng.normal(size=(30, 3)), values=rng.normal(size=30))
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    restored = SampleSet(*read_samples(path))
    np.testing.assert_array_equal(restored.points, samples.points)
    np.testing.assert_array_equal(restored.values, samples.values)


def test_sample_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        SampleSet(*read_samples(path))


def test_write_csv_formats_a_float_table_cell_by_cell_as_repr(tmp_path):
    awkward = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, 2.0, float("nan")]
    rows = [[v if i % 2 else np.float64(v) for i, v in enumerate(awkward)],
            [np.float64(v) if i % 2 else v for i, v in enumerate(reversed(awkward))]]
    expected = "".join(",".join(repr(float(v)) for v in row) + "\r\n" for row in rows)
    header = [f"c{i}" for i in range(len(awkward))]
    for table in (np.array(rows), np.array(rows, dtype=object)):
        path = tmp_path / "table.csv"
        files.write_csv(path, header, table)
        text = path.read_bytes().decode()
        assert text == ",".join(header) + "\r\n" + expected
        assert "np.float64(" not in text


def test_format_rows_renders_request_lines_and_csv_rows_by_one_rule(tmp_path):
    table = np.array([[-0.0, 5e-324, 1e16], [0.1, 1 / 3, float("nan")]])
    assert files.format_rows(table, " ", "\n") == (
        "-0.0 5e-324 1e+16\n0.1 0.3333333333333333 nan\n")
    rows = files.format_rows(table)
    assert rows == "-0.0,5e-324,1e+16\r\n0.1,0.3333333333333333,nan\r\n"
    from_text, from_table = tmp_path / "text.csv", tmp_path / "table.csv"
    files.write_csv(from_text, ["a", "b", "c"], rows)
    files.write_csv(from_table, ["a", "b", "c"], table)
    assert from_text.read_bytes() == from_table.read_bytes() == b"a,b,c\r\n" + rows.encode()


def test_sample_csv_roundtrip_of_many_rows_is_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    table = rng.normal(size=(50_000, 3)) * 10.0 ** rng.integers(-300, 300, size=(50_000, 3))
    path = tmp_path / "samples.csv"
    write_samples(path, SampleSet(points=table[:, :2], values=table[:, 2]))
    restored = SampleSet(*read_samples(path))
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
    ("1,2,3\r\n4,5,nan\r\n", "line 3 holds a non-finite number"),
    ("1,-inf,3\r\n4,5,6\r\n", "line 2 holds a non-finite number"),
], ids=["blank-line", "short-row", "long-row", "wide-table", "non-numeric", "comment",
        "quoted", "header-only", "nan-value", "inf-coordinate"])
def test_sample_csv_rejects_a_malformed_body_naming_the_file(tmp_path, body, named):
    path = tmp_path / "samples.csv"
    path.write_text("mu_1,mu_2,q\r\n" + body, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pattern = f"malformed sample file {re.escape(str(path))}: .*{re.escape(named)}"
        with pytest.raises(ValueError, match=pattern):
            SampleSet(*read_samples(path))
