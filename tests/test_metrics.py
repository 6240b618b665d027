from dataclasses import asdict

import numpy as np
import pytest

from tolalloc import FitConfig, Interval, SampleSet, als_fit
from tolalloc.boxmax import AnalyticWorstCase
from tolalloc.measures import OneNorm
from tolalloc.metrics import (
    AllocationErrorReport,
    ErrorReport,
    MetricError,
    allocation_errors,
    surrogate_errors,
)


def constant_holdout(values):
    values = np.asarray(values, dtype=float)
    points = np.linspace(-0.9, 0.9, values.size)[:, None]
    return SampleSet(points=points, values=values)


def fit_line(slope, intercept):
    rng = np.random.default_rng(1)
    points = rng.uniform(-1.0, 1.0, (30, 1))
    values = slope * points[:, 0] + intercept
    model, _ = als_fit(
        SampleSet(points=points, values=values),
        FitConfig(target_rank=1, degree=1, seed=0),
        (Interval(-1.0, 1.0),),
    )
    return model


def test_surrogate_errors_hand_computed():
    model = fit_line(2.0, 0.0)  # model ~ 2x exactly
    holdout = constant_holdout(np.array([1.0, 2.0]))
    # Predictions are 2*(-0.9) = -1.8 and 2*(0.9) = 1.8 against truth 1 and 2:
    # relative errors 2.8 and 0.1.
    report = surrogate_errors(model, holdout)
    assert report.n_compared == 2
    assert report.max_rel == pytest.approx(2.8, rel=1e-9)
    assert report.mean_rel == pytest.approx(1.45, rel=1e-9)


def test_surrogate_errors_zero_on_perfect_fit():
    model = fit_line(1.0, 0.5)
    points = np.linspace(-0.8, 0.8, 9)[:, None]
    holdout = SampleSet(points=points, values=points[:, 0] + 0.5)
    report = surrogate_errors(model, holdout)
    assert report.max_rel < 1e-10


def test_surrogate_errors_rejects_zero_truth():
    model = fit_line(1.0, 0.0)
    with pytest.raises(MetricError, match="Q = 0"):
        surrogate_errors(model, constant_holdout(np.array([1.0, 0.0, 2.0])))


def test_error_report_to_dict():
    report = ErrorReport(mean_rel=0.1, max_rel=0.2, n_compared=5)
    assert asdict(report) == {"mean_rel": 0.1, "max_rel": 0.2, "n_compared": 5}


def test_allocation_errors_hand_computed():
    gfun = AnalyticWorstCase(lambda t: t[0] + t[1], lambda t: np.ones(2))
    report = allocation_errors(
        tau=[0.4, 0.55], tau_ref=[0.5, 0.5], measure=OneNorm(), gfun_ref=gfun,
        q_allow=1.0,
    )
    assert report.tol_err_inf == pytest.approx(0.1)
    assert report.objective_rel_err == pytest.approx(0.05)
    assert report.constraint_rel_err == pytest.approx(0.05)
    assert set(asdict(report)) == {"tol_err_inf", "objective_rel_err",
                                   "constraint_rel_err"}


def test_allocation_errors_zero_for_exact_match():
    gfun = AnalyticWorstCase(lambda t: t[0] + t[1], lambda t: np.ones(2))
    report = allocation_errors([0.5, 0.5], [0.5, 0.5], OneNorm(), gfun, 1.0)
    assert report.tol_err_inf == 0.0
    assert report.objective_rel_err == 0.0
    assert report.constraint_rel_err == 0.0


def test_allocation_errors_validation():
    gfun = AnalyticWorstCase(lambda t: t.sum(), lambda t: np.ones_like(t))
    with pytest.raises(ValueError, match="matching"):
        allocation_errors([0.5], [0.5, 0.5], OneNorm(), gfun, 1.0)
    with pytest.raises(MetricError, match="F\\(tau_ref\\) = 0"):
        allocation_errors([0.5, 0.5], [0.0, 0.0], OneNorm(), gfun, 1.0)


def test_allocation_error_report_is_frozen():
    report = AllocationErrorReport(0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        report.tol_err_inf = 1.0
