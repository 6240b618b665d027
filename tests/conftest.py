import pytest

from tolalloc import FitConfig, Interval, SampleSet, SeparatedModel, als_fit, draw_samples
from tolalloc.evaluator import make_builtin


def random_model(rng, dim=2, rank=2, degree=3, intervals=None) -> SeparatedModel:
    intervals = intervals or tuple(Interval(-1.0, 1.0) for _ in range(dim))
    return SeparatedModel(
        dim=dim,
        rank=rank,
        degree=degree,
        intervals=tuple(intervals),
        scales=rng.uniform(0.5, 2.0, rank),
        coeffs=rng.uniform(-1.0, 1.0, (rank, dim, degree + 1)),
    )


@pytest.fixture(scope="session")
def expcos_intervals():
    return (Interval(-0.5, 0.5), Interval(-0.5, 0.5))


@pytest.fixture(scope="session")
def expcos_samples(expcos_intervals) -> SampleSet:
    return draw_samples(make_builtin("exp-cos"), expcos_intervals, 400, seed=11)


@pytest.fixture(scope="session")
def expcos_holdout(expcos_intervals) -> SampleSet:
    return draw_samples(make_builtin("exp-cos"), expcos_intervals, 200, seed=12)


@pytest.fixture(scope="session")
def expcos_model(expcos_samples, expcos_intervals) -> SeparatedModel:
    model, report = als_fit(
        expcos_samples, FitConfig(target_rank=3, degree=5), expcos_intervals
    )
    assert report.residual_history[-1] < 1e-5
    return model
