import numpy as np
import pytest

from tolalloc import Interval, SeparatedModel
from tolalloc.measures import (
    MinusOneNorm,
    MuNorm,
    OneNorm,
    ReciprocalPowerCost,
    compute_mu_weights,
    from_config,
    mu_norm_from_model,
)

ALL_SMOOTH_POINTS = [
    np.array([0.5, 0.25]),
    np.array([1.0, 2.0, 3.0]),
    np.array([0.01, 0.7, 0.2, 1.5]),
]


def central_fd(f, tau, h=1e-7):
    grad = np.zeros_like(tau)
    for i in range(tau.size):
        step = np.zeros_like(tau)
        step[i] = h
        grad[i] = (f(tau + step) - f(tau - step)) / (2.0 * h)
    return grad


def measures_for(tau):
    d = tau.size
    rng = np.random.default_rng(d)
    return [
        OneNorm(),
        MuNorm(weights=rng.uniform(0.1, 2.0, d)),
        MinusOneNorm(),
        ReciprocalPowerCost(a=rng.uniform(0.0, 1.0, d), b=rng.uniform(0.5, 2.0, d),
                            k=rng.uniform(0.5, 3.0, d)),
    ]


# ---------------------------------------------------------------------------
# Closed-form values
# ---------------------------------------------------------------------------

def test_one_norm_values():
    assert OneNorm().value([1.0, 2.0, 3.0]) == 6.0
    np.testing.assert_array_equal(OneNorm().grad([1.0, 2.0]), [1.0, 1.0])


def test_mu_norm_values_and_validation():
    m = MuNorm(weights=np.array([2.0, 0.5]))
    assert m.value([1.0, 4.0]) == pytest.approx(4.0)
    np.testing.assert_array_equal(m.grad([1.0, 4.0]), [2.0, 0.5])
    with pytest.raises(ValueError):
        MuNorm(weights=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        MuNorm(weights=np.zeros(2))


def test_minus_one_norm_values():
    m = MinusOneNorm()
    assert m.value([1.0, 1.0]) == pytest.approx(0.5)
    assert m.value([2.0, 2.0, 2.0]) == pytest.approx(2.0 / 3.0)
    assert m.value([0.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        m.grad([0.0, 1.0])


def test_reciprocal_power_cost_values():
    m = ReciprocalPowerCost(a=np.array([1.0, 0.0]), b=np.array([1.0, 2.0]),
                            k=np.array([1.0, 2.0]))
    tau = np.array([0.5, 1.0])
    # cost = (1 + 1/0.5) + (0 + 2/1) = 5
    assert m.value(tau) == pytest.approx(0.2)
    assert m.value([0.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        m.grad([0.0, 1.0])
    with pytest.raises(ValueError):
        ReciprocalPowerCost(a=np.zeros(2), b=np.array([1.0, -1.0]), k=np.ones(2))
    with pytest.raises(ValueError):
        ReciprocalPowerCost(a=np.zeros(2), b=np.ones(2), k=np.zeros(2))


def test_negative_tolerances_rejected():
    for measure in measures_for(np.ones(2)):
        with pytest.raises(ValueError):
            measure.value([-0.1, 1.0])


# ---------------------------------------------------------------------------
# Gradients and monotonicity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", ALL_SMOOTH_POINTS, ids=["d2", "d3", "d4"])
def test_gradients_match_finite_differences(tau):
    for measure in measures_for(tau):
        grad = measure.grad(tau)
        fd = central_fd(measure.value, tau)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


@pytest.mark.parametrize("tau", ALL_SMOOTH_POINTS, ids=["d2", "d3", "d4"])
def test_gradients_strictly_positive_in_interior(tau):
    for measure in measures_for(tau):
        assert np.all(measure.grad(tau) >= 0.0)
        # Growing every tolerance must grow the measure.
        assert measure.value(tau * 1.1) > measure.value(tau)


def test_ascent_direction_at_boundary():
    for measure in (MinusOneNorm(), ReciprocalPowerCost(a=np.zeros(2), b=np.ones(2),
                                                        k=np.ones(2))):
        np.testing.assert_array_equal(measure.ascent_direction_at([0.0, 0.0]), [1.0, 1.0])
    tau = np.array([0.5, 0.25])
    np.testing.assert_array_equal(MinusOneNorm().ascent_direction_at(tau),
                                  MinusOneNorm().grad(tau))


# ---------------------------------------------------------------------------
# Sensitivity weights from a surrogate
# ---------------------------------------------------------------------------

def linear_sum_model(c1, c2) -> SeparatedModel:
    coeffs = np.array([
        [[0.0, c1], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, c2]],
    ])
    return SeparatedModel(dim=2, rank=2, degree=1,
                          intervals=(Interval(-1.0, 1.0), Interval(-1.0, 1.0)),
                          scales=np.ones(2), coeffs=coeffs)


def test_compute_mu_weights_from_linear_model():
    model = linear_sum_model(3.0, -2.0)
    np.testing.assert_allclose(compute_mu_weights(model, [0.0, 0.0]), [3.0, 2.0],
                               rtol=1e-12)
    measure = mu_norm_from_model(model, [0.0, 0.0])
    assert isinstance(measure, MuNorm)
    assert measure.value([1.0, 1.0]) == pytest.approx(5.0)


def test_mu_weights_degenerate_warns_and_falls_back():
    model = linear_sum_model(0.0, 0.0)
    with pytest.warns(UserWarning, match="stationary"):
        compute_mu_weights(model, [0.0, 0.0])
    with pytest.warns(UserWarning):
        measure = mu_norm_from_model(model, [0.0, 0.0])
    assert isinstance(measure, OneNorm)


# ---------------------------------------------------------------------------
# Config round-trips
# ---------------------------------------------------------------------------

def test_config_roundtrip_all_kinds():
    tau = np.array([0.4, 0.9])
    for measure in measures_for(tau):
        rebuilt = from_config(measure.to_config())
        assert rebuilt.value(tau) == pytest.approx(measure.value(tau), rel=1e-15)


def test_from_config_mu_norm_derives_weights():
    model = linear_sum_model(2.0, 1.0)
    measure = from_config({"kind": "mu-norm"}, model=model, mu_hat=[0.0, 0.0])
    np.testing.assert_allclose(measure.weights, [2.0, 1.0], rtol=1e-12)
    with pytest.raises(ValueError, match="nominal design"):
        from_config({"kind": "mu-norm"})
    with pytest.raises(ValueError, match="kind"):
        from_config({"kind": "p-norm"})
