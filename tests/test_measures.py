import numpy as np
import pytest

from tolalloc import (
    FitConfig,
    Interval,
    SeparatedModel,
    als_fit,
    draw_samples,
    make_builtin,
    size_bounding_box,
)
from tolalloc.measures import (
    MinusOneNorm,
    MuNorm,
    OneNorm,
    ReciprocalPowerCost,
    ascent_direction,
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
    for a, b, k in [([-5.0, -5.0], [1.0, 1.0], [1.0, 1.0]),
                    ([np.inf, 0.0], [1.0, 1.0], [1.0, 1.0]),
                    ([np.nan, 0.0], [1.0, 1.0], [1.0, 1.0]),
                    ([0.0, 0.0], [np.inf, 1.0], [1.0, 1.0]),
                    ([0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]),
                    ([0.0, 0.0], [1.0, 1.0], [1.0, np.inf]),
                    ([0.0, 0.0], [1.0, 1.0], [1.0, np.nan])]:
        with pytest.raises(ValueError):
            ReciprocalPowerCost(a=np.array(a), b=np.array(b), k=np.array(k))


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
    for measure in (OneNorm(), MinusOneNorm(),
                    ReciprocalPowerCost(a=np.zeros(2), b=np.ones(2), k=np.ones(2))):
        np.testing.assert_array_equal(ascent_direction(measure, [0.0, 0.0]), [1.0, 1.0])
    # The mu-norm's gradient is defined at zero: its weights, not all ones.
    np.testing.assert_array_equal(ascent_direction(MuNorm(weights=[2.0, 0.5]), [0.0, 0.0]),
                                  [2.0, 0.5])
    tau = np.array([0.5, 0.25])
    np.testing.assert_array_equal(ascent_direction(MinusOneNorm(), tau),
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
    measure = mu_norm_from_model(model, [0.0, 0.0])
    assert isinstance(measure, MuNorm)
    np.testing.assert_allclose(measure.weights, [3.0, 2.0], rtol=1e-12)
    assert measure.value([1.0, 1.0]) == pytest.approx(5.0)


def test_mu_weights_degenerate_warns_and_falls_back():
    model = linear_sum_model(0.0, 0.0)
    with pytest.warns(UserWarning, match="stationary"):
        measure = mu_norm_from_model(model, [0.0, 0.0])
    assert isinstance(measure, OneNorm)


def test_mu_weights_of_a_fitted_bowl_at_its_minimum_are_degenerate():
    # The seed-1 d = 6 bowl of the benchmark, fitted as the CLI fits it: at
    # the nominal design mu = 0 its partials are fitting noise, 1e-13 to
    # 2.4e-12, some above any absolute cut-off of 1e-12, while the partials
    # at the ends of its intervals are of order 1.
    a = [5.0, 1.4, 3.2, 2.3, 4.1, 0.5]
    bowl = make_builtin("quadratic-bowl", {"a": a})
    _, intervals = size_bounding_box(bowl, np.zeros(6), 1.0, np.full(6, 10.0))
    samples = draw_samples(bowl, intervals, 240, 1)
    model, _ = als_fit(samples, FitConfig(target_rank=6, degree=2, seed=1), intervals)
    weights = np.abs(model.gradient(np.zeros(6)))
    assert 1e-12 < weights.max() < 1e-11
    with pytest.warns(UserWarning, match="stationary"):
        measure = mu_norm_from_model(model, np.zeros(6))
    assert isinstance(measure, OneNorm)
    # The test is scale-free: the same model scaled by 1e-6 is as degenerate.
    scaled = SeparatedModel(dim=6, rank=model.rank, degree=2, intervals=model.intervals,
                            scales=1e-6 * model.scales, coeffs=model.coeffs)
    with pytest.warns(UserWarning, match="stationary"):
        assert isinstance(mu_norm_from_model(scaled, np.zeros(6)), OneNorm)
    # ... and a linear model as small as that noise is not.
    tiny = mu_norm_from_model(linear_sum_model(3e-15, -2e-15), [0.0, 0.0])
    np.testing.assert_allclose(tiny.weights, [3e-15, 2e-15], rtol=1e-12)


# ---------------------------------------------------------------------------
# Config round-trips
# ---------------------------------------------------------------------------

def test_config_roundtrip_all_kinds():
    tau = np.array([0.4, 0.9])
    weights, a, b, k = [0.5, 2.0], [0.1, 0.2], [1.0, 0.5], [1.0, 2.0]
    specs = [
        ({"kind": "one-norm"}, OneNorm()),
        ({"kind": "mu-norm", "weights": weights}, MuNorm(weights=np.array(weights))),
        ({"kind": "minus-one-norm"}, MinusOneNorm()),
        ({"kind": "reciprocal-power-cost", "a": a, "b": b, "k": k},
         ReciprocalPowerCost(a=np.array(a), b=np.array(b), k=np.array(k))),
    ]
    for spec, measure in specs:
        rebuilt = from_config(spec)
        assert type(rebuilt) is type(measure)
        assert rebuilt.value(tau) == measure.value(tau)
        np.testing.assert_array_equal(rebuilt.grad(tau), measure.grad(tau))


def test_from_config_mu_norm_derives_weights():
    model = linear_sum_model(2.0, 1.0)
    measure = from_config({"kind": "mu-norm"}, model=model, mu_hat=[0.0, 0.0])
    np.testing.assert_allclose(measure.weights, [2.0, 1.0], rtol=1e-12)
    with pytest.raises(ValueError, match="nominal design"):
        from_config({"kind": "mu-norm"})
    with pytest.raises(ValueError, match="kind"):
        from_config({"kind": "p-norm"})


@pytest.mark.parametrize("spec, message", [
    ({"kind": "mu-norm", "weight": [1.0, 2.0]},
     "mu-norm measure does not read key\\(s\\) weight; it reads weights"),
    ({"kind": "one-norm", "weights": [1.0]},
     "one-norm measure does not read key\\(s\\) weights; it reads no other key"),
    ({"kind": "minus-one-norm", "a": [1.0, 2.0], "k": [1.0, 1.0]},
     "does not read key\\(s\\) a, k"),
    ({"kind": "reciprocal-power-cost", "a": [0.1, 0.2], "b": [1.0, 1.0]},
     "reciprocal-power-cost measure lacks key\\(s\\) k"),
    ({"kind": "reciprocal-power-cost", "a": [0.1], "b": [1.0], "k": [1.0], "c": [1.0]},
     "does not read key\\(s\\) c; it reads a, b, k"),
], ids=["misspelt-weights", "one-norm-weights", "minus-one-norm-keys", "missing-k",
        "cost-extra"])
def test_from_config_names_a_key_the_kind_does_not_read_or_lacks(spec, message):
    with pytest.raises(ValueError, match=message):
        from_config(spec, model=linear_sum_model(1.0, 1.0), mu_hat=[0.0, 0.0])
