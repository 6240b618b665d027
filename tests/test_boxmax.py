import itertools

import numpy as np
import pytest
from scipy.stats import qmc

from tolalloc import (
    BoundingBox,
    Interval,
    OneNorm,
    SeparatedModel,
    boxmax,
    conjugate_gradient,
    initial_guess,
)
from tolalloc.boxmax import (
    AnalyticWorstCase,
    SurrogateWorstCase,
    ToleranceBox,
    additive_split,
    additive_worst_case,
    box_maximize,
    grad_G,
    latin_hypercube,
)
from tolalloc.evaluator import Rank2Synthetic

from conftest import random_model

UNIT_SQUARE = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))


def linear_model(c1, c2) -> SeparatedModel:
    """Q(mu) = c1 mu_1 + c2 mu_2 on [-1, 1]^2 as a rank-2 separated model."""
    coeffs = np.array([
        [[0.0, c1], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, c2]],
    ])
    return SeparatedModel(dim=2, rank=2, degree=1, intervals=UNIT_SQUARE,
                          scales=np.ones(2), coeffs=coeffs)


def concave_bowl_model() -> SeparatedModel:
    """Q(mu) = -mu_1^2 - mu_2^2 on [-1, 1]^2 (P_2 = (3x^2 - 1)/2)."""
    minus_sq = np.array([-1.0 / 3.0, 0.0, -2.0 / 3.0])
    one = np.array([1.0, 0.0, 0.0])
    coeffs = np.array([[minus_sq, one], [one, minus_sq]])
    return SeparatedModel(dim=2, rank=2, degree=2, intervals=UNIT_SQUARE,
                          scales=np.ones(2), coeffs=coeffs)


def bilinear_model() -> SeparatedModel:
    """Q(mu) = mu_1 mu_2 on [-1, 1]^2."""
    coeffs = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    return SeparatedModel(dim=2, rank=1, degree=1, intervals=UNIT_SQUARE,
                          scales=np.ones(1), coeffs=coeffs)


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def test_tolerance_box_geometry():
    box = ToleranceBox(center=np.array([1.0, -1.0]), half_widths=np.array([0.5, 0.25]))
    np.testing.assert_allclose(box.lo, [0.5, -1.25])
    np.testing.assert_allclose(box.hi, [1.5, -0.75])
    with pytest.raises(ValueError):
        ToleranceBox(center=np.array([0.0]), half_widths=np.array([-0.1]))
    with pytest.raises(ValueError):
        ToleranceBox(center=np.array([0.0, 0.0]), half_widths=np.array([0.1]))


# ---------------------------------------------------------------------------
# Box maximization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 11, 16])
@pytest.mark.parametrize("n", [0, 1, 8])
def test_latin_hypercube_matches_scipy(d, n):
    for seed in (0, 5):
        expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
        np.testing.assert_array_equal(latin_hypercube(n, d, seed), expected)


def test_box_maximize_linear_hits_signed_corner():
    model = linear_model(2.0, -3.0)
    box = ToleranceBox(center=np.array([0.1, -0.2]), half_widths=np.array([0.3, 0.4]))
    result = box_maximize(model, box)
    expected_max = np.array([0.1 + 0.3, -0.2 - 0.4])
    assert result.value == pytest.approx(model(expected_max), rel=1e-12)
    assert len(result.maximizers) == 1
    np.testing.assert_allclose(result.maximizers[0], expected_max, atol=1e-10)
    np.testing.assert_array_equal(result.wall_contacts, np.ones((1, 2), dtype=bool), strict=True)


def test_box_maximize_interior_walls_only_where_touching():
    # Max of -|mu|^2 over a box away from the origin sits on the near corner.
    model = concave_bowl_model()
    box = ToleranceBox(center=np.array([0.5, 0.5]), half_widths=np.array([0.3, 0.3]))
    result = box_maximize(model, box)
    assert result.value == pytest.approx(-0.08, rel=1e-9)
    np.testing.assert_allclose(result.maximizers[0], [0.2, 0.2], atol=1e-8)


def test_box_maximize_reports_tied_corners():
    # mu_1 mu_2 is maximized at the two same-sign corners of a centered box.
    model = bilinear_model()
    box = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.5, 0.5]))
    result = box_maximize(model, box)
    assert result.value == pytest.approx(0.25, rel=1e-12)
    assert len(result.maximizers) == 2
    np.testing.assert_allclose(result.maximizers[0], [-0.5, -0.5], atol=1e-10)
    np.testing.assert_allclose(result.maximizers[1], [0.5, 0.5], atol=1e-10)
    np.testing.assert_array_equal(result.wall_contacts, np.ones((2, 2), dtype=bool), strict=True)


def test_box_maximize_zero_width_box(monkeypatch):
    monkeypatch.setattr(boxmax, "_starts", None)  # a zero-width box needs no starts
    model = linear_model(1.0, 1.0)
    box = ToleranceBox(center=np.array([0.2, 0.3]), half_widths=np.zeros(2))
    result = box_maximize(model, box)
    assert result.value == pytest.approx(0.5)
    np.testing.assert_array_equal(result.wall_contacts, np.ones((1, 2), dtype=bool), strict=True)


def test_box_maximize_projected_step_reaches_corners_in_few_kernel_calls(monkeypatch):
    """Q = mu_1^2 + mu_2^2 + 1e-11 mu_1 mu_2 about the box center.  At each face
    start the gradient pushes through its wall and the transverse part is
    ~1e-11; projecting out the blocked part lets the start slide to a corner
    instead of shrinking its step until it gives up."""
    square = np.array([1.0 / 3.0, 0.0, 2.0 / 3.0])   # x^2 = (1 + 2 P_2) / 3
    one = np.array([1.0, 0.0, 0.0])
    x = np.array([0.0, 1.0, 0.0])
    model = SeparatedModel(
        dim=2, rank=3, degree=2, intervals=UNIT_SQUARE, scales=np.array([1.0, 1.0, 1e-11]),
        coeffs=np.array([[square, one], [one, square], [x, x]]),
    )
    calls = []
    for name in ("eval_many", "eval_grad_many"):
        kernel = getattr(SeparatedModel, name)
        monkeypatch.setattr(SeparatedModel, name,
                            lambda self, points, kernel=kernel: calls.append(1) or kernel(self, points))
    half = np.array([0.5, 0.25])
    result = box_maximize(model, ToleranceBox(center=np.zeros(2), half_widths=half))
    assert len(calls) <= 6
    corners = np.array([[-0.5, -0.25], [-0.5, 0.25], [0.5, -0.25], [0.5, 0.25]])
    np.testing.assert_array_equal(result.maximizers, corners)
    assert result.value == pytest.approx(0.3125, rel=1e-10)
    np.testing.assert_array_equal(result.wall_contacts, np.ones((4, 2), dtype=bool), strict=True)


def test_box_maximize_matches_dense_grid():
    model = Rank2Synthetic().as_separated_model()
    rng = np.random.default_rng(17)
    axis = np.linspace(-1.0, 1.0, 241)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    for _ in range(5):
        center = rng.uniform(-0.4, 0.4, 2)
        half = rng.uniform(0.05, 0.5, 2)
        box = ToleranceBox(center=center, half_widths=half)
        grid = np.column_stack([
            np.clip(center[0] + mesh[0].ravel() * half[0], box.lo[0], box.hi[0]),
            np.clip(center[1] + mesh[1].ravel() * half[1], box.lo[1], box.hi[1]),
        ])
        oracle = model.eval_many(grid).max()
        result = box_maximize(model, box)
        assert result.value >= oracle - 1e-12
        assert result.value == pytest.approx(oracle, rel=1e-4)
        slack = 1e-12 * np.maximum(half, 1.0)
        assert np.all(result.maximizers >= box.lo - slack)
        assert np.all(result.maximizers <= box.hi + slack)


def test_box_maximize_deterministic():
    model = Rank2Synthetic().as_separated_model()
    box = ToleranceBox(center=np.array([0.1, -0.1]), half_widths=np.array([0.4, 0.3]))
    first = box_maximize(model, box)
    second = box_maximize(model, box)
    assert first.value == second.value
    np.testing.assert_array_equal(first.maximizers, second.maximizers)
    np.testing.assert_array_equal(first.wall_contacts, second.wall_contacts, strict=True)


def exact_bowl_model(d: int) -> SeparatedModel:
    """Q(mu) = sum_i mu_i^2 on [-1, 1]^d as a rank-d separated model."""
    square = np.array([1.0 / 3.0, 0.0, 2.0 / 3.0])   # x^2 = (1 + 2 P_2) / 3
    one = np.array([1.0, 0.0, 0.0])
    coeffs = np.array([[square if i == r else one for i in range(d)] for r in range(d)])
    return SeparatedModel(dim=d, rank=d, degree=2, intervals=(Interval(-1.0, 1.0),) * d,
                          scales=np.ones(d), coeffs=coeffs)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 10])
def test_box_maximize_reports_each_tied_corner_once(d):
    # Every corner of a centered box ties for the maximum of an exact bowl, and
    # the face and interior starts climb to the same corners, so the winners
    # are the 2^d corners, each many times over.  d = 10 is the last dimension
    # whose corners are all starts.
    half = np.linspace(0.3, 0.6, d)
    box = ToleranceBox(center=np.zeros(d), half_widths=half)
    result = box_maximize(exact_bowl_model(d), box)
    corners = np.array(list(itertools.product(*zip(box.center - half, box.center + half))))
    np.testing.assert_array_equal(result.maximizers, corners)
    np.testing.assert_array_equal(result.wall_contacts, np.ones((2 ** d, d), dtype=bool),
                                  strict=True)


def test_box_maximize_keeps_tied_points_that_differ(monkeypatch):
    # Q = mu_2 is maximized on the whole top edge.  Both starts sit on it with
    # a gradient blocked by the wall, so neither moves, and the two points,
    # 1e-12 apart, are distinct maximizers.
    starts = np.array([[0.0, 0.5], [1e-12, 0.5]])
    monkeypatch.setattr(boxmax, "_starts", lambda model, box: starts.copy())
    model = linear_model(0.0, 1.0)
    box = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.5, 0.5]))
    result = box_maximize(model, box)
    assert result.value == 0.5
    np.testing.assert_array_equal(result.maximizers, starts)
    np.testing.assert_array_equal(grad_G(model, box, result), [0.0, 1.0])


def test_box_maximize_dimension_mismatch():
    model = linear_model(1.0, 1.0)
    with pytest.raises(ValueError):
        box_maximize(model, ToleranceBox(center=np.zeros(3), half_widths=np.ones(3)))


# ---------------------------------------------------------------------------
# Tolerance gradient
# ---------------------------------------------------------------------------

def test_grad_G_linear_closed_form():
    model = linear_model(2.0, -3.0)
    box = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.3, 0.4]))
    result = box_maximize(model, box)
    # G(tau) = 2 tau_1 + 3 tau_2, so dG/dtau = (|c_1|, |c_2|).
    np.testing.assert_allclose(grad_G(model, box, result), [2.0, 3.0], rtol=1e-10)


def test_grad_G_concave_closed_form():
    # G(tau) = -(0.5 - tau_1)^2 - (0.5 - tau_2)^2 while tau < 0.5, so
    # dG/dtau_i = 2 (0.5 - tau_i).
    model = concave_bowl_model()
    box = ToleranceBox(center=np.array([0.5, 0.5]), half_widths=np.array([0.3, 0.1]))
    result = box_maximize(model, box)
    np.testing.assert_allclose(grad_G(model, box, result), [0.4, 0.8], rtol=1e-7)


def test_grad_G_zero_when_no_wall_contact():
    # Over a box that contains the unconstrained maximum of -|mu|^2, growing
    # the box cannot raise the maximum.
    model = concave_bowl_model()
    box = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.4, 0.4]))
    result = box_maximize(model, box)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grad_G(model, box, result), [0.0, 0.0], atol=1e-8)


def test_grad_G_degenerate_axis_uses_absolute_partial():
    model = linear_model(-2.0, 1.0)
    box = ToleranceBox(center=np.array([0.1, 0.1]), half_widths=np.array([0.0, 0.2]))
    result = box_maximize(model, box)
    assert result.wall_contacts[:, 0].all()
    grad = grad_G(model, box, result)
    assert grad[0] == pytest.approx(2.0, rel=1e-10)
    assert grad[1] == pytest.approx(1.0, rel=1e-10)


def grad_G_by_contacts(model, box, result):
    """Wall contacts and d G / d tau as loops over axes and maximizers, with
    the fixed axis apart: on each axis, the largest outward partial over the
    maximizers that touch one of its walls."""
    grads = model.grad_many(result.maximizers)
    contacts = np.zeros(result.maximizers.shape, dtype=bool)
    out = np.zeros(box.dim)
    for i in range(box.dim):
        for k, point in enumerate(result.maximizers):
            offset = point[i] - box.center[i]
            if box.half_widths[i] == 0.0:
                slope = abs(grads[k, i])
            elif abs(offset) >= box.half_widths[i] * (1.0 - boxmax.WALL_REL_TOL):
                slope = max(grads[k, i] * np.sign(offset), 0.0)
            else:
                continue
            contacts[k, i] = True
            out[i] = max(out[i], slope)
    return contacts, out


def test_grad_G_matches_contact_loop():
    cases = []
    for d in range(2, 7):  # 2^d tied corners
        box = ToleranceBox(center=np.zeros(d), half_widths=np.linspace(0.3, 0.6, d))
        cases.append((exact_bowl_model(d), box))
    cases.append((exact_bowl_model(3), ToleranceBox(center=np.array([0.1, 0.2, 0.0]),
                                                    half_widths=np.array([0.3, 0.0, 0.4]))))
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 6):
        center = rng.uniform(-0.3, 0.3, d)
        half = rng.uniform(0.05, 0.5, d)
        if d == 4:
            half[1] = 0.0
        cases.append((random_model(rng, dim=d, rank=3, degree=3),
                      ToleranceBox(center=center, half_widths=half)))
    ties = []
    for model, box in cases:
        result = box_maximize(model, box)
        contacts, expected = grad_G_by_contacts(model, box, result)
        np.testing.assert_array_equal(result.wall_contacts, contacts, strict=True)
        assert grad_G(model, box, result).tobytes() == expected.tobytes()
        ties.append(len(result.maximizers))
    assert ties[:6] == [4, 8, 16, 32, 64, 2]
    # A contact whose partial points into the box adds slope 0, not a
    # negative one; no maximizer box_maximize finds shows this, so the
    # result is made by hand.
    model = linear_model(2.0, -3.0)
    box = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.3, 0.4]))
    inward = boxmax.BoxMaxResult(value=0.0, maximizers=np.array([[0.3, 0.4]]),
                                 wall_contacts=np.ones((1, 2), dtype=bool), box=box)
    _, expected = grad_G_by_contacts(model, box, inward)
    np.testing.assert_array_equal(expected, [2.0, 0.0])
    assert grad_G(model, box, inward).tobytes() == expected.tobytes()


def test_grad_G_rejects_foreign_result():
    model = linear_model(1.0, 1.0)
    box = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.3, 0.3]))
    other = ToleranceBox(center=np.zeros(2), half_widths=np.array([0.4, 0.4]))
    result = box_maximize(model, box)
    with pytest.raises(ValueError):
        grad_G(model, other, result)


def test_grad_G_matches_finite_differences():
    model = Rank2Synthetic().as_separated_model()
    worst = SurrogateWorstCase(model, center=np.array([0.05, -0.1]))
    tau = np.array([0.25, 0.35])
    grad = worst.grad(tau)
    h = 1e-6
    for i in range(2):
        step = np.zeros(2)
        step[i] = h
        fd = (worst.value(tau + step) - worst.value(tau - step)) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# Exact worst case of an additive model
# ---------------------------------------------------------------------------

def random_additive_model(rng, d: int, degree: int) -> SeparatedModel:
    """c + sum_i f_i(mu_i) on random intervals: term i varies in dimension i
    only, and term d is a constant."""
    coeffs = np.zeros((d + 1, d, degree + 1))
    coeffs[:, :, 0] = rng.uniform(0.5, 1.5, (d + 1, d))
    for i in range(d):
        coeffs[i, i] = rng.uniform(-1.0, 1.0, degree + 1)
    lo = rng.uniform(-2.0, 0.0, d)
    intervals = tuple(Interval(a, a + w) for a, w in zip(lo, rng.uniform(1.0, 4.0, d)))
    return SeparatedModel(dim=d, rank=d + 1, degree=degree, intervals=intervals,
                          scales=rng.uniform(0.5, 2.0, d + 1), coeffs=coeffs)


def test_additive_worst_case_matches_the_multistart():
    rng = np.random.default_rng(40)
    for _ in range(30):
        d, degree = int(rng.integers(1, 9)), int(rng.integers(0, 6))
        model = random_additive_model(rng, d, degree)
        lo = np.array([iv.lo for iv in model.intervals])
        hi = np.array([iv.hi for iv in model.intervals])
        for _ in range(3):
            center = lo + (hi - lo) * rng.uniform(0.3, 0.7, d)
            tau = np.minimum(center - lo, hi - center) * rng.uniform(0.0, 1.0, d)
            tau[rng.uniform(size=d) < 0.2] = 0.0
            box = ToleranceBox(center=center, half_widths=tau)
            value, grad = additive_worst_case(additive_split(model), box)
            result = box_maximize(model, box)
            assert value >= result.value - 1e-12 * abs(value)
            assert value == pytest.approx(result.value, rel=1e-6)
            np.testing.assert_allclose(grad, grad_G(model, box, result), rtol=0.0, atol=1e-9)
            worst = SurrogateWorstCase(model, center)
            assert worst.value(tau) == value
            assert worst.grad(tau).tobytes() == grad.tobytes()


def legendre_cubic(a0, a1, a2, a3) -> list[float]:
    """Legendre coefficients of a0 + a1 x + a2 x^2 + a3 x^3, from
    x^2 = (1 + 2 P_2) / 3 and x^3 = (3 P_1 + 2 P_3) / 5."""
    return [a0 + a2 / 3.0, a1 + 3.0 * a3 / 5.0, 2.0 * a2 / 3.0, 2.0 * a3 / 5.0]


def test_additive_worst_case_finds_the_interior_maximum_the_multistart_misses():
    # Q = -100 mu_1^2 + 0.1 (mu_2 - mu_2^3): both maxima are interior, at
    # mu_1 = 0 and mu_2 = 1 / sqrt(3), and the stiff first axis holds the
    # polish's steps too short to reach the flat second one's.
    one = legendre_cubic(1.0, 0.0, 0.0, 0.0)
    coeffs = np.array([[legendre_cubic(0.0, 0.0, -100.0, 0.0), one],
                       [one, legendre_cubic(0.0, 0.1, 0.0, -0.1)]])
    model = SeparatedModel(dim=2, rank=2, degree=3, intervals=UNIT_SQUARE,
                           scales=np.ones(2), coeffs=coeffs)
    box = ToleranceBox(center=np.array([0.1, 0.5]), half_widths=np.array([0.3, 0.3]))
    closed_form = 0.1 * 2.0 / (3.0 * np.sqrt(3.0))
    value, grad = additive_worst_case(additive_split(model), box)
    assert value == pytest.approx(closed_form, rel=1e-15)
    np.testing.assert_array_equal(grad, [0.0, 0.0])
    assert box_maximize(model, box).value < closed_form * (1.0 - 1e-4)


def test_additive_worst_case_takes_the_largest_slope_over_tied_walls():
    # Q = mu^3 - 3 mu on [-2, 2] is 2 at both ends of [-1, 2]: slope 0 at
    # the lower wall (a critical point), 9 at the upper.
    model = SeparatedModel(dim=1, rank=1, degree=3, intervals=(Interval(-2.0, 2.0),),
                           scales=np.ones(1), coeffs=np.array([[[0.0, -1.2, 0.0, 3.2]]]))
    box = ToleranceBox(center=np.array([0.5]), half_widths=np.array([1.5]))
    value, grad = additive_worst_case(additive_split(model), box)
    assert value == pytest.approx(2.0, rel=1e-14)
    assert grad[0] == pytest.approx(9.0, rel=1e-14)
    result = box_maximize(model, box)
    assert len(result.maximizers) == 2
    np.testing.assert_allclose(grad, grad_G(model, box, result), rtol=1e-14)


@pytest.mark.parametrize("d", range(2, 11))
def test_additive_worst_case_of_the_exact_bowl(d):
    # Every corner ties, so both walls of each axis are maximizers.
    tau = np.linspace(0.3, 0.6, d)
    value, grad = additive_worst_case(additive_split(exact_bowl_model(d)),
                                      ToleranceBox(center=np.zeros(d), half_widths=tau))
    assert value == pytest.approx(float(np.sum(tau ** 2)), rel=1e-14)
    np.testing.assert_allclose(grad, 2.0 * tau, rtol=1e-14)


def test_a_model_with_one_non_univariate_term_goes_through_the_multistart():
    d = 3
    bowl = exact_bowl_model(d)
    mixed = random_model(np.random.default_rng(8), dim=d, rank=1, degree=2)
    bowl_plus_one = SeparatedModel(
        dim=d, rank=d + 1, degree=2, intervals=bowl.intervals,
        scales=np.concatenate([bowl.scales, 0.1 * mixed.scales]),
        coeffs=np.concatenate([bowl.coeffs, mixed.coeffs]))
    center, tau = np.array([0.1, -0.2, 0.0]), np.array([0.4, 0.3, 0.0])
    box = ToleranceBox(center=center, half_widths=tau)
    for model in (bowl_plus_one, random_model(np.random.default_rng(9), dim=d, rank=3, degree=3)):
        assert additive_split(model) is None
        result = box_maximize(model, box)
        worst = SurrogateWorstCase(model, center)
        assert worst.value(tau) == result.value
        assert worst.grad(tau).tobytes() == grad_G(model, box, result).tobytes()


def test_a_tau_beyond_the_model_interval_raises_on_both_paths():
    mixed = random_model(np.random.default_rng(9), dim=2, rank=3, degree=3)
    for model in (exact_bowl_model(2), mixed):
        worst = SurrogateWorstCase(model, np.zeros(2))
        for method in (worst.value, worst.grad):
            with pytest.raises(ValueError, match="outside interval for dimension 1"):
                method(np.array([0.5, 1.5]))


# ---------------------------------------------------------------------------
# Worst-case wrappers
# ---------------------------------------------------------------------------

def test_surrogate_worst_case_value_and_cache():
    model = Rank2Synthetic().as_separated_model()
    worst = SurrogateWorstCase(model, center=np.zeros(2))
    tau = np.array([0.3, 0.2])
    box = ToleranceBox(center=np.zeros(2), half_widths=tau)
    assert worst.value(tau) == box_maximize(model, box).value
    assert worst.value(tau) == worst.value(tau.copy())
    assert len(worst._cache) == 1


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``boxmax.<name>``, called as ``name(model, box, ...)``, to record
    the half-widths of each call's box."""
    calls, fn = [], getattr(boxmax, name)

    def counted(model, box, *args):
        calls.append(box.half_widths.tobytes())
        return fn(model, box, *args)

    monkeypatch.setattr(boxmax, name, counted)
    return calls


def test_value_and_grad_at_one_tau_share_one_exact_solve(monkeypatch):
    solves = count_calls(monkeypatch, "additive_worst_case")
    worst = SurrogateWorstCase(exact_bowl_model(3), np.zeros(3))
    tau = np.array([0.3, 0.4, 0.5])
    value = worst.value(tau)
    grad = worst.grad(tau.copy())
    assert len(solves) == 1
    assert value == pytest.approx(0.5, rel=1e-14)
    np.testing.assert_allclose(grad, 2.0 * tau, rtol=1e-14)
    assert worst.value(list(tau)) == value and len(solves) == 1


def test_cg_allocation_on_an_exact_bowl_solves_each_tau_once(monkeypatch):
    solves = count_calls(monkeypatch, "additive_worst_case")
    bowl = exact_bowl_model(6)
    a = np.linspace(0.5, 5.0, 6)
    model = SeparatedModel(dim=6, rank=6, degree=2, intervals=bowl.intervals, scales=a,
                           coeffs=bowl.coeffs)
    worst = SurrogateWorstCase(model, np.zeros(6))
    requests = []
    for name in ("value", "grad"):
        method = getattr(worst, name)
        setattr(worst, name, lambda tau, method=method: requests.append(1) or method(tau))
    bbox = BoundingBox(np.zeros(6), 0.5 / np.sqrt(a))
    tau0 = initial_guess(bbox, OneNorm(), worst, 0.25)
    result = conjugate_gradient(tau0, bbox, worst, 0.25, OneNorm())
    assert result.iterations > 0
    assert len(solves) == len(set(solves)) > 20
    assert len(requests) > len(solves)


def test_value_and_grad_of_a_non_additive_model_share_one_multistart(monkeypatch):
    maximizes = count_calls(monkeypatch, "box_maximize")
    gradients = count_calls(monkeypatch, "grad_G")
    worst = SurrogateWorstCase(Rank2Synthetic().as_separated_model(), np.zeros(2))
    tau = np.array([0.3, 0.2])
    worst.value(tau)
    worst.grad(tau)
    worst.grad(tau.copy())
    assert len(maximizes) == len(gradients) == 1


@pytest.mark.parametrize("model", [exact_bowl_model(2), Rank2Synthetic().as_separated_model()],
                         ids=["additive", "multistart"])
def test_the_cached_gradient_is_read_only(model):
    worst = SurrogateWorstCase(model, np.zeros(2))
    tau = np.array([0.3, 0.2])
    grad = worst.grad(tau)
    before = grad.copy()
    with pytest.raises(ValueError, match="read-only"):
        grad[0] = 1.0
    np.testing.assert_array_equal(worst.grad(tau), before)


def test_analytic_worst_case_wraps_callables():
    worst = AnalyticWorstCase(lambda t: t[0] ** 2 + t[1], lambda t: np.array([2 * t[0], 1.0]))
    assert worst.value([2.0, 1.0]) == 5.0
    np.testing.assert_allclose(worst.grad([2.0, 1.0]), [4.0, 1.0])
