import numpy as np
import pytest

from tolalloc import Interval
from tolalloc.domain import (
    BoundingBox,
    ConstraintError,
    axis_threshold,
    size_bounding_box,
)
from tolalloc.evaluator import AbsSum, ExpCos, QuadraticBowl


# ---------------------------------------------------------------------------
# Box containers
# ---------------------------------------------------------------------------

def test_bounding_box_validation_and_clip():
    box = BoundingBox(tau_min=np.array([0.0, 0.1]), tau_max=np.array([1.0, 0.5]))
    assert box.dim == 2
    np.testing.assert_allclose(box.clip([2.0, 0.0]), [1.0, 0.1])
    with pytest.raises(ValueError):
        BoundingBox(tau_min=np.array([0.5]), tau_max=np.array([0.5]))
    with pytest.raises(ValueError):
        BoundingBox(tau_min=np.array([-0.1]), tau_max=np.array([0.5]))
    with pytest.raises(ValueError, match="1-d vectors of equal length"):
        BoundingBox(tau_min=np.zeros(2), tau_max=np.ones(3))
    # A comparison with NaN is False, so NaN must not slip through the order checks.
    for tau_min, tau_max in [([0.0, 0.0], [np.nan, np.inf]), ([0.0, 0.0], [0.5, np.inf]),
                             ([np.nan, 0.0], [0.5, 0.5]), ([0.0, 0.0], [0.5, np.nan])]:
        with pytest.raises(ValueError):
            BoundingBox(tau_min=np.array(tau_min), tau_max=np.array(tau_max))


def test_ray_length_to_the_first_wall():
    box = BoundingBox(tau_min=np.array([0.0, 0.1]), tau_max=np.array([1.0, 0.5]))
    # From the lower corner only the upward components count.
    assert box.ray_length(box.tau_min, np.array([0.5, 0.0])) == 2.0
    # From inside, a downward component meets the lower wall first.
    assert box.ray_length(np.array([0.5, 0.3]), np.array([1.0, -0.4])) == pytest.approx(0.5)
    assert box.ray_length(np.array([0.5, 0.3]), np.array([0.25, -0.4])) == pytest.approx(0.5)
    # A ray leaving through the wall it sits on has length 0; one going nowhere, inf.
    assert box.ray_length(box.tau_min, np.array([-1.0, 1.0])) <= 0.0
    assert box.ray_length(box.tau_min, np.zeros(2)) == np.inf


# ---------------------------------------------------------------------------
# Axis thresholds
# ---------------------------------------------------------------------------

def test_axis_threshold_quadratic_closed_form():
    # a1 t^2 = q_allow  =>  t = sqrt(q_allow / a1)
    bowl = QuadraticBowl(a=[4.0, 1.0])
    t = axis_threshold(bowl, [0.0, 0.0], 1.0, axis=0, direction=+1, search_cap=10.0)
    assert t == pytest.approx(0.5, rel=1e-12)
    t = axis_threshold(bowl, [0.0, 0.0], 1.0, axis=1, direction=-1, search_cap=10.0)
    assert t == pytest.approx(1.0, rel=1e-12)


def test_axis_threshold_respects_offset_nominal():
    # Q = (mu_1 - 0.2)^2; from mu_hat = 0 the +e_1 crossing sits at 0.2 + 1.
    bowl = QuadraticBowl(a=[1.0], center=[0.2])
    plus = axis_threshold(bowl, [0.0], 1.0, axis=0, direction=+1, search_cap=10.0)
    minus = axis_threshold(bowl, [0.0], 1.0, axis=0, direction=-1, search_cap=10.0)
    assert plus == pytest.approx(1.2, rel=1e-12)
    assert minus == pytest.approx(0.8, rel=1e-12)


def test_axis_threshold_caps_when_no_crossing():
    bowl = QuadraticBowl(a=[1.0, 1.0])
    with pytest.warns(UserWarning, match="search cap"):
        t = axis_threshold(bowl, [0.0, 0.0], 100.0, axis=0, direction=+1, search_cap=2.0)
    assert t == 2.0


def test_axis_threshold_doubles_its_step_up_to_the_cap():
    steps = []

    def flat(mu):
        steps.append(float(mu[0]))
        return 0.0

    with pytest.warns(UserWarning, match="search cap"):
        t = axis_threshold(flat, [0.0], 1.0, axis=0, direction=+1, search_cap=2.0)
    assert t == 2.0
    # Q(mu_hat), then 2e-3 * 2^k for k = 0..9, then the cap itself.
    assert steps == [0.0] + [2e-3 * 2.0**k for k in range(10)] + [2.0]


def test_axis_threshold_input_validation():
    bowl = QuadraticBowl(a=[1.0])
    with pytest.raises(ValueError):
        axis_threshold(bowl, [0.0], 1.0, axis=0, direction=2, search_cap=1.0)
    with pytest.raises(ValueError):
        axis_threshold(bowl, [0.0], 1.0, axis=0, direction=1, search_cap=0.0)
    with pytest.raises(ValueError):
        axis_threshold(bowl, [0.0], 1.0, axis=0, direction=1, search_cap=float("nan"))
    with pytest.raises(ConstraintError):
        axis_threshold(bowl, [2.0], 1.0, axis=0, direction=1, search_cap=1.0)


def test_axis_threshold_warns_when_the_crossing_is_a_jump():
    # Q jumps from 0 to 2 across q_allow = 1, so no step has a small residual.
    def step(mu):
        return 0.0 if mu[0] < 0.3 else 2.0

    with pytest.warns(UserWarning, match="crossing refined to residual above"):
        t = axis_threshold(step, [0.0], 1.0, axis=0, direction=+1, search_cap=1.0)
    assert t == pytest.approx(0.3, abs=1e-12)


def test_axis_threshold_nonsmooth_function():
    f = AbsSum(a=[2.0, 1.0])
    t = axis_threshold(f, [0.0, 0.0], 1.0, axis=0, direction=+1, search_cap=10.0)
    assert t == pytest.approx(0.5, rel=1e-10)


# ---------------------------------------------------------------------------
# Full box sizing
# ---------------------------------------------------------------------------

def test_size_bounding_box_takes_binding_direction():
    # Q = (mu_1 - 0.2)^2 + mu_2^2: the +e_1 crossing (0.8 away) binds over
    # the -e_1 crossing (1.2 away) ... with q_allow = 1 from mu_hat = (0.2, 0).
    bowl = QuadraticBowl(a=[1.0, 1.0], center=[0.0, 0.0])
    bbox, intervals = size_bounding_box(bowl, [0.2, 0.0], 1.0, caps=10.0)
    assert bbox.tau_max[0] == pytest.approx(0.8, rel=1e-12)
    assert bbox.tau_max[1] == pytest.approx(np.sqrt(1.0 - 0.04), rel=1e-12)
    np.testing.assert_array_equal(bbox.tau_min, [0.0, 0.0])
    assert intervals[0].lo == pytest.approx(0.2 - 0.8)
    assert intervals[0].hi == pytest.approx(0.2 + 0.8)
    t1, t2 = bbox.tau_max
    assert intervals == (Interval(0.2 - t1, 0.2 + t1), Interval(-t2, t2))


def test_size_bounding_box_quadratic_reference():
    bowl = QuadraticBowl(a=[1.0, 4.0])
    bbox, _ = size_bounding_box(bowl, [0.0, 0.0], 1.0, caps=[5.0, 5.0])
    np.testing.assert_allclose(bbox.tau_max, [1.0, 0.5], rtol=1e-12)


def test_size_bounding_box_smooth_nonpolynomial():
    # Q = exp(mu_1) cos(mu_2) at mu_hat = 0 equals 1; with q_allow = e^0.3 the
    # +e_1 crossing is exactly 0.3 while -e_1 never crosses (capped), and the
    # mu_2 axis only decreases Q, so that axis caps too.
    f = ExpCos()
    with pytest.warns(UserWarning, match="search cap"):
        bbox, _ = size_bounding_box(f, [0.0, 0.0], float(np.exp(0.3)), caps=0.8)
    assert bbox.tau_max[0] == pytest.approx(0.3, rel=1e-10)
    assert bbox.tau_max[1] == pytest.approx(0.8)


def test_size_bounding_box_rejects_infeasible_nominal():
    bowl = QuadraticBowl(a=[1.0, 1.0])
    with pytest.raises(ConstraintError):
        size_bounding_box(bowl, [2.0, 0.0], 1.0, caps=5.0)
