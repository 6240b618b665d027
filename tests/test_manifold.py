import csv

import numpy as np
import pytest

from tolalloc import manifold
from tolalloc.boxmax import AnalyticWorstCase
from tolalloc.domain import BoundingBox
from tolalloc.files import write_trace
from tolalloc.manifold import (
    DegenerateNormalError,
    InitializationError,
    RetractionError,
    build_projection,
    conjugate_gradient,
    gradient_ascent,
    initial_guess,
    line_search,
    retract,
)
from tolalloc.measures import MinusOneNorm, MuNorm, OneNorm, ReciprocalPowerCost

# G(tau) = tau_1^2 + 4 tau_2^2 with q_allow = 1: maximizing tau_1 + tau_2 on
# this ellipse has the closed-form solution (2, 1/2) / sqrt(5) with value
# sqrt(5)/2.
ELLIPSE = AnalyticWorstCase(
    lambda t: t[0] ** 2 + 4.0 * t[1] ** 2,
    lambda t: np.array([2.0 * t[0], 8.0 * t[1]]),
)
ELLIPSE_OPT = np.array([2.0, 0.5]) / np.sqrt(5.0)
ELLIPSE_F = np.sqrt(5.0) / 2.0

FLAT = AnalyticWorstCase(lambda t: t[0] + t[1], lambda t: np.ones(2))

# The larger of two crossed ellipses: G has a kink where they meet, at the
# one-norm optimum (1, 1)/sqrt(5), and its gradient there is the first one's.
KINKED = AnalyticWorstCase(
    lambda t: max(t[0] ** 2 + 4.0 * t[1] ** 2, 4.0 * t[0] ** 2 + t[1] ** 2),
    lambda t: (np.array([2.0 * t[0], 8.0 * t[1]]) if t[1] >= t[0]
               else np.array([8.0 * t[0], 2.0 * t[1]])),
)

BOX = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([2.0, 2.0]))


# ---------------------------------------------------------------------------
# Retraction
# ---------------------------------------------------------------------------

def test_retract_returns_to_manifold_from_both_sides():
    on = retract(np.array([0.1, 0.1]), np.zeros(2), BOX, ELLIPSE, 1.0, 1e-10)
    assert ELLIPSE.value(on) == pytest.approx(1.0, abs=1e-10)
    above = retract(np.array([1.5, 1.5]), np.zeros(2), BOX, ELLIPSE, 1.0, 1e-10)
    assert ELLIPSE.value(above) == pytest.approx(1.0, abs=1e-10)
    # The retractor for a point above the manifold points toward tau_min, so
    # the result lies on the segment between the anchor and tau_min.
    assert np.all(above <= 1.5) and np.all(above >= 0.0)


def test_retract_keeps_points_already_on_manifold():
    tau = np.array([0.6, 0.4])  # G = 0.36 + 0.64 = 1
    out = retract(tau, np.zeros(2), BOX, ELLIPSE, 1.0, 1e-10)
    np.testing.assert_allclose(out, tau, atol=1e-14)


def test_retract_applies_tangent_step_first():
    tau = np.array([0.6, 0.4])
    eta = np.array([0.05, -0.05])
    out = retract(tau, eta, BOX, ELLIPSE, 1.0, 1e-10)
    assert ELLIPSE.value(out) == pytest.approx(1.0, abs=1e-10)
    assert not np.allclose(out, tau)


def test_retract_raises_when_no_crossing():
    small_box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.2, 0.2]))
    # G <= 0.2^2 * 5 = 0.2 everywhere in this box, so G = 1 is unreachable.
    with pytest.raises(RetractionError):
        retract(np.array([0.1, 0.1]), np.zeros(2), small_box, ELLIPSE, 1.0, 1e-10)
    # From the tau_max corner, below the manifold, the retractor has no length.
    with pytest.raises(RetractionError, match="degenerate retractor direction"):
        retract(small_box.tau_max, np.zeros(2), small_box, ELLIPSE, 1.0, 1e-10)


class _CountingG:
    """A stub G from ``value`` and ``grad`` callables that counts its calls."""

    def __init__(self, value, grad):
        self._value, self._grad, self.values, self.grads = value, grad, 0, 0

    def value(self, tau):
        self.values += 1
        return self._value(tau)

    def grad(self, tau):
        self.grads += 1
        return self._grad(tau)


def test_retract_raises_when_the_crossing_misses_the_residual_tolerance():
    # G jumps from 0 to 2 across q_allow = 1 on the line tau_1 + tau_2 = 1:
    # bisection narrows the bracket onto the jump, where |G - 1| stays 1.
    step = _CountingG(lambda t: 0.0 if t[0] + t[1] < 1.0 else 2.0, lambda t: np.zeros(2))
    with pytest.raises(RetractionError, match="^manifold crossing failed the residual "
                                              "tolerance$"):
        retract(np.array([0.1, 0.1]), np.zeros(2), BOX, step, 1.0, 1e-10)
    assert 40 < step.values <= manifold.MAXITER + 2


@pytest.mark.parametrize("tol, crossed", [(0.2, True), (1e-10, False)])
def test_crossing_stops_when_a_newton_step_leaves_s_unchanged(tol, crossed):
    # G - 1 is -1.9 at s = 0 and 0.1 at s = 1, where a slope that claims
    # 2e30 asks for a step of 5e-32, which leaves s = 1.0 as it is: the
    # crossing stops there, after one G value and one G gradient, and
    # returns that end when |0.1| meets tol, raising otherwise.
    steep = _CountingG(lambda t: t[0] - 0.9, lambda t: np.array([1e30, 0.0]))
    args = (steep, 1.0, BOX, np.zeros(2), np.array([2.0, 0.0]), 1.0, -1.9, tol, RetractionError)
    if crossed:
        np.testing.assert_array_equal(manifold._crossing(*args), [2.0, 0.0])
    else:
        with pytest.raises(RetractionError, match="failed the residual tolerance"):
            manifold._crossing(*args)
    assert (steep.values, steep.grads) == (1, 1)


# ---------------------------------------------------------------------------
# Tangent frame
# ---------------------------------------------------------------------------

def test_build_projection_tangent_space_properties():
    tau = np.array([0.6, 0.4])
    frame = build_projection(tau, BOX, ELLIPSE.grad(tau), np.ones(2))
    assert np.linalg.norm(frame.normal) == pytest.approx(1.0)
    np.testing.assert_allclose(frame.projector @ frame.normal, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(frame.projector, frame.projector.T, atol=1e-14)
    np.testing.assert_allclose(frame.projector @ frame.projector, frame.projector,
                               atol=1e-12)
    # Off the walls the projector is exactly I - n n^T.
    np.testing.assert_allclose(frame.projector, np.eye(2) - np.outer(frame.normal, frame.normal),
                               atol=1e-15)
    assert frame.cg_flag


def test_build_projection_zeroes_outward_wall_rows():
    # tau_1 sits on the upper wall and the measure wants to push further out.
    box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.6, 2.0]))
    tau = np.array([0.6, 0.4])
    frame = build_projection(tau, box, ELLIPSE.grad(tau), np.ones(2))
    np.testing.assert_array_equal(frame.projector[0], [0.0, 0.0])
    assert not frame.cg_flag


def test_build_projection_keeps_inward_wall_rows():
    # On the same wall but with the measure pointing back inside, the row stays.
    box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.6, 2.0]))
    tau = np.array([0.6, 0.4])
    frame = build_projection(tau, box, ELLIPSE.grad(tau), np.array([-1.0, 1.0]))
    assert np.any(frame.projector[0] != 0.0)
    assert frame.cg_flag


def test_build_projection_projects_within_the_wall_face():
    # tau_1 is blocked on its upper wall (multiplier 3 - 4 * 5/13 > 0): the
    # projector maps onto the vectors of the face tau_1 = const that are
    # tangent to G, here 2 t_2 + 3 t_3 = 0.
    box = BoundingBox(tau_min=np.zeros(3), tau_max=np.array([0.5, 2.0, 2.0]))
    grad_g = np.array([4.0, 2.0, 3.0])
    frame = build_projection(np.array([0.5, 0.4, 0.4]), box, grad_g, np.array([3.0, 1.0, 1.0]))
    np.testing.assert_allclose(frame.normal, np.array([0.0, 2.0, 3.0]) / np.sqrt(13.0))
    np.testing.assert_allclose(frame.projector, frame.projector.T, atol=1e-15)
    np.testing.assert_allclose(frame.projector @ frame.projector, frame.projector, atol=1e-15)
    np.testing.assert_array_equal(frame.projector[0], np.zeros(3))
    np.testing.assert_array_equal(frame.projector[:, 0], np.zeros(3))
    np.testing.assert_allclose(frame.projector @ np.array([0.0, 3.0, -2.0]), [0.0, 3.0, -2.0])
    np.testing.assert_allclose(frame.projector @ grad_g, np.zeros(3), atol=1e-15)
    assert not frame.cg_flag


def test_build_projection_degenerate_normal():
    with pytest.raises(DegenerateNormalError):
        build_projection(np.array([0.5, 0.5]), BOX, np.zeros(2), np.ones(2))


# ---------------------------------------------------------------------------
# Initial guess
# ---------------------------------------------------------------------------

def test_initial_guess_lands_on_manifold():
    tau0 = initial_guess(BOX, OneNorm(), ELLIPSE, 1.0, 1e-10)
    assert ELLIPSE.value(tau0) == pytest.approx(1.0, abs=1e-10)
    # The 1-norm ray from the origin is the diagonal, crossing at 1/sqrt(5).
    np.testing.assert_allclose(tau0, [1.0 / np.sqrt(5.0)] * 2, rtol=1e-12)


def test_initial_guess_respects_measure_direction():
    tau0 = initial_guess(BOX, MuNorm(weights=np.array([1.0, 0.0])), ELLIPSE, 1.0, 1e-10)
    np.testing.assert_allclose(tau0, [1.0, 0.0], atol=1e-12)


class FixedGradient:
    """A stub measure whose gradient is one fixed vector everywhere."""

    def __init__(self, gradient):
        self.gradient = gradient

    def value(self, tau):
        return float(self.gradient @ tau)

    def grad(self, tau):
        return self.gradient


def test_initial_guess_failure_modes():
    with pytest.raises(InitializationError, match="violates"):
        initial_guess(
            BoundingBox(tau_min=np.array([1.0, 1.0]), tau_max=np.array([2.0, 2.0])),
            OneNorm(), ELLIPSE, 1.0, 1e-10,
        )
    with pytest.raises(InitializationError, match="exits"):
        initial_guess(
            BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.2, 0.2])),
            OneNorm(), ELLIPSE, 1.0, 1e-10,
        )
    for grad, named in [([0.0, 0.0], "ascent direction vanished"),
                        ([-1.0, 0.0], "does not enter the bounding box")]:
        with pytest.raises(InitializationError, match=named):
            initial_guess(BOX, FixedGradient(np.array(grad)), ELLIPSE, 1.0, 1e-10)


# ---------------------------------------------------------------------------
# Line search
# ---------------------------------------------------------------------------

def test_line_search_improves_measure_along_tangent():
    tau = np.array([1.0 / np.sqrt(5.0)] * 2)
    grad_g = ELLIPSE.grad(tau)
    frame = build_projection(tau, BOX, grad_g, np.ones(2))
    v = frame.projector @ np.ones(2)
    alpha, tau_plus, f_plus, stalled = line_search(tau, v, BOX, OneNorm(), ELLIPSE, 1.0)
    assert not stalled and alpha > 0.0
    assert f_plus > OneNorm().value(tau)
    assert ELLIPSE.value(tau_plus) == pytest.approx(1.0, abs=1e-9)


def test_line_search_zero_direction_stalls():
    tau = np.array([0.6, 0.4])
    alpha, tau_plus, f_plus, stalled = line_search(tau, np.zeros(2), BOX, OneNorm(), ELLIPSE, 1.0)
    assert stalled and alpha == 0.0
    np.testing.assert_array_equal(tau_plus, tau)
    # On the wall tau_1 = 2, a direction out through it has a ray of length 0.
    on_wall = np.array([2.0, 0.4])
    alpha, tau_plus, f_plus, stalled = line_search(on_wall, np.array([1.0, 0.0]), BOX,
                                                   OneNorm(), ELLIPSE, 1.0)
    assert stalled and alpha == 0.0 and f_plus == 2.4
    np.testing.assert_array_equal(tau_plus, on_wall)


def _central_difference(tau, unit, alpha, box, h=1e-6):
    def phi(a):
        return manifold._probe(tau, unit, a, box, OneNorm(), ELLIPSE, 1.0)[1]
    return (phi(alpha + h) - phi(alpha - h)) / (2.0 * h)


@pytest.mark.parametrize("unit, alpha, tau_max", [
    # Along the tangent: the anchor lies above the ellipse and retracts
    # toward tau_min.
    (np.array([3.2, -1.2]) / np.hypot(3.2, 1.2), 0.1, [2.0, 2.0]),
    # Into the ellipse: the anchor lies below it and retracts toward tau_max.
    (np.array([-0.6, -0.8]), 0.1, [2.0, 2.0]),
    # Past the wall tau_1 = 0.7: the anchor's clip holds tau_1 there.
    (np.array([1.0, 0.2]) / np.hypot(1.0, 0.2), 0.2, [0.7, 2.0]),
], ids=["above", "below", "clipped-anchor"])
def test_probe_slope_matches_central_difference(unit, alpha, tau_max):
    box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array(tau_max))
    tau = np.array([0.6, 0.4])
    point, f, slope = manifold._probe(tau, unit, alpha, box, OneNorm(), ELLIPSE, 1.0)
    assert ELLIPSE.value(point) == pytest.approx(1.0, abs=1e-15)
    assert f == OneNorm().value(point)
    assert slope == pytest.approx(_central_difference(tau, unit, alpha, box), rel=1e-7)
    if tau_max[0] < 2.0:
        assert tau[0] + alpha * unit[0] > box.tau_max[0]


def test_line_search_descent_direction_stalls():
    # A conjugate direction need not ascend: here phi'(0) < 0 and
    # phi'(alpha_max) < 0, so there is no slope bracket to search.
    tau = np.array([0.6, 0.4])
    alpha, tau_plus, f_plus, stalled = line_search(
        tau, np.array([-3.2, 1.2]), BOX, OneNorm(), ELLIPSE, 1.0
    )
    assert stalled and alpha == 0.0 and f_plus == 1.0
    np.testing.assert_array_equal(tau_plus, tau)


def test_line_search_survives_failed_retractions():
    # Beyond tau_1 = 0.75, G is capped at 0.9 < q_allow, so an anchor there
    # has no crossing on its retractor line, as at alpha_max.
    def value(t):
        g = t[0] ** 2 + 4.0 * t[1] ** 2
        return min(g, 0.9) if t[0] > 0.75 else g

    capped = AnalyticWorstCase(value, lambda t: np.array([2.0 * t[0], 8.0 * t[1]]))
    tau, v = np.array([0.6, 0.4]), np.array([3.2, -1.2])
    with pytest.raises(RetractionError):
        retract(tau, 1.1 * v / np.linalg.norm(v), BOX, capped, 1.0)
    alpha, tau_plus, f_plus, stalled = line_search(tau, v, BOX, OneNorm(), capped, 1.0)
    assert not stalled and alpha > 0.0
    assert f_plus > OneNorm().value(tau)
    assert tau_plus[0] <= 0.75
    assert capped.value(tau_plus) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Traversal drivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("solve", [gradient_ascent, conjugate_gradient], ids=["ga", "cg"])
def test_traversal_reaches_ellipse_optimum(solve):
    tau0 = initial_guess(BOX, OneNorm(), ELLIPSE, 1.0, 1e-10)
    result = solve(tau0, BOX, ELLIPSE, 1.0, OneNorm())
    np.testing.assert_allclose(result.tau, ELLIPSE_OPT, atol=1e-4)
    assert result.f_opt == pytest.approx(ELLIPSE_F, abs=1e-8)
    assert result.g_residual < 1e-9
    assert result.stop == "stationary"
    # The trace records every accepted iterate and never decreases in F.
    assert len(result.trace.iterates) == result.iterations + 1
    f = result.trace.f_values
    assert all(b >= a - 1e-12 for a, b in zip(f, f[1:]))


@pytest.mark.parametrize("solve", [gradient_ascent, conjugate_gradient], ids=["ga", "cg"])
def test_traversal_flat_manifold_minus_one_norm(solve):
    # On tau_1 + tau_2 = 1 the harmonic measure peaks at the balanced point.
    tau0 = initial_guess(BOX, MinusOneNorm(), FLAT, 1.0, 1e-10)
    result = solve(tau0, BOX, FLAT, 1.0, MinusOneNorm())
    np.testing.assert_allclose(result.tau, [0.5, 0.5], atol=1e-6)
    assert result.f_opt == pytest.approx(0.25, abs=1e-9)


def test_traversal_minus_one_norm_from_lopsided_start():
    # The first step may run to tau_1 = 0, where the harmonic measure is 0 and
    # has no gradient; the line search must still find the balanced point.
    result = gradient_ascent(np.array([0.9, 0.1]), BOX, FLAT, 1.0, MinusOneNorm())
    np.testing.assert_allclose(result.tau, [0.5, 0.5], atol=1e-6)


def test_traversal_stops_on_binding_wall():
    # On the wall tau_1 = 0.7 the face's tangent space of the manifold is the
    # single point, so the projected gradient vanishes there.
    box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.7, 2.0]))
    tau0 = initial_guess(box, OneNorm(), ELLIPSE, 1.0, 1e-10)
    expected = np.array([0.7, np.sqrt((1.0 - 0.49) / 4.0)])
    for solve in (gradient_ascent, conjugate_gradient):
        result = solve(tau0, box, ELLIPSE, 1.0, OneNorm())
        np.testing.assert_allclose(result.tau, expected, atol=1e-6)
        assert any(axis == 0 for _, axis in result.trace.wall_events)
        assert result.stop == "stationary", solve.__name__


def test_traversal_leaves_a_wall_whose_multiplier_points_inward():
    # On the wall tau_1 = 0.95 above the optimum, grad F - lam grad G points
    # into the box along tau_1, so the wall releases and the traversal goes
    # on to the interior optimum.
    box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.95, 2.0]))
    tau0 = np.array([0.95, np.sqrt(0.0975) / 2.0])
    frame = build_projection(tau0, box, ELLIPSE.grad(tau0), OneNorm().grad(tau0))
    normal = ELLIPSE.grad(tau0) / np.linalg.norm(ELLIPSE.grad(tau0))
    np.testing.assert_array_equal(frame.projector, np.eye(2) - np.outer(normal, normal))
    for solve in (gradient_ascent, conjugate_gradient):
        result = solve(tau0, box, ELLIPSE, 1.0, OneNorm())
        np.testing.assert_allclose(result.tau, ELLIPSE_OPT, atol=1e-6)
        assert result.f_opt == pytest.approx(ELLIPSE_F, rel=1e-10), solve.__name__


def test_traversal_starts_off_manifold():
    result = gradient_ascent(np.array([0.2, 0.2]), BOX, ELLIPSE, 1.0, OneNorm())
    np.testing.assert_allclose(result.tau, ELLIPSE_OPT, atol=1e-4)


def test_traversal_immediate_convergence_at_optimum():
    result = gradient_ascent(ELLIPSE_OPT.copy(), BOX, ELLIPSE, 1.0, OneNorm())
    assert result.iterations == 0 and result.stop == "stationary"
    np.testing.assert_allclose(result.tau, ELLIPSE_OPT, atol=1e-6)


@pytest.mark.parametrize("solve", [gradient_ascent, conjugate_gradient], ids=["ga", "cg"])
def test_traversal_stalls_at_a_kink(solve):
    # The projected gradient of the first ellipse does not vanish at the kink,
    # but every step from it lowers F: only the line-search stall ends the run.
    tau0 = initial_guess(BOX, OneNorm(), KINKED, 1.0)
    np.testing.assert_allclose(tau0, [1.0 / np.sqrt(5.0)] * 2, rtol=1e-12)
    result = solve(tau0, BOX, KINKED, 1.0, OneNorm())
    assert result.stop == "stalled" and result.iterations == 0
    np.testing.assert_array_equal(result.tau, tau0)


def test_cg_matches_ga_iterates_in_two_dims():
    # With a one-dimensional tangent space the conjugate direction is collinear
    # with the projected gradient, so both methods take identical steps.
    tau0 = initial_guess(BOX, OneNorm(), ELLIPSE, 1.0, 1e-10)
    ga = gradient_ascent(tau0, BOX, ELLIPSE, 1.0, OneNorm())
    cg = conjugate_gradient(tau0, BOX, ELLIPSE, 1.0, OneNorm())
    n = min(len(ga.trace.iterates), len(cg.trace.iterates))
    for a, b in zip(ga.trace.iterates[:n], cg.trace.iterates[:n]):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_trace_csv_format(tmp_path):
    tau0 = initial_guess(BOX, OneNorm(), ELLIPSE, 1.0, 1e-10)
    result = conjugate_gradient(tau0, BOX, ELLIPSE, 1.0, OneNorm())
    path = tmp_path / "trace.csv"
    write_trace(path, result.trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "tau_1", "tau_2", "F", "G_residual", "event"]
    assert len(rows) == len(result.trace.iterates) + 1
    # Values round-trip bit-exactly through repr.
    assert float(rows[1][1]) == result.trace.iterates[0][0]


def _quadratic(d=6):
    # Acceptance criterion 9's anisotropic quadratic G = sum_i a_i tau_i^2 (at
    # d = 6) and its one-norm optimum.
    a = np.random.default_rng(0).uniform(0.5, 5.0, d)
    gfun = AnalyticWorstCase(lambda t: float(a @ (t * t)), lambda t: 2.0 * a * t)
    bbox = BoundingBox(tau_min=np.zeros(d), tau_max=np.full(d, 2.0))
    return gfun, bbox, (1.0 / a) / np.sqrt(np.sum(1.0 / a))


@pytest.mark.parametrize("d", [6, 10])
@pytest.mark.parametrize("solve", [gradient_ascent, conjugate_gradient], ids=["ga", "cg"])
def test_traversal_reaches_quadratic_optimum_with_exact_g(solve, d):
    gfun, bbox, opt = _quadratic(d)
    result = solve(initial_guess(bbox, OneNorm(), gfun, 1.0), bbox, gfun, 1.0, OneNorm())
    assert np.max(np.abs(result.tau - opt)) <= 2e-4
    assert result.stop == "stationary"


@pytest.mark.parametrize("measure_of", [
    lambda c: MuNorm(weights=np.full(6, c)),
    lambda c: ReciprocalPowerCost(a=np.zeros(6), b=np.full(6, c), k=np.ones(6)),
], ids=["mu-norm", "cost"])
@pytest.mark.parametrize("solve", [gradient_ascent, conjugate_gradient], ids=["ga", "cg"])
def test_traversal_ignores_the_scale_of_the_measure(solve, measure_of):
    # Scaling the weights or the cost coefficients scales F and nothing else,
    # so the allocation must not move.
    gfun, bbox, _ = _quadratic()
    taus = []
    for c in (1.0, 1e-3, 1e3):
        measure = measure_of(c)
        taus.append(solve(initial_guess(bbox, measure, gfun, 1.0), bbox, gfun, 1.0,
                          measure).tau)
    for tau in taus[1:]:
        np.testing.assert_allclose(tau, taus[0], rtol=0.0, atol=1e-9)


def test_traversal_reports_exhausted_iterations(monkeypatch):
    monkeypatch.setattr(manifold, "MAX_ITERS", 2)
    gfun, bbox, _ = _quadratic()
    result = gradient_ascent(initial_guess(bbox, OneNorm(), gfun, 1.0), bbox, gfun, 1.0,
                             OneNorm())
    assert result.stop == "max_iters" and result.iterations == 2


def test_traversal_g_request_budget():
    # Acceptance criterion 9's anisotropic 6-d quadratic, with every G value
    # and gradient counted.  A value-only Brent line search over value-only
    # Brent retractions made 1402 requests for CG (1395 values, 7 gradients)
    # and 3584 for GA (3568 values, 16 gradients).
    a = np.random.default_rng(0).uniform(0.5, 5.0, 6)
    calls = []
    gfun = AnalyticWorstCase(
        lambda t: calls.append("value") or float(a @ (t * t)),
        lambda t: calls.append("grad") or 2.0 * a * t,
    )
    bbox = BoundingBox(tau_min=np.zeros(6), tau_max=np.full(6, 2.0))
    tau0 = initial_guess(bbox, OneNorm(), gfun, 1.0, 1e-10)
    opt = (1.0 / a) / np.sqrt(np.sum(1.0 / a))
    for solve, before in ((conjugate_gradient, 1402), (gradient_ascent, 3584)):
        calls.clear()
        result = solve(tau0, bbox, gfun, 1.0, OneNorm())
        assert np.max(np.abs(result.tau - opt)) <= 1e-3
        assert len(calls) <= before // 2
