import csv

import numpy as np
import pytest

from tolalloc.boxmax import AnalyticWorstCase
from tolalloc.domain import BoundingBox
from tolalloc.manifold import (
    DegenerateNormalError,
    InitializationError,
    RetractionError,
    TraversalConfig,
    build_projection,
    conjugate_gradient,
    gradient_ascent,
    initial_guess,
    line_search,
    retract,
    vector_transport,
)
from tolalloc.measures import MinusOneNorm, MuNorm, OneNorm

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

BOX = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([2.0, 2.0]))
CONFIG = TraversalConfig()


def test_traversal_config_validation():
    with pytest.raises(ValueError):
        TraversalConfig(max_iters=0)
    with pytest.raises(ValueError):
        TraversalConfig(retraction_tol=0.0)


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


def test_build_projection_degenerate_normal():
    with pytest.raises(DegenerateNormalError):
        build_projection(np.array([0.5, 0.5]), BOX, np.zeros(2), np.ones(2))


def test_vector_transport_projects():
    tau = np.array([0.6, 0.4])
    frame = build_projection(tau, BOX, ELLIPSE.grad(tau), np.ones(2))
    moved = vector_transport(frame, np.array([1.0, 0.0]))
    assert abs(moved @ frame.normal) < 1e-12


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


# ---------------------------------------------------------------------------
# Line search
# ---------------------------------------------------------------------------

def test_line_search_improves_measure_along_tangent():
    tau = np.array([1.0 / np.sqrt(5.0)] * 2)
    grad_g = ELLIPSE.grad(tau)
    frame = build_projection(tau, BOX, grad_g, np.ones(2))
    v = frame.projector @ np.ones(2)
    alpha, tau_plus, f_plus, stalled = line_search(
        tau, v, BOX, OneNorm(), ELLIPSE, 1.0, CONFIG
    )
    assert not stalled and alpha > 0.0
    assert f_plus > OneNorm().value(tau)
    assert ELLIPSE.value(tau_plus) == pytest.approx(1.0, abs=1e-9)


def test_line_search_zero_direction_stalls():
    tau = np.array([0.6, 0.4])
    alpha, tau_plus, f_plus, stalled = line_search(
        tau, np.zeros(2), BOX, OneNorm(), ELLIPSE, 1.0, CONFIG
    )
    assert stalled and alpha == 0.0
    np.testing.assert_array_equal(tau_plus, tau)


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
    assert not result.stalled
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


def test_traversal_stops_on_binding_wall():
    box = BoundingBox(tau_min=np.zeros(2), tau_max=np.array([0.7, 2.0]))
    tau0 = initial_guess(box, OneNorm(), ELLIPSE, 1.0, 1e-10)
    result = gradient_ascent(tau0, box, ELLIPSE, 1.0, OneNorm())
    expected = np.array([0.7, np.sqrt((1.0 - 0.49) / 4.0)])
    np.testing.assert_allclose(result.tau, expected, atol=1e-6)
    assert any(axis == 0 for _, axis in result.trace.wall_events)


def test_traversal_starts_off_manifold():
    result = gradient_ascent(np.array([0.2, 0.2]), BOX, ELLIPSE, 1.0, OneNorm())
    np.testing.assert_allclose(result.tau, ELLIPSE_OPT, atol=1e-4)


def test_traversal_immediate_convergence_at_optimum():
    result = gradient_ascent(ELLIPSE_OPT.copy(), BOX, ELLIPSE, 1.0, OneNorm())
    assert result.iterations <= 1
    np.testing.assert_allclose(result.tau, ELLIPSE_OPT, atol=1e-6)


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
    result.trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "tau_1", "tau_2", "F", "G_residual", "event"]
    assert len(rows) == len(result.trace.iterates) + 1
    # Values round-trip bit-exactly through repr.
    assert float(rows[1][1]) == result.trace.iterates[0][0]
