import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from tolalloc.brent import brentq, minimize_bounded


def counted(f):
    """``f`` with a log of the arguments it was called with."""
    calls = []

    def wrapper(x):
        calls.append(x)
        return f(x)

    return wrapper, calls


def step(x):
    """Piecewise flat, with a sign change at 0.3 across a flat negative shelf."""
    if x < 0.3:
        return -1.0
    return 0.0 if x < 0.31 else 1.0


ROOT_CASES = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "quadratic": (lambda x: x * x - 2.0, 0.0, 2.0),
    "quartic": (lambda x: x**4 - 0.5, 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 3.0, -1.0, 4.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "piecewise-flat": (step, 0.0, 1.0),
    "clipped-ramp": (lambda x: max(min(10.0 * (x - 0.5), 1.0), -1.0), 0.0, 1.0),
    "steep-atan": (lambda x: math.atan(1e6 * (x - 0.123456)), -1.0, 1.0),
    "numpy-scalar": (lambda x: np.float64(x) ** 2 - 0.5, 0.0, 1.0),
    "root-at-bracket-end": (lambda x: x - 2.0, 0.0, 2.0),
    "f(a)=0": (lambda x: x, 0.0, 3.0),
    # The line search's slope is -inf where a retraction fails.
    "minus-inf-beyond": (lambda x: -math.inf if x > 0.7 else 0.5 - x, 0.0, 1.0),
    "minus-inf-shelf": (lambda x: -math.inf if x > 0.3 else 1.0, 0.0, 1.0),
}
ROOT_TOLERANCES = [{}, {"xtol": 1e-15, "rtol": 8.9e-16}, {"xtol": 1e-3}]


@pytest.mark.parametrize("tol", ROOT_TOLERANCES, ids=["default", "tight", "loose"])
@pytest.mark.parametrize("name", list(ROOT_CASES))
def test_brentq_matches_scipy_bit_for_bit(name, tol):
    f, a, b = ROOT_CASES[name]
    ours, our_calls = counted(f)
    theirs, their_calls = counted(f)
    x = brentq(ours, a, b, **tol)
    expected = scipy_brentq(theirs, a, b, **tol)
    assert np.float64(x).tobytes() == np.float64(expected).tobytes()
    assert our_calls == their_calls


MIN_CASES = {
    "parabola": (lambda x: (x - 0.3) ** 2, 0.0, 1.0),
    "quartic": (lambda x: x**4 - 3.0 * x**3 + 2.0, 0.0, 5.0),
    "exp-cos": (lambda x: -math.exp(-x * x) * math.cos(3.0 * x), -2.0, 2.0),
    "kink": (lambda x: abs(x - 0.7), 0.0, 1.0),
    "piecewise-flat": (lambda x: 0.0 if x < 0.5 else 1.0, 0.0, 1.0),
    "min-at-upper-end": (lambda x: -x, 0.0, 1.0),
    "min-at-lower-end": (lambda x: x, 0.0, 1.0),
    "multimodal": (lambda x: math.sin(5.0 * x), 0.0, 3.0),
    "constant": (lambda x: 1.0, 0.0, 2.0),
    "penalty-cliff": (lambda x: -1e300 if x > 0.9 else 0.0, 0.0, 1.0),
}
MIN_OPTIONS = [{}, {"xatol": 1e-10, "maxiter": 200}, {"xatol": 1e-12, "maxiter": 5}]


@pytest.mark.parametrize("options", MIN_OPTIONS, ids=["default", "line-search", "maxiter"])
@pytest.mark.parametrize("name", list(MIN_CASES))
def test_minimize_bounded_matches_scipy_bit_for_bit(name, options):
    f, lower, upper = MIN_CASES[name]
    ours, our_calls = counted(f)
    theirs, their_calls = counted(f)
    x = minimize_bounded(ours, lower, upper, **options)
    expected = minimize_scalar(theirs, bounds=(lower, upper), method="bounded",
                               options=options).x
    assert np.float64(x).tobytes() == np.float64(expected).tobytes()
    assert [float(v) for v in our_calls] == [float(v) for v in their_calls]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value)


BRENTQ_ERRORS = {
    "rtol-below-floor": (lambda x: x - 0.5, 0.0, 1.0, {"rtol": 1e-16}, ValueError),
    "same-sign-bracket": (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),
    "nan-value": (lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0, {}, ValueError),
    "maxiter-exhausted": (lambda x: (x - 1e-3) ** 5, -1.0, 1.0, {}, RuntimeError),
}


@pytest.mark.parametrize("name", list(BRENTQ_ERRORS))
def test_brentq_errors_match_scipy(name):
    f, a, b, options, error = BRENTQ_ERRORS[name]
    assert _raised(lambda: scipy_brentq(f, a, b, **options)) is error
    assert _raised(lambda: brentq(f, a, b, **options)) is error


@pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
def test_minimize_bounded_rejects_bad_bounds_like_scipy(bounds):
    expected = _raised(lambda: minimize_scalar(lambda x: x, bounds=bounds, method="bounded"))
    assert _raised(lambda: minimize_bounded(lambda x: x, *bounds)) is expected
