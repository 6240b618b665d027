import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from tolalloc.brent import brentq


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
