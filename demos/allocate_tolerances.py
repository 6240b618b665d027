"""Worst-case tolerance allocation end to end, against a closed form.

For the quadratic bowl Q(mu) = mu_1^2 + 4 mu_2^2 with allowable performance
Q_allow = 1, the worst case over a symmetric tolerance box is
G(tau) = tau_1^2 + 4 tau_2^2, and maximizing the 1-norm tau_1 + tau_2 on
G = 1 has the Lagrange solution tau = (2, 1/2) / sqrt(5).

The demo runs the whole numeric pipeline -- domain sizing, sampling,
surrogate fitting, manifold gradient ascent and conjugate gradients -- and
compares the result against that closed form.

Run with:  python3 demos/allocate_tolerances.py
"""

import numpy as np

from tolalloc import FitConfig, als_fit, draw_samples
from tolalloc.boxmax import SurrogateWorstCase
from tolalloc.evaluator import make_builtin
from tolalloc.domain import size_bounding_box
from tolalloc.manifold import conjugate_gradient, gradient_ascent, initial_guess
from tolalloc.measures import OneNorm

Q_ALLOW = 1.0
NOMINAL = np.zeros(2)


def main():
    evaluator = make_builtin("quadratic-bowl", {"a": [1.0, 4.0]})

    # 1. Size the tolerance bounding box by univariate root finding.
    bbox, intervals = size_bounding_box(evaluator, NOMINAL, Q_ALLOW, caps=10.0)
    print(f"bounding box tau_max = {bbox.tau_max.tolist()}  (exact: [1.0, 0.5])")

    # 2. Sample the performance over the sampling intervals and fit a surrogate.
    samples = draw_samples(evaluator, intervals, 300, seed=7)
    model, report = als_fit(samples, FitConfig(target_rank=2, degree=2, seed=7), intervals)
    print(f"surrogate: rank {report.final_rank}, residual "
          f"{report.residual_history[-1]:.2e} after {report.sweeps_used} sweeps")

    # 3. Allocate tolerances on the manifold G(tau) = Q_allow.
    gfun = SurrogateWorstCase(model, NOMINAL)
    measure = OneNorm()
    tau0 = initial_guess(bbox, measure, gfun, Q_ALLOW, 1e-10)
    print(f"initial manifold point: {tau0.tolist()}")

    exact = np.array([2.0, 0.5]) / np.sqrt(5.0)
    print()
    print(f"{'method':>6} {'iters':>5} {'tau_1':>10} {'tau_2':>10} "
          f"{'F':>10} {'|err|_inf':>10}")
    for name, solve in (("GA", gradient_ascent), ("CG", conjugate_gradient)):
        result = solve(tau0, bbox, gfun, Q_ALLOW, measure)
        err = np.max(np.abs(result.tau - exact))
        print(f"{name:>6} {result.iterations:>5} {result.tau[0]:>10.6f} "
              f"{result.tau[1]:>10.6f} {result.f_opt:>10.6f} {err:>10.2e}")
    print(f"{'exact':>6} {'':>5} {exact[0]:>10.6f} {exact[1]:>10.6f} "
          f"{np.sqrt(5.0) / 2.0:>10.6f}")

    print()
    print("Both methods land on the Lagrange optimum; in two dimensions the")
    print("tangent space is a line, so their search directions coincide and")
    print("the iterate sequences are identical.")


if __name__ == "__main__":
    main()
