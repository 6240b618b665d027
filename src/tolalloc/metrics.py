"""Surrogate-quality and allocation-quality error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surrogate import SampleSet, SeparatedModel


class MetricError(ValueError):
    """Raised when a relative error is undefined (zero denominator)."""


@dataclass(frozen=True)
class ErrorReport:
    mean_rel: float
    max_rel: float
    n_compared: int


@dataclass(frozen=True)
class AllocationErrorReport:
    tol_err_inf: float
    objective_rel_err: float
    constraint_rel_err: float


def surrogate_errors(model: SeparatedModel, holdout: SampleSet) -> ErrorReport:
    """Mean and max relative surrogate error over a holdout sample set.

    The holdout must be disjoint from the training data (caller-asserted).
    """
    zero = np.flatnonzero(holdout.values == 0.0)
    if zero.size > 0:
        raise MetricError(
            f"relative error undefined: holdout sample {int(zero[0])} has Q = 0"
        )
    predictions = model.eval_many(holdout.points)
    rel = np.abs((holdout.values - predictions) / holdout.values)
    return ErrorReport(
        mean_rel=float(rel.mean()), max_rel=float(rel.max()), n_compared=len(holdout)
    )


def allocation_errors(
    tau, tau_ref, measure, gfun_ref, q_allow: float
) -> AllocationErrorReport:
    """Compare an allocated tolerance against a reference optimum.

    The constraint error is evaluated through the reference performance
    function, so it measures how far the candidate misses the true constraint.
    """
    tau = np.asarray(tau, dtype=float)
    tau_ref = np.asarray(tau_ref, dtype=float)
    if tau.shape != tau_ref.shape:
        raise ValueError("tolerance vectors must have matching shapes")
    f_ref = measure.value(tau_ref)
    if f_ref == 0.0:
        raise MetricError("objective error undefined: F(tau_ref) = 0")
    return AllocationErrorReport(
        tol_err_inf=float(np.max(np.abs(tau_ref - tau))),
        objective_rel_err=abs(f_ref - measure.value(tau)) / abs(f_ref),
        constraint_rel_err=abs(q_allow - gfun_ref.value(tau)) / abs(q_allow),
    )
