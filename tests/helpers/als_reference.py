"""Reference ALS fit that recomputes the whole factor table before every
per-dimension solve.

This is the straightforward form of the sweep that ``tolalloc.surrogate.als_fit``
replaces with an incrementally updated factor table.  It performs the same
floating-point operations in the same order, so the tests require the two to
agree bit for bit.  Like ``als_fit``, it starts from the additive part
c + sum_i f_i(x_i) when ``target_rank >= d`` and from one seeded random term
otherwise.
"""

import numpy as np

from tolalloc import surrogate
from tolalloc.surrogate import FitError, _normalize, legendre_table


def reference_als_fit(samples, config, intervals):
    """Return ``(scales, coeffs, residual_history)`` of the recompute-all fit."""
    d = samples.dim
    n = len(samples)
    p1 = config.degree + 1
    q = samples.values
    q_norm = float(np.linalg.norm(q))
    if q_norm == 0.0:
        q_norm = 1.0
    lam = surrogate.REGULARIZATION * float(np.mean(q * q))

    x = np.empty_like(samples.points)
    for i, iv in enumerate(intervals):
        x[:, i] = np.clip(2.0 * (samples.points[:, i] - iv.lo) / iv.width - 1.0, -1.0, 1.0)
    basis = legendre_table(x, config.degree)  # (n, d, p+1)

    rng = np.random.default_rng(config.seed)
    history = []
    residual = np.inf
    if config.target_rank >= d:
        # One solve over the columns 1, L_1(x_i)..L_p(x_i) of every dimension i.
        design = np.column_stack([np.ones(n)] + [basis[:, i, 1:] for i in range(d)])
        gram = design.T @ design
        gram[np.diag_indices_from(gram)] += lam
        try:
            theta = np.linalg.solve(gram, design.T @ q)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular additive system") from exc
        rank = d
        scales = np.ones(d)
        coeffs = np.zeros((d, d, p1))
        for term in range(d):
            for i in range(d):
                if i == term:
                    coeffs[term, i, 1:] = theta[1 + i * (p1 - 1):1 + (i + 1) * (p1 - 1)]
                else:
                    coeffs[term, i, 0] = 1.0
        coeffs[0, 0, 0] = theta[0]
        _normalize(scales, coeffs)
        factors = np.einsum("lij,nij->lni", coeffs, basis)
        pred = scales @ factors.prod(axis=2)
        residual = float(np.linalg.norm(q - pred) / q_norm)
        history.append(residual)
    else:
        rank = 1
        scales = np.ones(1)
        coeffs = rng.uniform(-1.0, 1.0, size=(1, d, p1))

    while residual > config.rel_residual_tol:
        prev_residual = np.inf
        for _ in range(surrogate.MAX_SWEEPS):
            for i in range(d):
                factors = np.einsum("lij,nij->lni", coeffs, basis)  # (r, n, d)
                mask = np.arange(d) != i
                others = scales[:, None] * factors[:, :, mask].prod(axis=2)
                design = (others.T[:, :, None] * basis[:, None, i, :]).reshape(n, rank * p1)
                gram = design.T @ design
                gram[np.diag_indices_from(gram)] += lam
                try:
                    theta = np.linalg.solve(gram, design.T @ q)
                except np.linalg.LinAlgError as exc:
                    raise FitError(f"singular per-direction system (dimension {i})") from exc
                coeffs[:, i, :] = theta.reshape(rank, p1)
            _normalize(scales, coeffs)
            factors = np.einsum("lij,nij->lni", coeffs, basis)
            pred = scales @ factors.prod(axis=2)
            residual = float(np.linalg.norm(q - pred) / q_norm)
            history.append(residual)
            if residual <= config.rel_residual_tol:
                break
            if abs(prev_residual - residual) <= surrogate.SWEEP_STALL_TOL * max(residual, 1e-300):
                break
            prev_residual = residual
        if residual <= config.rel_residual_tol or rank >= config.target_rank:
            break
        rank += 1
        scales = np.concatenate([scales, [1.0]])
        coeffs = np.concatenate([coeffs, rng.uniform(-1.0, 1.0, size=(1, d, p1))], axis=0)

    return scales, coeffs, history
