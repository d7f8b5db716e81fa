"""Shared deterministic derivative-free minimizer.

All maximum-likelihood fits (ARIMA CSS, GARCH) go through this one wrapper so
they inherit the same reproducibility guarantees: a fixed initial simplex
built from the starting point (no randomness), convergence when the simplex
collapses below 1e-8 or after 500 iterations per free parameter.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .errors import FitError


def minimize_simplex(fn, x0, max_iter=None):
    """Nelder-Mead minimization with deterministic initialization.

    Returns (x_best, f_best, n_iter).  Raises FitError with best-so-far
    diagnostics when the objective is non-finite at the optimum.
    """
    x0 = np.asarray(x0, dtype=float)
    step = 0.1   # initial simplex edge, relative to a nonzero coordinate
    k = max(len(x0), 1)
    if max_iter is None:
        max_iter = 500 * k
    simplex = np.tile(x0, (k + 1, 1))
    for i in range(k):
        simplex[i + 1, i] += step if x0[i] == 0 else step * abs(x0[i]) + step * 0.1
    res = minimize(
        fn, x0, method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": 1e-8,
            "fatol": 1e-8,
            "maxiter": max_iter,
            "maxfev": 4 * max_iter,
        },
    )
    if not np.isfinite(res.fun):
        raise FitError(
            "simplex optimizer reached a non-finite objective",
            diagnostics={"x": res.x.tolist(), "fun": float(res.fun), "nit": int(res.nit)})
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nit)
