"""Shared deterministic derivative-free minimizer.

All maximum-likelihood fits (ARIMA CSS, GARCH) go through this one
Nelder-Mead (Nelder & Mead 1965) so they inherit the same reproducibility
guarantees: a fixed initial simplex built from the starting point (no
randomness), convergence when the simplex collapses below 1e-8 in x and in f,
at most 500 iterations per free parameter and 4x as many objective
evaluations.

The simplex is kept as lists of Python floats.  The arithmetic is that of
scipy 1.17.1's non-adaptive ``minimize(method="Nelder-Mead")`` with these
options, operation for operation, so the fits reproduce it bit for bit; but
it lives here, so the fitted bits do not depend on the installed scipy
release.  Vertices are ordered with ``np.argsort`` as scipy orders them.  Its
small-array kernels do not keep tied values in input order, so the order of
tied vertices follows the host's ``np.argsort``.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .errors import FitError

_TOL = 1e-8   # xatol and fatol: largest vertex spread, in x and in f, at convergence


class _CapReached(Exception):
    """The evaluation cap was reached before an objective call."""


def _sorted(sim, fsim):
    order = np.array(fsim).argsort().tolist()   # np.argsort, default kind
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize_simplex(fn, x0, max_iter=None):
    """Nelder-Mead minimization with deterministic initialization.

    fn gets each point as a fresh list of Python floats.  At most max_iter
    iterations (default 500 per parameter) and 4 * max_iter calls of fn.
    Returns (x_best, f_best, n_iter), x_best an ndarray.  Raises FitError with
    best-so-far diagnostics when the objective is non-finite at the optimum.
    """
    x0 = np.asarray(x0, dtype=float).tolist()
    n = len(x0)
    step = 0.1   # initial simplex edge, relative to a nonzero coordinate
    if max_iter is None:
        max_iter = 500 * max(n, 1)
    max_fev = 4 * max_iter
    sim = [x0]
    for i, v in enumerate(x0):
        vertex = list(x0)
        vertex[i] = v + (step if v == 0 else step * abs(v) + step * 0.1)
        sim.append(vertex)

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= max_fev:
            raise _CapReached
        nfev += 1
        return float(fn(list(x)))   # each call gets its own list

    fsim = [math.inf] * (n + 1)
    try:
        for j in range(n + 1):
            fsim[j] = f(sim[j])
    except _CapReached:
        pass
    sim, fsim = _sorted(sim, fsim)
    sim, fsim = _sorted(sim, fsim)   # scipy sorts twice; ties may move again
    nit = 1
    while nfev < max_fev and nit < max_iter:
        try:
            best, worst = sim[0], sim[-1]
            # all(<=) is False on NaN, as np.max(...) <= tol is
            if (all(abs(v - b) <= _TOL for x in sim[1:] for v, b in zip(x, best))
                    and all(abs(fsim[0] - g) <= _TOL for g in fsim[1:])):
                break
            # rows summed in order from row 0 (not from 0.0, and not by sum(),
            # which compensates from Python 3.12), then divided by n
            xbar = [reduce(add, column) / n for column in zip(*sim[:-1])]
            xr = [2.0 * b - w for b, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3.0 * b - 2.0 * w for b, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:
                    xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        # the vertex moves before its call, as in scipy
                        sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            nit += 1
        except _CapReached:   # a capped iteration does not count
            pass
        sim, fsim = _sorted(sim, fsim)

    fun = float(np.min(fsim))   # NaN if any vertex is NaN
    if not math.isfinite(fun):
        raise FitError(
            "simplex optimizer reached a non-finite objective",
            diagnostics={"x": sim[0], "fun": fun, "nit": nit})
    return np.array(sim[0]), fun, nit
