"""Naive, EWMA, HAR and ARIMA forecasters.

Every model follows the same contract: a pure ``*_fit`` over the training
window returning an immutable model value, and a pure
``*_path(model, values, start, stop)`` returning, for each t in
[start, stop), the 1-step-ahead rv forecast from ``values[:t]``, in one pass.
Every selection search (EWMA alpha grid, HAR lag grid, ARIMA order by AIC)
runs through ``argmin_search`` and returns its fitted winner with the
complete candidate/score log, so an exhaustive replay can verify the argmin.

The recursions keep the rounding of the per-step loops they replaced: the
input terms are computed for the whole array at once in the loop's operation
order, and only the feedback term runs as a loop, over Python floats.  The
ARIMA fit builds its objective once: the differenced series' lagged slices
and tail are taken before the simplex starts, so an evaluation makes only the
numpy calls that depend on the coefficients.  ``_css_residual_fn`` is the one
entry to the CSS recursion: the objective, the model's ``loglik`` (the
objective's value at the simplex optimum) and ``arima_path`` all go through it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, FitError
from .evaluation import error_metric
from .series import aggregate_log_rv
from .simplex import minimize_simplex

EWMA_GRID = tuple(np.round(np.arange(0.01, 1.00, 0.01), 2))   # alpha candidates
HAR_LAGS = (1, 5, 22)   # daily, weekly and monthly horizons in trading days
HAR_MIN_ROWS = 8        # regression rows a HAR fit needs


def argmin_search(candidates, evaluate, failure: str):
    """The candidate with the lowest score, and the (candidate, score) log.

    ``evaluate(c)`` returns ``(fitted, score)``; the winner's ``fitted`` is
    returned.  A candidate whose evaluation raises DataError or FitError is
    logged with score inf.  Ties go to the earlier candidate.  Raises
    ``FitError(failure)`` when no candidate reaches a finite score.
    """
    candidates = list(candidates)
    if not candidates:
        raise DataError("no candidates to search")
    log = []
    best, best_score = None, math.inf
    for c in candidates:
        try:
            fitted, score = evaluate(c)
        except (DataError, FitError):
            fitted, score = None, math.inf
        log.append((c, score))
        if score < best_score:
            best, best_score = fitted, score
    if best_score == math.inf:
        raise FitError(failure, diagnostics={"search_log": log})
    return best, tuple(log)


# ---------------------------------------------------------------------------
# Naive
# ---------------------------------------------------------------------------

def naive_path(model, values, start: int, stop: int) -> np.ndarray:
    """Last observed value carried forward: values[t - 1] for t in [start, stop).
    ``model`` is unused."""
    if start < 1:
        raise DataError("naive forecast needs a non-empty history")
    return np.array(values[start - 1:stop - 1], dtype=float)


# ---------------------------------------------------------------------------
# EWMA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EwmaModel:
    alpha: float
    sigma2_0: float
    search_log: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise DataError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.sigma2_0 <= 0:
            raise DataError("sigma2_0 must be positive")

    def dump(self) -> str:
        return f"model=ewma\nalpha={self.alpha!r}\nsigma2_0={self.sigma2_0!r}\n"


def ewma_forecasts(values, alpha: float, sigma2_0: float) -> np.ndarray:
    """1-step rv forecasts over a series driven by its own squared values.

    forecast[t] = sqrt(sigma2[t]), where sigma2[0] = sigma2_0 and
    sigma2[t] = alpha sigma2[t-1] + (1 - alpha) v[t-1] v[t-1] over the values
    v, so it uses data up to t-1 only.  The (1 - alpha) v v terms are computed
    for every v at once; only the alpha feedback runs as a loop.
    """
    if not (0 < alpha <= 1):
        raise DataError(f"alpha must be in (0, 1], got {alpha}")
    if sigma2_0 < 0:
        raise DataError("sigma2_0 must be non-negative")
    values = np.asarray(values, dtype=float)
    s = sigma2_0
    sigma2 = [s]
    for x in ((1.0 - alpha) * values[:-1] * values[:-1]).tolist():
        s = alpha * s + x
        sigma2.append(s)
    return np.sqrt(sigma2[:len(values)])


def ewma_path(model: EwmaModel, values, start: int, stop: int) -> np.ndarray:
    """``ewma_forecasts`` of values[:stop] for the indices [start, stop)."""
    return ewma_forecasts(values[:stop], model.alpha, model.sigma2_0)[start:stop]


def ewma_fit(train, valid, metric: str = "MSE", grid=EWMA_GRID) -> EwmaModel:
    """Grid-search alpha against 1-step forecasts on the validation window.

    Ties break toward the smaller alpha; sigma2_0 is the mean squared
    training rv.
    """
    train = np.asarray(train, dtype=float)
    valid = np.asarray(valid, dtype=float)
    if len(valid) == 0:
        raise DataError("ewma_fit needs a non-empty validation window")
    grid = sorted(float(a) for a in grid)
    for a in grid:
        if not (0 < a <= 1):
            raise DataError(f"grid alpha {a} outside (0, 1]")
    sigma2_0 = float(np.mean(train * train))
    if sigma2_0 <= 0:
        raise DataError("training rv is identically zero; EWMA undefined")
    full = np.concatenate([train, valid])

    def evaluate(a):
        return a, error_metric(metric, valid, ewma_forecasts(full, a, sigma2_0)[len(train):])

    alpha, log = argmin_search(grid, evaluate, "no alpha candidate could be evaluated")
    return EwmaModel(alpha, sigma2_0, search_log=log)


# ---------------------------------------------------------------------------
# HAR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarModel:
    lags: tuple          # (d, w, m), d < w < m
    c: float
    beta_d: float
    beta_w: float
    beta_m: float
    fit_residual_variance: float = 0.0
    search_log: tuple = field(default=(), compare=False)

    def __post_init__(self):
        d, w, m = self.lags
        if not (0 < d < w < m):
            raise DataError(f"lags must satisfy 0 < d < w < m, got {self.lags}")
        for v in (self.c, self.beta_d, self.beta_w, self.beta_m):
            if not math.isfinite(v):
                raise DataError("HAR coefficients must be finite")

    def dump(self) -> str:
        d, w, m = self.lags
        return (f"model=har\nlags={d},{w},{m}\nc={self.c!r}\n"
                f"beta_d={self.beta_d!r}\nbeta_w={self.beta_w!r}\nbeta_m={self.beta_m!r}\n"
                f"residual_variance={self.fit_residual_variance!r}\n")


def _har_rows(lags, n, min_rows=1):
    """Regression rows t = m-1 .. n-2 over n values (row t predicts t + 1);
    DataError unless 0 < d < w < m and there are at least ``min_rows`` of them."""
    d, w, m = lags
    if not (0 < d < w < m):
        raise DataError(f"lags must satisfy 0 < d < w < m, got {lags}")
    if n < m + 2:
        raise DataError(f"need at least {m + 2} observations for lags {lags}, got {n}")
    if n - m - 1 < min_rows:
        raise DataError(f"only {n - m - 1} usable regression rows; need at least {min_rows}")
    return np.arange(m - 1, n - 1)


def _har_regressors(agg, lags, ts):
    """Rows ts of [1, mean-log over d, w, m], where ``agg(k)`` is the
    ``aggregate_log_rv`` of the values over horizon k."""
    return np.column_stack([np.ones(len(ts))] + [agg(k)[ts - (k - 1)] for k in lags])


def har_design(values, lags):
    """Regression rows [1, mean-log over d, w, m] and next-step log targets."""
    values = np.asarray(values, dtype=float)
    ts = _har_rows(lags, len(values))
    X = _har_regressors(lambda k: aggregate_log_rv(values, k), lags, ts)
    return X, np.log(values[ts + 1])


def _har_ols(X, y, lags) -> HarModel:
    A = X.T @ X
    b = X.T @ y
    try:
        beta = np.linalg.solve(A, b)
        # reject ill-conditioned solves, not just exact singularity
        if not np.all(np.isfinite(beta)) or np.linalg.cond(A) > 1e12:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        beta = np.linalg.pinv(X) @ y
    resid = y - X @ beta
    return HarModel(tuple(lags), float(beta[0]), float(beta[1]), float(beta[2]),
                    float(beta[3]), fit_residual_variance=float(np.mean(resid * resid)))


def har_fit(train, lags=HAR_LAGS) -> HarModel:
    """OLS of next-step log rv on averaged log rv over the three horizons.

    Needs at least 8 regression rows.  Solved via the normal equations with a
    pseudo-inverse fallback when the design is rank deficient (e.g. a
    constant series).
    """
    _har_rows(lags, len(train), HAR_MIN_ROWS)
    return _har_ols(*har_design(train, lags), lags)


def _har_predict(model: HarModel, mean_log) -> np.ndarray:
    """exp(c + beta_d mean_log(d) + beta_w mean_log(w) + beta_m mean_log(m))."""
    d, w, m = model.lags
    return np.exp(model.c + model.beta_d * mean_log(d) + model.beta_w * mean_log(w)
                  + model.beta_m * mean_log(m))


def har_path(model: HarModel, values, start: int, stop: int) -> np.ndarray:
    """exp of the log-space regression prediction from values[:t] for each t
    in [start, stop); no smearing correction."""
    m = model.lags[2]
    if start < m:
        raise DataError(f"history of length {start} shorter than longest lag {m}")
    if stop <= start:
        return np.empty(0)
    window = np.asarray(values, dtype=float)[start - m:stop - 1]
    if np.any(window <= 0):
        raise DataError("history contains non-positive rv; apply the zero-floor first")
    logs = np.log(window)

    def mean_log(k):
        # mean of log values[t - k:t] for each t in [start, stop)
        return sliding_window_view(logs[m - k:], k).mean(axis=1)

    return _har_predict(model, mean_log)


def har_forecast(model: HarModel, history) -> float:
    """The forecast for index len(history): one step of ``har_path``."""
    return float(har_path(model, history, len(history), len(history) + 1)[0])


def har_lag_search(train, valid, metric: str, lag_grid) -> HarModel:
    """Refit per (d, w, m) candidate, pick the validation-metric argmin.

    Ties break toward the lexicographically smallest lag triple.  Candidates
    whose fit fails (bad lags, too few rows, non-positive rv) are logged with
    an inf metric.  Each horizon k is computed once per search, not per
    triple: its training ``aggregate_log_rv``, the log targets of each m and
    its validation mean-log.  They are the elementwise logs, cumsum
    differences and sliding means ``har_fit`` and ``har_path`` take over the
    same values, so every model and score keeps its bits.  No log is taken
    before the length and positivity checks that guard it there.
    """
    train = np.asarray(train, dtype=float)
    valid = np.asarray(valid, dtype=float)
    if len(valid) == 0:
        raise DataError("har_lag_search needs a non-empty validation window")
    full = np.concatenate([train, valid])
    n, stop = len(train), len(full)
    agg = functools.cache(lambda k: aggregate_log_rv(train, k))
    target = functools.cache(lambda m: np.log(train[m:]))
    mean_log = functools.cache(
        lambda k: sliding_window_view(np.log(full[n - k:stop - 1]), k).mean(axis=1))
    # a fit has seen every training value positive, so har_path's window
    # check reduces to the validation values it reads
    history_ok = not np.any(valid[:-1] <= 0)

    def evaluate(lags):
        ts = _har_rows(lags, n, HAR_MIN_ROWS)
        model = _har_ols(_har_regressors(agg, lags, ts), target(lags[2]), lags)
        if not history_ok:
            raise DataError("history contains non-positive rv; apply the zero-floor first")
        return model, error_metric(metric, valid, _har_predict(model, mean_log))

    best, log = argmin_search(sorted(tuple(l) for l in lag_grid), evaluate,
                              "no HAR lag candidate could be fitted")
    return replace(best, search_log=log)


def default_har_lag_grid():
    """Coarse grid consistent with published optimized lags up to ~110."""
    grid = []
    for d in (1, 2, 3):
        for w in range(4, 21, 2):
            for m in range(22, 121, 8):
                if d < w < m:
                    grid.append((d, w, m))
    return grid


# ---------------------------------------------------------------------------
# ARIMA (conditional sum of squares)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArimaModel:
    order: tuple          # (p, d, q)
    phi: tuple
    theta: tuple
    intercept: float
    innovation_variance: float
    loglik: float
    search_log: tuple = field(default=(), compare=False)   # (order, AIC) rows

    def dump(self) -> str:
        p, d, q = self.order
        return (f"model=arima\norder={p},{d},{q}\n"
                f"phi={','.join(repr(v) for v in self.phi)}\n"
                f"theta={','.join(repr(v) for v in self.theta)}\n"
                f"intercept={self.intercept!r}\n"
                f"innovation_variance={self.innovation_variance!r}\n"
                f"loglik={self.loglik!r}\n")


def _pacf_coeffs(u) -> list:
    """Map unconstrained reals to a stationary AR coefficient list.

    tanh squashes to partial autocorrelations, then the Durbin-Levinson
    recursion expands them; the image is exactly the stationary region.
    Runs over Python floats, but keeps ``np.tanh``: ``math.tanh`` may differ in the last bit.
    """
    phi = []
    for r in np.tanh(u).tolist():
        phi = [p - r * q for p, q in zip(phi, reversed(phi))] + [r]
    return phi


def _css_residual_fn(z: np.ndarray, p: int, q: int):
    """The CSS residual recursion on z at AR order p and MA order q, as a
    function ``residuals(c, phi, theta)`` of coefficient sequences of those
    lengths (theta a list of floats).

    a_t = z_t - (c + phi_1 z_{t-1} + ... + phi_p z_{t-p}
                 - theta_1 a_{t-1} - ... - theta_q a_{t-q}),
    summed left to right.  Pre-sample residuals are zero; the residuals are
    for t = p .. n-1.  z's lagged slices and its tail
    are taken here, once per fit, so a call does only the work that depends
    on the coefficients.
    """
    n = len(z)
    tail = z[p:]
    tail_list = tail.tolist() if q else None
    lags = [z[p - i:n - i] for i in range(1, p + 1)]

    def residuals(c, phi, theta):
        if p == 0:
            if q == 0:
                return tail - c
            pred = [c] * len(tail_list)
        else:
            pred = c + phi[0] * lags[0]
            for coef, lag in zip(phi[1:], lags[1:]):
                pred += coef * lag
            if q == 0:
                return tail - pred
            pred = pred.tolist()
        return np.array(_ma_feedback(tail_list, pred, theta))

    return residuals


def _ma_feedback(z: list, pred: list, theta: list) -> list:
    """a_k = z_k - (pred_k - theta_1 a_{k-1} - ... - theta_q a_{k-q}) over
    Python floats, with the pre-sample residuals a_{-1} .. a_{-q} zero."""
    q = len(theta)
    a = [0.0] * q
    append = a.append
    if q == 1:
        t1, = theta
        a1 = 0.0
        for zk, pk in zip(z, pred):
            a1 = zk - (pk - t1 * a1)
            append(a1)
    elif q == 2:
        t1, t2 = theta
        a1 = a2 = 0.0
        for zk, pk in zip(z, pred):
            a1, a2 = zk - (pk - t1 * a1 - t2 * a2), a1
            append(a1)
    elif q == 3:
        t1, t2, t3 = theta
        a1 = a2 = a3 = 0.0
        for zk, pk in zip(z, pred):
            a1, a2, a3 = zk - (pk - t1 * a1 - t2 * a2 - t3 * a3), a1, a2
            append(a1)
    else:
        for k, (zk, pk) in enumerate(zip(z, pred), start=q):
            for j in range(q):
                pk -= theta[j] * a[k - 1 - j]
            append(zk - pk)
    return a[q:]


def _gaussian_css(a: np.ndarray):
    """CSS Gaussian log-likelihood and innovation variance of residuals a."""
    n = len(a)
    sigma2 = float(np.add.reduce(a * a)) / n
    if sigma2 <= 0:
        sigma2 = 1e-300
    ll = -0.5 * n * (math.log(2 * math.pi * sigma2) + 1.0)
    return ll, sigma2


def arima_fit(train, order) -> ArimaModel:
    """CSS Gaussian likelihood maximized by the shared simplex optimizer.

    Stationarity and invertibility are enforced through the tanh /
    Durbin-Levinson reparameterization; the intercept is estimated only when
    d = 0 (differenced models carry no drift term).
    """
    p, d, q = order
    if p < 0 or d < 0 or q < 0:
        raise DataError(f"order components must be non-negative, got {order}")
    y = np.asarray(train, dtype=float)
    z = np.diff(y, n=d)
    if len(z) <= 10 * (p + q + 1):
        raise DataError(
            f"need more than {10 * (p + q + 1)} observations after differencing for order {order}, "
            f"got {len(z)}")
    has_c = d == 0
    i_ar = 1 if has_c else 0    # x = [c if has_c, AR pacf logits, MA pacf logits]
    i_ma = i_ar + p
    residuals = _css_residual_fn(z, p, q)
    if i_ma + q == 0:
        ll, sigma2 = _gaussian_css(residuals(0.0, [], []))
        return ArimaModel(tuple(order), (), (), 0.0, sigma2, ll)

    def unpack(x):
        c = float(x[0]) if has_c else 0.0
        phi = _pacf_coeffs(x[i_ar:i_ma]) if p else []
        theta = _pacf_coeffs(x[i_ma:]) if q else []
        return c, phi, theta

    def neg_ll(x):
        return -_gaussian_css(residuals(*unpack(x)))[0]

    x0 = np.zeros(i_ma + q)
    if has_c:
        x0[0] = float(np.mean(z))
    x_best, f_best, _ = minimize_simplex(neg_ll, x0)
    c, phi, theta = unpack(x_best)
    ll, sigma2 = _gaussian_css(residuals(c, phi, theta))
    if not math.isfinite(ll):
        raise FitError("ARIMA CSS fit did not converge",
                       diagnostics={"order": order, "x": x_best.tolist(), "neg_ll": f_best})
    return ArimaModel(tuple(order), tuple(phi), tuple(theta), c, sigma2, ll)


def arima_path(model: ArimaModel, values, start: int, stop: int) -> np.ndarray:
    """1-step mean forecasts from the CSS residuals of values[:stop - 1].

    The residuals of a prefix are a prefix of the residuals, so one pass
    serves every t in [start, stop).
    """
    p, d, q = model.order
    if start < p + d + 1:
        raise DataError(f"history of length {start} too short for order {model.order}")
    y = np.asarray(values, dtype=float)[:stop - 1]
    z = np.diff(y, n=d)
    a = np.zeros(len(z))
    a[p:] = _css_residual_fn(z, p, q)(model.intercept, model.phi, list(model.theta))
    phi = np.asarray(model.phi, dtype=float)
    theta = np.asarray(model.theta, dtype=float)
    n = np.arange(start, stop) - d     # length of each differenced history
    pred = np.full(len(n), model.intercept, dtype=float)
    for i in range(1, p + 1):
        pred = pred + phi[i - 1] * z[n - i]
    for j in range(1, q + 1):
        known = n >= j
        pred[known] = pred[known] - theta[j - 1] * a[n[known] - j]
    # undo the d-fold differencing
    for k in range(1, d + 1):
        pred = pred + (-1) ** (k + 1) * math.comb(d, k) * y[n + d - k]
    return pred


def arima_forecast(model: ArimaModel, history) -> float:
    """The forecast for index len(history): one step of ``arima_path``."""
    return float(arima_path(model, history, len(history), len(history) + 1)[0])


def arima_order_select(train, candidate_orders) -> ArimaModel:
    """The AIC-minimizing fit on ``train``; ties go to fewer parameters, then
    the lexicographically smaller order.  Its ``search_log`` holds one
    (order, AIC) row per candidate, inf for an order that failed to fit."""

    def evaluate(order):
        model = arima_fit(train, order)
        return model, 2 * (order[0] + order[2] + 1) - 2 * model.loglik

    orders = sorted((tuple(o) for o in candidate_orders), key=lambda o: (o[0] + o[2], o))
    best, log = argmin_search(orders, evaluate, "every candidate order failed to fit")
    return replace(best, search_log=log)
