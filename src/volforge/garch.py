"""GARCH(1,1) and GJR-GARCH(1,1) by constrained Gaussian maximum likelihood.

The mean is the sample mean of the training returns, fixed before the
variance MLE (two-step).  Covariance stationarity is enforced through a
smooth reparameterization: total persistence is a squashed share below 1,
split between the ARCH, asymmetry and GARCH terms by a softmax, so the
simplex optimizer runs unconstrained.

Returns are per bucket, so the conditional standard deviation is compared
with rv directly (M = 1 returns per bucket).

Every likelihood reads its fit-invariant state from one ``Innovations``
holder: the squared mean-adjusted returns, and the squared lagged
innovations and their signs as Python lists.  A fit builds the holder once,
before the simplex starts, and each evaluation (handed a list of floats by
the simplex) passes it to ``variance_path``, so it runs only the
parameter-dependent loop, and shares the Gaussian log-likelihood expression
with ``garch_loglik``; the model's ``loglik`` is the simplex optimum's
objective, so the recursion does not run again after the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FitError
from .simplex import minimize_simplex

_LOG_2PI = math.log(2.0 * math.pi)
_MAX_PERSISTENCE = 0.9995


@dataclass(frozen=True)
class GarchModel:
    omega: float
    alpha: float
    beta: float
    gamma: float
    mu: float
    loglik: float
    flavor: str = "garch"     # "garch" or "gjr"

    def __post_init__(self):
        if self.omega <= 0 or self.alpha < 0 or self.beta < 0:
            raise DataError("require omega > 0, alpha >= 0, beta >= 0")
        if self.flavor not in ("garch", "gjr"):
            raise DataError(f"unknown flavor {self.flavor!r}")
        if self.persistence >= 1:
            raise DataError(f"persistence {self.persistence} violates stationarity")

    @property
    def persistence(self) -> float:
        return self.alpha + self.beta + 0.5 * self.gamma

    def dump(self) -> str:
        return (f"model={self.flavor}\nomega={self.omega!r}\nalpha={self.alpha!r}\n"
                f"beta={self.beta!r}\ngamma={self.gamma!r}\nmu={self.mu!r}\n"
                f"loglik={self.loglik!r}\n")


class Innovations:
    """The fit-invariant state of a GARCH likelihood for one (returns, mu),
    with eps = returns - mu: the returns (for the default seed variance),
    ``sq`` = eps^2 as an array (the likelihood's squared innovations), and
    ``e2`` = eps[t-1]^2 and ``neg`` = eps[t-1] < 0 for t >= 1 as Python float
    and bool lists (the recursion's inputs).  ``len()`` is the number of
    returns."""

    __slots__ = ("returns", "sq", "e2", "neg")

    def __init__(self, returns, mu):
        self.returns = np.asarray(returns, dtype=float)
        eps = self.returns - mu
        self.sq = eps * eps
        self.e2 = self.sq[:-1].tolist()
        self.neg = (eps[:-1] < 0).tolist()

    def __len__(self):
        return len(self.returns)


def variance_path(inn, omega, alpha, beta, gamma, sigma2_0=None) -> np.ndarray:
    """Conditional-variance recursion over the ``Innovations`` holder ``inn``;
    sigma2[0] defaults to the sample variance of its returns.

    sigma2[t] = (omega + shock * eps[t-1]^2) + beta * sigma2[t-1], with
    shock = alpha + gamma after a negative eps and alpha otherwise, run as
    one loop over Python floats.  A fit builds the holder once and passes it
    to every evaluation.

    A non-positive variance raises ``FitError``.  The scan for one runs only
    when omega > 0, alpha >= 0, alpha + gamma >= 0 and beta >= 0 do not all
    hold: when they do, every term is positive, inf or NaN.
    """
    s = float(np.var(inn.returns)) if sigma2_0 is None else float(sigma2_0)
    if s <= 0:
        raise DataError("zero-variance returns; GARCH undefined")
    shock_neg = alpha + gamma
    sigma2 = [s]
    append = sigma2.append
    for e2, neg in zip(inn.e2, inn.neg):
        s = (omega + (shock_neg if neg else alpha) * e2) + beta * s
        append(s)
    sigma2 = np.array(sigma2)
    if not (omega > 0 and alpha >= 0 and shock_neg >= 0 and beta >= 0) \
            and (sigma2 <= 0).any():
        raise FitError("non-positive conditional variance in recursion")
    return sigma2


def garch_loglik(params, returns, sigma2_0=None) -> float:
    """Gaussian log-likelihood of (omega, alpha, beta, gamma, mu) on returns;
    ``sigma2_0`` seeds the variance path (default: the sample variance)."""
    omega, alpha, beta, gamma, mu = params
    inn = Innovations(returns, mu)
    if len(inn) < 10:
        raise DataError("need at least 10 returns for the likelihood")
    return _gaussian_loglik(variance_path(inn, omega, alpha, beta, gamma, sigma2_0), inn.sq)


def _gaussian_loglik(sigma2, e2) -> float:
    """Gaussian log-likelihood of squared innovations e2 under variances sigma2."""
    return float(-0.5 * np.add.reduce(_LOG_2PI + np.log(sigma2) + e2 / sigma2))


def _sigmoid(v):
    # stable on both tails; plain 1/(1+exp(-v)) overflows below about -709
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def _softmax3(a, b):
    m = max(a, b, 0.0)
    ea, eb, ec = math.exp(a - m), math.exp(b - m), math.exp(-m)
    s = ea + eb + ec
    return ea / s, eb / s


def _unpack(x, include_gamma):
    # x = [log omega, persistence logit, share logits...]
    omega = math.exp(x[0])
    s = _MAX_PERSISTENCE * _sigmoid(x[1])
    if include_gamma:
        wa, wg = _softmax3(x[2], x[3])
        alpha = s * wa
        gamma = 2.0 * s * wg
        # 1 - wa - wg can round below zero when alpha and gamma take all the weight
        beta = s * (1.0 - wa - wg)
        if beta < 0.0:
            beta = 0.0
    else:
        wa = _sigmoid(x[2])
        alpha = s * wa
        gamma = 0.0
        beta = s * (1.0 - wa)
    return omega, alpha, beta, gamma


def garch_fit(returns, flavor: str = "garch") -> GarchModel:
    """Two-step MLE: mu = sample mean, then simplex over transformed params."""
    r = np.asarray(returns, dtype=float)
    if flavor not in ("garch", "gjr"):
        raise DataError(f"unknown flavor {flavor!r}")
    if len(r) < 30:
        raise DataError(f"need at least 30 returns to fit, got {len(r)}")
    var = float(np.var(r))
    if var <= 0:
        raise FitError("degenerate data: zero return variance")
    mu = float(np.mean(r))
    include_gamma = flavor == "gjr"
    inn = Innovations(r, mu)

    def neg_ll(x):
        omega, alpha, beta, gamma = _unpack(x, include_gamma)
        try:
            # the module global, so a wrapped variance_path sees every call
            return -_gaussian_loglik(variance_path(inn, omega, alpha, beta, gamma, var), inn.sq)
        except (FitError, OverflowError):
            return 1e12

    # start at alpha=0.05, beta=0.85 persistence and omega matching the
    # unconditional variance
    s0 = 0.90
    x0 = [math.log(var * (1 - s0)),
          math.log(s0 / _MAX_PERSISTENCE / (1 - s0 / _MAX_PERSISTENCE)),
          math.log((0.05 / s0) / (1 - 0.05 / s0))]
    if include_gamma:
        x0 = x0[:2] + [math.log(0.05 / 0.85), math.log(0.025 / 0.85)]
    x_best, f_best, _ = minimize_simplex(neg_ll, x0)
    # one polish restart from the incumbent guards against premature collapse
    x_best, f_best, _ = minimize_simplex(neg_ll, x_best)
    if f_best >= 1e12:
        raise FitError("GARCH fit failed to reach a finite likelihood",
                       diagnostics={"x": list(x_best), "neg_ll": f_best})
    omega, alpha, beta, gamma = _unpack(x_best, include_gamma)
    return GarchModel(omega, alpha, beta, gamma, mu, -f_best, flavor)


def garch_forecast_path(model: GarchModel, returns, start: int, stop: int) -> np.ndarray:
    """Rolling 1-step rv forecasts sqrt(sigma2[t]) for t in [start, stop).

    sigma2[t] uses returns[:t] only: the variance recursion runs over
    returns[:stop] and is seeded with the variance of returns[:start].
    """
    if start < 2:
        raise DataError(f"GARCH path needs start >= 2 to seed its variance, got {start}")
    r = np.asarray(returns, dtype=float)[:stop]
    sigma2 = variance_path(Innovations(r, model.mu), model.omega, model.alpha, model.beta,
                           model.gamma, sigma2_0=float(np.var(r[:start])))
    return np.sqrt(sigma2[start:stop])
