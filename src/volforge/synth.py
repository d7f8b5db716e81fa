"""Seeded simulators with known ground truth.

Geometric Brownian motion is stepped through its closed-form log solution
(no discretization bias), so realized-volatility estimates can be compared
against the exact integrated variance of each bucket.  A GARCH return
generator and a log-volatility cascade generator provide parameter-recovery
targets for the model fits.

All randomness comes from numpy's default PCG64 generator; normals are drawn
with its ziggurat method.  Same seed, same spec -> bit-identical output
within this implementation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .classical import HAR_LAGS
from .errors import ConfigError, DataError
from .series import (PriceSeries, ReturnSeries, RVSeries, calendar_buckets, log_returns,
                     realized_volatility)

_EPOCH0 = 1577836800                # 2020-01-01T00:00Z
_CASCADE_EPOCH0 = 1262304000        # 2010-01-01T00:00Z
_DAY = 86400


@dataclass(frozen=True)
class GbmSpec:
    """GBM path broken into equal buckets of M steps.

    ``sigma`` is either a constant (per sqrt-year) or an array of per-bucket
    values, giving a piecewise-constant deterministic volatility function.
    ``dt`` is the step size in years.
    """

    s0: float = 100.0
    mu: float = 0.0
    sigma: Union[float, tuple] = 0.2
    dt: float = 1.0 / (252 * 390)
    steps_per_bucket: int = 390
    buckets: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.s0 <= 0:
            raise DataError("s0 must be positive")
        if self.dt <= 0:
            raise DataError("dt must be positive")
        if self.steps_per_bucket < 1 or self.buckets < 1:
            raise DataError("steps_per_bucket and buckets must be >= 1")
        sig = self.sigma_per_bucket()
        if np.any(sig < 0):
            raise DataError("sigma must be non-negative")

    def sigma_per_bucket(self) -> np.ndarray:
        if np.isscalar(self.sigma):
            return np.full(self.buckets, float(self.sigma))
        sig = np.asarray(self.sigma, dtype=float)
        if len(sig) != self.buckets:
            raise DataError(f"sigma table length {len(sig)} != buckets {self.buckets}")
        return sig


def simulate_gbm(spec: GbmSpec):
    """Exact-solution GBM path and the true integrated variance per bucket.

    Returns (PriceSeries, iv) where iv[b] = sum of sigma^2(t) dt over bucket b.
    Bars are laid out inside consecutive UTC calendar days so that day
    aggregation reproduces the bucket structure.
    """
    rng = np.random.default_rng(spec.seed)
    m, b = spec.steps_per_bucket, spec.buckets
    sig = np.repeat(spec.sigma_per_bucket(), m)
    n = m * b
    z = rng.standard_normal(n)
    dlogp = (spec.mu - 0.5 * sig ** 2) * spec.dt + sig * math.sqrt(spec.dt) * z
    logp = math.log(spec.s0) + np.concatenate(([0.0], np.cumsum(dlogp)))
    if m + 1 > _DAY:
        raise DataError("steps_per_bucket too large to lay out one bucket per day")
    delta = _DAY // (m + 1)
    ts = np.empty(n + 1, dtype=np.int64)
    ts[0] = _EPOCH0
    k = np.arange(n)
    ts[1:] = _EPOCH0 + (k // m + 1) * _DAY + (k % m + 1) * delta
    prices = PriceSeries(ts, np.exp(logp))
    iv = spec.sigma_per_bucket() ** 2 * m * spec.dt
    return prices, iv


@dataclass(frozen=True)
class GarchSimSpec:
    omega: float = 1e-5
    alpha: float = 0.1
    beta: float = 0.85
    gamma: float = 0.0
    length: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.omega <= 0 or self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise DataError("require omega > 0 and alpha, beta, gamma >= 0")
        if self.alpha + self.beta + 0.5 * self.gamma >= 1:
            raise DataError("persistence must be < 1 for a stationary simulation")
        if self.length < 1:
            raise DataError("length must be >= 1")


def simulate_garch(spec: GarchSimSpec) -> ReturnSeries:
    """r_t = sigma_t eps_t with the (GJR-)GARCH variance recursion, after a
    burn-in of 500 steps from the unconditional variance."""
    burn_in = 500
    rng = np.random.default_rng(spec.seed)
    total = spec.length + burn_in
    eps = rng.standard_normal(total)
    persistence = spec.alpha + spec.beta + 0.5 * spec.gamma
    sigma2 = spec.omega / (1.0 - persistence)
    r = np.empty(total)
    for t in range(total):
        r[t] = math.sqrt(sigma2) * eps[t]
        shock = spec.alpha + (spec.gamma if r[t] < 0 else 0.0)
        sigma2 = spec.omega + shock * r[t] ** 2 + spec.beta * sigma2
    r = r[burn_in:]
    ts = _EPOCH0 + _DAY * np.arange(1, len(r) + 1, dtype=np.int64)
    return ReturnSeries(ts, r)


def simulate_log_vol_cascade(c, beta_d, beta_w, beta_m, noise_sd=0.0, length=1000, seed=0,
                             burn_in=200, init_sd=0.0) -> RVSeries:
    """RV series whose log follows the three-horizon autoregressive cascade.

    log rv_{t+1} = c + beta_d m_d(t) + beta_w m_w(t) + beta_m m_m(t) + eps,
    where m_n(t) is the mean log rv over the last n periods, (d, w, m) are the
    HAR lags and the initial window sits at rv = 0.01.  With noise_sd = 0 a
    fit on this series must recover the coefficients exactly; set init_sd > 0
    (and burn_in = 0) to seed the initial window with variation so the
    zero-noise design is not collinear.
    """
    if length < 1:
        raise DataError("length must be >= 1")
    d, w, m = HAR_LAGS
    rng = np.random.default_rng(seed)
    total = length + burn_in
    lrv = np.empty(total + m)
    lrv[:m] = math.log(0.01) + init_sd * rng.standard_normal(m)
    eps = rng.standard_normal(total) * noise_sd
    for t in range(m, total + m):
        window = lrv[t - m:t]
        lrv[t] = (c + beta_d * np.mean(window[-d:]) + beta_w * np.mean(window[-w:])
                  + beta_m * np.mean(window) + eps[t - m])
    vals = np.exp(lrv[m + burn_in:])
    labels, _ = calendar_buckets(_CASCADE_EPOCH0 + _DAY * np.arange(length), "day")
    return RVSeries(labels, vals, "day")


# synth.* config keys of each source kind, with their defaults
SOURCE_DEFAULTS = {
    "gbm": {"s0": 100.0, "mu": 0.0, "sigma": 0.2, "dt": 1.0 / (252 * 390),
            "steps_per_bucket": 390, "buckets": 1000},
    "cascade": {"c": -0.4, "beta_d": 0.35, "beta_w": 0.3, "beta_m": 0.25,
                "noise_sd": 0.3, "length": 3000},
}


def coerce_params(kind: str, params: dict) -> dict:
    """The ``synth.*`` values in ``params`` cast to the types of ``kind``'s
    defaults, so that 1500 and 1500.0 give one value.  An unknown kind or
    key, a value that is not a number, a non-integral value for an integer
    key, or a negative seed is a ConfigError."""
    if kind not in SOURCE_DEFAULTS:
        raise ConfigError(f"unknown synth kind {kind!r}")
    defaults = {**SOURCE_DEFAULTS[kind], "seed": 0}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key synth.{unknown[0]} for synth.kind={kind}, "
                          f"expected one of {sorted(defaults)}")
    out = {}
    for key, value in params.items():
        if isinstance(value, numbers.Integral):
            out[key] = type(defaults[key])(value)
            continue
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"bad synth value synth.{key} = {value!r}: "
                              f"not a number") from None
        if isinstance(defaults[key], int):
            if not number.is_integer():
                raise ConfigError(f"synth.{key} must be an integer, got {value!r}")
            number = int(number)
        out[key] = number
    if out.get("seed", 0) < 0:
        raise ConfigError(f"synth.seed must be >= 0, got {out['seed']}")
    return out


def build_source(kind: str, params: dict, seed: int):
    """GBM prices (PriceSeries) or a log-volatility cascade (RVSeries) from
    the ``synth.*`` config values in ``params`` (see ``coerce_params``);
    ``seed`` is the default of their ``seed`` key."""
    p = coerce_params(kind, params)
    p = {**SOURCE_DEFAULTS[kind], "seed": seed, **p}
    if kind == "gbm":
        return simulate_gbm(GbmSpec(**p))[0]
    return simulate_log_vol_cascade(**p)


def rv_consistency_probe(spec: GbmSpec, frequencies) -> list:
    """Mean relative error of RV^2 against true IV for each sampling rate M.

    The bucket length in years is held fixed (dt scales with 1/M) so the rows
    are comparable; rows report mean over buckets of |RV^2 - IV| / IV.
    """
    bucket_years = spec.dt * spec.steps_per_bucket
    rows = []
    for m in frequencies:
        sub = GbmSpec(spec.s0, spec.mu, spec.sigma, bucket_years / m, m,
                      spec.buckets, spec.seed)
        prices, iv = simulate_gbm(sub)
        rv = realized_volatility(log_returns(prices), "day")
        degenerate = bool(np.any(iv == 0))
        if degenerate:
            err = math.nan
        else:
            err = float(np.mean(np.abs(rv.rv ** 2 - iv) / iv))
        rows.append({"m": int(m), "mean_rel_error": err, "degenerate": degenerate})
    return rows
