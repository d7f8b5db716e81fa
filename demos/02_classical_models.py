"""Fit the classical forecasters (naive, EWMA, HAR, ARIMA, GARCH) on a
synthetic volatility series and compare their one-step test errors.

Run: python3 demos/02_classical_models.py
"""

import numpy as np

from volforge import (EwmaModel, arima_order_select, arima_path, ewma_fit,
                      ewma_path, garch_fit, garch_forecast_path, har_fit,
                      har_path, naive_path)
from volforge.synth import simulate_log_vol_cascade

rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                              length=1000, seed=3).rv
n_test = 100
train, test = rv[:-n_test], rv[-n_test:]
start, stop = len(train), len(rv)

# Each *_path(model, values, start, stop) returns the 1-step forecasts for
# indices [start, stop), the one for index t built from rv[:t] only.
forecasts = {}

forecasts["naive"] = naive_path(None, rv, start, stop)

ewma = ewma_fit(train[:-100], train[-100:], "MSE",
                np.round(np.arange(0.01, 1.0, 0.01), 2))
print(f"ewma: alpha = {ewma.alpha:.2f}")
forecasts["ewma"] = ewma_path(EwmaModel(ewma.alpha, float(np.mean(train ** 2))),
                              rv, start, stop)

har = har_fit(train)
print(f"har:  c = {har.c:+.3f}, betas = ({har.beta_d:.3f}, "
      f"{har.beta_w:.3f}, {har.beta_m:.3f})")
forecasts["har"] = har_path(har, rv, start, stop)

arima = arima_order_select(train, [(p, 0, q) for p in range(3) for q in range(3)])
print(f"arima: selected order {arima.order} by AIC")
forecasts["arima"] = arima_path(arima, rv, start, stop)

# GARCH runs on per-bucket returns; build a seeded return proxy from rv.
# r[k] is the return of bucket k+1, so the forecast for rv[t] is the
# variance path at return index t-1, built from returns up to r[t-2].
rng = np.random.default_rng(99)
r = rv[1:] * rng.standard_normal(len(rv) - 1)
g = garch_fit(r[:start - 1])
print(f"garch: omega = {g.omega:.2e}, alpha = {g.alpha:.3f}, beta = {g.beta:.3f}")
forecasts["garch"] = garch_forecast_path(g, r, start - 1, stop - 1)

print(f"\n{'model':>6} {'test MAE':>10} {'test RMSE':>10}")
for name, fc in forecasts.items():
    err = test - fc
    print(f"{name:>6} {np.mean(np.abs(err)):>10.5f} "
          f"{np.sqrt(np.mean(err ** 2)):>10.5f}")
