"""Fit the classical forecasters (naive, EWMA, HAR, ARIMA, GARCH) on a
synthetic volatility series and compare their one-step test errors.

Run: python3 demos/02_classical_models.py
"""

import numpy as np

from volforge import (ewma_fit, ewma_forecasts, har_fit, har_forecast,
                      naive_forecast, arima_fit, arima_forecast,
                      arima_order_select, garch_fit)
from volforge.classical import rolling_forecasts
from volforge.garch import garch_forecast_path, with_bucket_scale
from volforge.synth import simulate_log_vol_cascade

rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                              length=1000, seed=3).rv
n_test = 100
train, test = rv[:-n_test], rv[-n_test:]
start, stop = len(train), len(rv)

forecasts = {}

forecasts["naive"] = rolling_forecasts(naive_forecast, rv, start, stop)

ewma = ewma_fit(train[:-100], train[-100:], "MSE",
                np.round(np.arange(0.01, 1.0, 0.01), 2))
print(f"ewma: alpha = {ewma.alpha:.2f}")
forecasts["ewma"] = ewma_forecasts(rv, ewma.alpha,
                                   float(np.mean(train ** 2)))[start:stop]

har = har_fit(train)
print(f"har:  c = {har.c:+.3f}, betas = ({har.beta_d:.3f}, "
      f"{har.beta_w:.3f}, {har.beta_m:.3f})")
forecasts["har"] = rolling_forecasts(lambda h: har_forecast(har, h),
                                     rv, start, stop)

order = arima_order_select(train, [(p, 0, q) for p in range(3) for q in range(3)])
arima = arima_fit(train, order)
print(f"arima: selected order {order} by AIC")
forecasts["arima"] = rolling_forecasts(lambda h: arima_forecast(arima, h),
                                       rv, start, stop)

# GARCH runs on per-bucket returns; build a seeded return proxy from rv.
# r[k] is the return of bucket k+1, so the forecast for rv[t] is the
# variance path at return index t-1, built from returns up to r[t-2].
rng = np.random.default_rng(99)
r = rv[1:] * rng.standard_normal(len(rv) - 1)
g = with_bucket_scale(garch_fit(r[:start - 1]), 1)
print(f"garch: omega = {g.omega:.2e}, alpha = {g.alpha:.3f}, beta = {g.beta:.3f}")
forecasts["garch"] = garch_forecast_path(g, r, start - 1, stop - 1)

print(f"\n{'model':>6} {'test MAE':>10} {'test RMSE':>10}")
for name, fc in forecasts.items():
    err = test - fc
    print(f"{name:>6} {np.mean(np.abs(err)):>10.5f} "
          f"{np.sqrt(np.mean(err ** 2)):>10.5f}")
