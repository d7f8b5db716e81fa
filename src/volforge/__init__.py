"""volforge: realized-volatility forecasting toolkit.

Classical (naive, EWMA, HAR, ARIMA), GARCH-family and from-scratch
recurrent-network forecasters behind one fit/forecast contract, with an
oracle-tested evaluation protocol (accuracy metrics, Diebold-Mariano test,
parametric VaR) and seeded synthetic-data generators.
"""

__version__ = "0.1.0"  # before the imports: runner reads it at import time

from .errors import ConfigError, DataError, FitError, VolforgeError
from .series import (MinMaxScaler, PriceSeries, ReturnSeries, RVSeries, SplitSpec,
                     aggregate_log_rv, apply_zero_floor, log_returns,
                     read_price_csv, realized_volatility, split, write_rv_csv)
from .classical import (ArimaModel, EwmaModel, HarModel, arima_fit, arima_forecast,
                        arima_order_select, arima_path, ewma_fit, ewma_forecasts,
                        ewma_path, har_fit, har_forecast, har_lag_search, har_path,
                        naive_path)
from .garch import GarchModel, garch_fit, garch_forecast_path, garch_loglik
from .evaluation import (DmResult, EvalReport, ForecastRecord, build_report,
                         dm_test, point_metrics, var_estimate)
from .synth import GarchSimSpec, GbmSpec, rv_consistency_probe, simulate_garch, simulate_gbm
from .runner import ExperimentConfig, RunManifest, parse_config, run_experiment
