"""Experiment orchestration: config parsing, model fitting, rolling
out-of-sample forecasts and report emission.

Refit policy: classical models select their hyperparameters on the
validation window with parameters fit on train, are refit once on
train+validation, and then roll through the test window with parameters held
fixed.  RNN weights are trained once on train, selected on validation and
frozen for test.

GARCH-family models fit per-bucket close-to-close log returns and compare
their conditional standard deviation against rv directly (M = 1 convention,
flagged in the manifest).  For synthetic rv-only sources the bucket returns
are generated as rv_t * z_t with seeded standard normal z.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, classical, garch, synth
from .errors import ConfigError, DataError, FitError, VolforgeError
from .evaluation import ForecastRecord, build_report, report_csv, report_text
from .rnn import RnnConfig, rnn_forecast_path, window_search
from .rnn.search import WINDOW_GRID, search_log_csv
from .series import (AGGREGATIONS, RVSeries, SplitSpec, apply_zero_floor, atomic_write,
                     calendar_buckets, log_returns, read_price_csv, read_utf8,
                     realized_volatility, split)


# ---------------------------------------------------------------------------
# Models: fit(config, data) -> (validation model, test model, dump, search log)
# and path(model, data, start, stop) -> 1-step forecasts for [start, stop).
# A path may read values[:t] and returns[:t - 1] for the forecast of index t.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Data:
    """Zero-floored rv values and bucket returns, split at v_start / v_stop.

    returns[k] is the close-to-close log return of bucket k+1.  Train is
    [0, v_start), validation [v_start, v_stop), test [v_stop, len(values)).
    """

    values: np.ndarray
    returns: np.ndarray
    v_start: int
    v_stop: int

    @property
    def train(self):
        return self.values[:self.v_start]

    @property
    def valid(self):
        return self.values[self.v_start:self.v_stop]

    @property
    def trainval(self):
        return self.values[:self.v_stop]

    @property
    def windows(self):
        """(name, start, stop) of the validation and the test window."""
        return (("validation", self.v_start, self.v_stop),
                ("test", self.v_stop, len(self.values)))


def _on_values(path):
    """A runner path from a path(model, values, start, stop) over rv values."""
    return lambda model, data, start, stop: path(model, data.values, start, stop)


def _fit_ewma(config, data):
    model = classical.ewma_fit(data.train, data.valid, config.metric, config.ewma_grid)
    refit = classical.EwmaModel(model.alpha, float(np.mean(data.trainval ** 2)))
    return model, refit, refit.dump(), None


def _fit_har(config, data, search):
    if search:
        grid = config.har_grid or classical.default_har_lag_grid()
        model = classical.har_lag_search(data.train, data.valid, config.metric, grid)
    else:
        model = classical.har_fit(data.train, config.har_lags)
    refit = classical.har_fit(data.trainval, model.lags)
    return model, refit, refit.dump(), None


def _fit_arima(config, data):
    model = classical.arima_order_select(data.train, config.arima_orders)
    refit = classical.arima_fit(data.trainval, model.order)
    return model, refit, refit.dump(), None


def _fit_garch(config, data, flavor):
    model = garch.garch_fit(data.returns[:data.v_start - 1], flavor)
    refit = garch.garch_fit(data.returns[:data.v_stop - 1], flavor)
    return model, refit, refit.dump() + "returns_per_bucket=1\n", None


def _path_garch(model, data, start, stop):
    # returns[t - 2] is the last return known before bucket t
    return garch.garch_forecast_path(model, data.returns, start - 1, stop - 1)


def _rnn_config(config, cell, window):
    return RnnConfig(cell=cell, window=window, layers=config.rnn_layers,
                     units=config.rnn_units, dropout=config.rnn_dropout,
                     activation=config.rnn_activation, loss=config.rnn_loss,
                     epochs=config.rnn_epochs, batch_size=config.rnn_batch,
                     optimizer=config.rnn_optimizer, learning_rate=config.rnn_lr,
                     seed=config.seed)


def _fit_rnn(config, data, cell):
    base = _rnn_config(config, cell, config.rnn_windows[0])
    model = window_search(data.train, data.valid, base, config.rnn_windows, config.metric)
    dump = (f"model={cell}\nwindow={model.config.window}\n"
            f"units={model.config.units}\nlayers={model.config.layers}\n")
    return model, model, dump, model.search_log


def _path_rnn(model, data, start, stop):
    return rnn_forecast_path(model, data.values[:stop], start, stop)


MODELS = {
    "naive": (lambda config, data: (None, None, "model=naive\n", None),
              _on_values(classical.naive_path)),
    "ewma": (_fit_ewma, _on_values(classical.ewma_path)),
    "har": (partial(_fit_har, search=False), _on_values(classical.har_path)),
    "har_opt": (partial(_fit_har, search=True), _on_values(classical.har_path)),
    "arima": (_fit_arima, _on_values(classical.arima_path)),
    "garch": (partial(_fit_garch, flavor="garch"), _path_garch),
    "gjr": (partial(_fit_garch, flavor="gjr"), _path_garch),
    "lstm": (partial(_fit_rnn, cell="lstm"), _path_rnn),
    "gru": (partial(_fit_rnn, cell="gru"), _path_rnn),
}
ALL_MODELS = tuple(MODELS)
RNN_MODELS = tuple(m for m, (_, path) in MODELS.items() if path is _path_rnn)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "synth"                 # synth | csv
    csv_path: str = ""
    aggregation: str = "day"
    synth_kind: str = "gbm"               # gbm | cascade
    synth_params: tuple = ()              # (key, value) pairs, sorted and typed on init
    validation_len: int = 252
    test_len: int = 252
    models: tuple = ("naive", "har")
    metric: str = "MSE"
    seed: int = 0
    reference: str = ""                   # default: last enabled model
    ewma_grid: tuple = classical.EWMA_GRID
    har_lags: tuple = classical.HAR_LAGS
    har_grid: tuple = ()                  # empty -> default grid
    arima_orders: tuple = tuple((p, d, q) for p in range(4) for d in range(2)
                                for q in range(4))
    rnn_windows: tuple = WINDOW_GRID
    rnn_units: int = 10
    rnn_layers: int = 1
    rnn_epochs: int = 50
    rnn_batch: int = 32
    rnn_optimizer: str = "adam"
    rnn_lr: float = 0.01
    rnn_loss: str = "MSE"
    rnn_dropout: float = 0.0
    rnn_activation: str = "linear"

    def __post_init__(self):
        if not self.models:
            raise ConfigError("at least one model must be enabled")
        for m in self.models:
            if m not in ALL_MODELS:
                raise ConfigError(f"unknown model {m!r}, expected one of {ALL_MODELS}")
        if self.source not in ("synth", "csv"):
            raise ConfigError(f"unknown data source {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("data.source=csv requires data.csv=<path>")
        if self.metric not in ("MSE", "MAE"):
            raise ConfigError("selection.metric must be MSE or MAE")
        if self.reference and self.reference not in self.models:
            raise ConfigError(f"reference model {self.reference!r} not enabled")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"data.aggregation must be one of {AGGREGATIONS}, "
                              f"got {self.aggregation!r}")
        if self.validation_len < 1 or self.test_len < 1:
            raise ConfigError("split.validation and split.test must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.synth_params:
            params = synth.coerce_params(self.synth_kind, dict(self.synth_params))
            object.__setattr__(self, "synth_params", tuple(sorted(params.items())))
        lag_triples = [("har.lags", self.har_lags)] if "har" in self.models else []
        if "har_opt" in self.models:
            lag_triples += [("har.grid", lags) for lags in self.har_grid]
        for key, (d, w, m) in lag_triples:
            if not 0 < d < w < m:
                raise ConfigError(f"{key} must satisfy 0 < d < w < m, got {(d, w, m)}")
        if "arima" in self.models:
            for order in self.arima_orders:
                if min(order) < 0:
                    raise ConfigError(f"arima.orders holds {order}, a negative order")
        if "ewma" in self.models:
            if not self.ewma_grid:
                raise ConfigError("ewma.grid holds no alpha")
            for alpha in self.ewma_grid:
                if not 0 < alpha <= 1:
                    raise ConfigError(f"ewma.grid alpha {alpha} outside (0, 1]")
        for cell in (m for m in self.models if m in RNN_MODELS):
            if not self.rnn_windows:
                raise ConfigError("rnn.windows must list at least one window")
            for window in self.rnn_windows:
                _rnn_config(self, cell, window)

    @property
    def reference_model(self) -> str:
        return self.reference or self.models[-1]

    def hash(self) -> str:
        """sha256 of the fields as JSON, numpy scalars as plain Python values,
        so equal configs hash equally on any numpy version."""
        payload = json.dumps(asdict(self), sort_keys=True, default=lambda v: v.item())
        return hashlib.sha256(payload.encode()).hexdigest()


def _parse_scalar(v: str):
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    return v


# The longest expansion of a config range, checked before expanding: the RNN
# window domain, and 100 times the default EWMA alpha grid.
MAX_WINDOW_RANGE = len(WINDOW_GRID)
MAX_EWMA_GRID = 100 * len(classical.EWMA_GRID)


def _parse_int_list(v: str):
    out = []
    for part in v.split(","):
        part = part.strip()
        if "-" in part and not part.startswith("-"):
            a, b = (int(x) for x in part.split("-"))
            if b - a >= MAX_WINDOW_RANGE:
                raise ConfigError(f"rnn.windows range {part} holds {b - a + 1} windows, "
                                  f"more than {MAX_WINDOW_RANGE}")
            out.extend(range(a, b + 1))
        else:
            out.append(int(part))
    return tuple(out)


def _parse_triple(v: str):
    out = tuple(int(x) for x in v.split(","))
    if len(out) != 3:
        raise ValueError(f"expected three comma-separated integers, got {v!r}")
    return out


def _parse_triples(v: str):
    return tuple(_parse_triple(t) for t in v.split(";"))


def _parse_grid(v: str):
    lo, hi, step = (float(x) for x in v.split(":"))
    n = int(round((hi - lo) / step)) + 1
    if n > MAX_EWMA_GRID:
        raise ConfigError(f"ewma.grid {v} holds {n} alphas, more than {MAX_EWMA_GRID}")
    return tuple(round(lo + i * step, 10) for i in range(n))


# key -> (ExperimentConfig field, parser); other synth.* keys go to synth_params
CONFIG_KEYS = {
    "data.source": ("source", str),
    "data.csv": ("csv_path", str),
    "data.aggregation": ("aggregation", str),
    "synth.kind": ("synth_kind", str),
    "split.validation": ("validation_len", int),
    "split.test": ("test_len", int),
    "models": ("models", lambda v: tuple(m.strip() for m in v.split(",") if m.strip())),
    "selection.metric": ("metric", str),
    "seed": ("seed", int),
    "reference": ("reference", str),
    "ewma.grid": ("ewma_grid", _parse_grid),
    "har.lags": ("har_lags", _parse_triple),
    "har.grid": ("har_grid", lambda v: () if v == "default" else _parse_triples(v)),
    "arima.orders": ("arima_orders", _parse_triples),
    "rnn.windows": ("rnn_windows", _parse_int_list),
    "rnn.units": ("rnn_units", int),
    "rnn.layers": ("rnn_layers", int),
    "rnn.epochs": ("rnn_epochs", int),
    "rnn.batch": ("rnn_batch", int),
    "rnn.optimizer": ("rnn_optimizer", str),
    "rnn.lr": ("rnn_lr", float),
    "rnn.loss": ("rnn_loss", str),
    "rnn.dropout": ("rnn_dropout", float),
    "rnn.activation": ("rnn_activation", str),
}


def parse_config(path) -> ExperimentConfig:
    """Flat key=value config with dotted section prefixes; '#' comments.
    The file is UTF-8; one that cannot be read is a ConfigError naming it."""
    kv = {}
    for lineno, line in enumerate(read_utf8(path, ConfigError).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    return config_from_mapping(kv)


def config_from_mapping(kv: dict) -> ExperimentConfig:
    args = {}
    synth_params = {}
    try:
        for k, v in kv.items():
            if k in CONFIG_KEYS:
                field, parse = CONFIG_KEYS[k]
                args[field] = parse(v)
            elif k.startswith("synth."):
                synth_params[k[len("synth."):]] = _parse_scalar(v)
            else:
                raise ConfigError(f"unknown config key {k!r}")
    except (ValueError, TypeError, ArithmeticError) as exc:   # a zero step, an inf bound
        raise ConfigError(f"bad config value: {exc}") from exc
    if synth_params:
        args["synth_params"] = tuple(synth_params.items())
    return ExperimentConfig(**args)


# ---------------------------------------------------------------------------
# Data acquisition
# ---------------------------------------------------------------------------

def _load_data(config: ExperimentConfig):
    """Returns (rv_series, bucket_returns) with bucket_returns[k] the
    close-to-close log return of bucket k+1 (length len(rv) - 1)."""
    if config.source == "csv":
        source = read_price_csv(config.csv_path)
    else:
        params = dict(config.synth_params)
        source = synth.build_source(config.synth_kind, params, config.seed)
        if isinstance(source, RVSeries):
            rng = np.random.default_rng(int(params.get("seed", config.seed)) + 7)
            return source, source.rv[1:] * rng.standard_normal(len(source) - 1)
    returns = log_returns(source)
    rv = realized_volatility(returns, config.aggregation)
    _, edges = calendar_buckets(returns.timestamps, config.aggregation)
    # the last return of bucket k ends at price edges[k + 1]
    return rv, np.diff(np.log(source.prices[edges[1:]]))


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    model_params: tuple          # (model_id, dump-text) pairs
    timings: tuple               # (model_id, seconds) pairs
    versions: tuple
    negatives: tuple             # (model_id, validation, test) counts of forecasts < 0

    def render(self) -> str:
        lines = [f"config_hash={self.config_hash}"]
        for k, v in self.versions:
            lines.append(f"version.{k}={v}")
        for mid, secs in self.timings:
            lines.append(f"timing.{mid}={secs:.3f}s")
        for mid, n_valid, n_test in self.negatives:
            lines.append(f"negative.{mid}.validation={n_valid}")
            lines.append(f"negative.{mid}.test={n_test}")
        for mid, dump in self.model_params:
            for line in dump.strip().splitlines():
                lines.append(f"param.{mid}.{line}")
        return "\n".join(lines) + "\n"


def _fit_model(model_id, config, data):
    """One model's fit and its validation and test paths, in a worker process
    or in-process.  Returns (forecasts, dump, search log, seconds), or the
    message of the VolforgeError that failed the model; a forecast that is
    not finite fails it too."""
    fit, path = MODELS[model_id]
    t0 = time.perf_counter()
    try:
        model, refit, dump, search_log = fit(config, data)
        forecasts = tuple(path(m, data, start, stop)
                          for m, (_, start, stop) in zip((model, refit), data.windows))
        for fc, (_, start, stop) in zip(forecasts, data.windows):
            ForecastRecord(model_id, data.values[start:stop], fc)
    except VolforgeError as exc:
        return str(exc)
    return forecasts, dump, search_log, time.perf_counter() - t0


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Fit all enabled models and emit validation/test reports.

    Model failures are isolated: a model whose fit raises a VolforgeError, or
    whose forecasts are not finite, is listed in the report's failure section
    and the run continues.  Data errors abort the run.
    Returns (validation EvalReport, test EvalReport, RunManifest).
    """
    rv, r_full = _load_data(config)
    spec = SplitSpec(config.validation_len, config.test_len)
    lookback = max([1] + ([max(config.har_lags)] if "har" in config.models else [])
                   + ([max(config.rnn_windows)] if set(config.models) & set(RNN_MODELS) else []))
    train_rv, valid_rv, test_rv = split(rv, spec, min_train=lookback + 10)
    rv = apply_zero_floor(rv, len(train_rv))
    values = rv.rv
    data = Data(values, r_full, len(train_rv), len(train_rv) + len(valid_rv))

    # The models fit independently, so they fit in parallel, one job each.
    # fork, not spawn: a forked worker starts with numpy and the program
    # loaded, where a spawned one would import them again on every run.
    # A job's bits do not depend on the worker that runs it.
    job = partial(_fit_model, config=config, data=data)
    workers = (min(len(config.models), len(os.sched_getaffinity(0)))
               if sys.platform == "linux" else 1)
    if workers > 1:
        import multiprocessing      # here, so that `import volforge.cli` stays without them
        from concurrent.futures import ProcessPoolExecutor
        # map cancels the jobs not yet started when one raises, and leaving
        # the block joins every worker, on success and on error alike
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(job, config.models))
    else:
        outcomes = list(map(job, config.models))

    results, failures, timings, dumps, search_logs = {}, [], [], [], {}
    for model_id, outcome in zip(config.models, outcomes):
        if isinstance(outcome, str):
            failures.append((model_id, outcome))
            continue
        results[model_id], dump, search_log, seconds = outcome
        timings.append((model_id, seconds))
        dumps.append((model_id, dump))
        if search_log is not None:
            search_logs[model_id] = search_log

    if not results:
        raise FitError("all enabled models failed",
                       diagnostics={"failures": failures})

    reference = config.reference_model if config.reference_model in results \
        else next(reversed(results))
    records = [[ForecastRecord(m, values[start:stop], fc[i]) for m, fc in results.items()]
               for i, (_, start, stop) in enumerate(data.windows)]
    reports = [build_report(recs, reference, failures=failures) for recs in records]

    versions = _versions()
    # counted, not floored: a floor would change the scored forecasts
    negatives = tuple((m, int(np.count_nonzero(v < 0)), int(np.count_nonzero(t < 0)))
                      for m, (v, t) in results.items())
    manifest = RunManifest(config.hash(), tuple(dumps), tuple(timings), versions, negatives)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "plots").mkdir(exist_ok=True)
        for (window, start, stop), recs, report in zip(data.windows, records, reports):
            atomic_write(out / f"{window}_report.csv", report_csv(report))
            atomic_write(out / f"{window}_report.txt", report_text(report))
            emit_plot_data(recs, rv.period_labels[start:stop], out / "plots", suffix=window)
        atomic_write(out / "manifest.txt", manifest.render())
        for model_id, log in search_logs.items():
            atomic_write(out / f"{model_id}_window_search.csv", search_log_csv(log))
    return (*reports, manifest)


def _versions():
    import platform
    import scipy
    return (("volforge", __version__), ("python", platform.python_version()),
            ("numpy", np.__version__), ("numpy_simd", _numpy_simd()),
            ("scipy", scipy.__version__))


def _numpy_simd():
    """The SIMD feature sets numpy dispatches to on this host: its np.log,
    np.exp, np.tanh and small-array sort kernels, and so some fitted bits,
    can differ between them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:     # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return ",".join(f for f in __cpu_dispatch__ if __cpu_features__[f])


def emit_plot_data(records, periods, out_dir, suffix):
    """Per-model CSV <model>_<suffix>.csv of (period, actual, predicted) for plotting."""
    records = list(records)
    if not records:
        raise DataError("no records to emit")
    out_dir = Path(out_dir)
    paths = []
    for rec in records:
        if len(periods) != len(rec):
            raise DataError(f"{rec.model_id}: period labels do not match record length")
        path = out_dir / f"{rec.model_id}_{suffix}.csv"
        rows = zip(periods, rec.actual.tolist(), rec.predicted.tolist())
        atomic_write(path, "period,actual,predicted\n"
                     + "".join(f"{lbl},{a!r},{p!r}\n" for lbl, a, p in rows))
        paths.append(path)
    return paths
