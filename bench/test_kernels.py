"""Microbenchmarks of the ingest, classical and recurrent forecasting kernels.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench
--benchmark-only`` (pytest-benchmark).  The default ``pytest`` run does not
collect this directory.  Inputs are seeded, so rounds time identical work.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volforge.classical import (ArimaModel, _css_residual_fn, _pacf_coeffs, arima_fit,
                                arima_order_select, arima_path, default_har_lag_grid,
                                ewma_forecasts, har_fit, har_lag_search, har_path)
from volforge.garch import Innovations, garch_fit, variance_path
from volforge.rnn import RnnConfig, init_weights, rnn_backward, rnn_forward, rnn_train
from volforge.runner import ExperimentConfig
from volforge.series import log_returns, read_price_csv, realized_volatility, write_price_csv
from volforge.synth import GbmSpec, build_source, simulate_gbm, simulate_log_vol_cascade


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def rv():
    """A 3000-point log-volatility cascade, the acceptance-08 length."""
    return simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                    length=3000, seed=0).rv


# 250 days of 390 bars (the ingest_csv workload) by day; 600 buckets of 26
# bars (the rnn_gbm workload) by hour
@pytest.mark.parametrize("buckets,bars,aggregation",
                         [(250, 390, "day"), (600, 26, "hour")], ids=["day", "hour"])
def test_realized_volatility(benchmark, buckets, bars, aggregation):
    prices, _ = simulate_gbm(GbmSpec(buckets=buckets, steps_per_bucket=bars, seed=0))
    returns = log_returns(prices)
    rv = benchmark(realized_volatility, returns, aggregation)
    assert len(rv) >= buckets


def write_iso_price_csv(prices, path):
    stamps = np.datetime_as_string(prices.timestamps.astype("datetime64[s]")).tolist()
    rows = zip(stamps, prices.prices.tolist())
    path.write_text("timestamp,price\n" + "".join(f"{t},{p!r}\n" for t, p in rows))


@pytest.mark.parametrize("write", [write_price_csv, write_iso_price_csv], ids=["epoch", "iso"])
def test_read_price_csv(benchmark, tmp_path, write):
    # the 250 x 390 bars of the ingest_csv workload (its first case): with epoch
    # timestamps, as that workload writes them, np.loadtxt reads the file in one
    # pass; with ISO timestamps the line loop reads it
    prices, _ = simulate_gbm(GbmSpec(buckets=250, steps_per_bucket=390, seed=101))
    path = tmp_path / "prices.csv"
    write(prices, path)
    back = benchmark(read_price_csv, path)
    assert back.timestamps.tobytes() == prices.timestamps.tobytes()
    assert back.prices.tobytes() == prices.prices.tobytes()


@pytest.mark.parametrize("n", [50, 3000])
@pytest.mark.parametrize("p,q", [(1, 1), (3, 3)], ids=["order101", "order303"])
def test_css_residuals(benchmark, n, p, q):
    # the residual function is built inside the timed call, as a one-shot use
    z = np.random.default_rng(0).standard_normal(n)
    phi = _pacf_coeffs(np.full(p, 0.4))
    theta = _pacf_coeffs(np.full(q, -0.3))
    a = benchmark(lambda: _css_residual_fn(z, p, q)(0.01, phi, theta))
    assert len(a) == n - p


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pacf_to_coeffs(benchmark, k):
    # one AR or MA block of an ARIMA objective evaluation, orders up to 3
    u = np.random.default_rng(2).standard_normal(k) * 3
    phi = benchmark(_pacf_coeffs, u)
    assert len(phi) == k


# 49 and 89 returns: the GARCH fits' training and train+validation windows in
# the classical_cascade workload, with the mean and seed variance garch_fit passes.
# On raw returns each call builds its Innovations; on a prepared holder it runs
# only the loop, as every evaluation of a garch_fit does.
@pytest.mark.parametrize("n", [49, 89])
@pytest.mark.parametrize("prepared", [False, True], ids=["raw", "prepared"])
def test_variance_path(benchmark, n, prepared):
    r = np.random.default_rng(1).standard_normal(n) * 0.01
    mu = float(np.mean(r))
    returns = Innovations(r, mu) if prepared else r
    sigma2 = benchmark(variance_path, returns, 1e-6, 0.05, 0.85, 0.08, mu, float(np.var(r)))
    assert len(sigma2) == n


@pytest.fixture(scope="module")
def cascade_train():
    """Case 201 of the classical_cascade workload (130 points): its 50-point
    training window and the 49 bucket returns the runner pairs with it."""
    source = build_source("cascade", {"length": 130, "noise_sd": 0.3}, 201)
    returns = source.rv[1:] * np.random.default_rng(201 + 7).standard_normal(len(source) - 1)
    return source.rv[:50], returns[:49]


# one minimize_simplex fit of each kind in a classical_cascade op
@pytest.mark.parametrize("fit", ["arima101", "gjr"])
def test_minimize_simplex(benchmark, cascade_train, fit):
    rv, returns = cascade_train
    if fit == "arima101":
        model = benchmark(arima_fit, rv, (1, 0, 1))
    else:
        model = benchmark(garch_fit, returns, "gjr")
    assert math.isfinite(model.loglik)


def test_arima_order_select(benchmark, cascade_train):
    # the selection search of a classical_cascade op: all 32 default orders
    rv, _ = cascade_train
    orders = ExperimentConfig().arima_orders
    model = benchmark(arima_order_select, rv, orders)
    assert len(model.search_log) == len(orders) == 32


def test_ewma_forecasts(benchmark, rv):
    fc = benchmark(ewma_forecasts, rv, 0.94, float(np.mean(rv[:2000] ** 2)))
    assert len(fc) == len(rv)


def test_har_path(benchmark, rv):
    model = har_fit(rv[:2000])
    fc = benchmark(har_path, model, rv, 2000, 3000)
    assert len(fc) == 1000


def test_har_lag_search(benchmark, cascade_train):
    # the har_opt selection search of a classical_cascade op: all 351 default
    # lag triples on the 50-point training window and the 40-point validation
    # window that follows it (81 triples fit 50 points)
    train, _ = cascade_train
    source = build_source("cascade", {"length": 130, "noise_sd": 0.3}, 201)
    model = benchmark(har_lag_search, train, source.rv[50:90], "MSE", default_har_lag_grid())
    assert sum(math.isfinite(s) for _, s in model.search_log) == 81


def test_arima_path(benchmark, rv):
    model = ArimaModel((1, 0, 1), (0.9,), (-0.4,), 0.001, 1e-5, 0.0)
    fc = benchmark(arima_path, model, rv, 2, 3000)
    assert len(fc) == 2998


# one training batch of the default shape (B = 32, u = 10) at short, default
# and maximal windows
@pytest.mark.parametrize("window", [5, 22, 50])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_rnn_forward(benchmark, cell, window):
    cfg = RnnConfig(cell=cell, window=window, units=10, seed=0)
    w = init_weights(cfg)
    x = np.random.default_rng(0).uniform(size=(32, window))
    yhat, _ = benchmark(rnn_forward, x, w, cfg)
    assert yhat.shape == (32,)


@pytest.mark.parametrize("window", [5, 22, 50])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_rnn_backward(benchmark, cell, window):
    cfg = RnnConfig(cell=cell, window=window, units=10, seed=0)
    w = init_weights(cfg)
    x = np.random.default_rng(0).uniform(size=(32, window))
    _, cache = rnn_forward(x, w, cfg)
    grads = benchmark(rnn_backward, np.full(32, 1.0 / 32), cache, w, cfg)
    assert set(grads) == set(w)


# one window candidate of the rnn_gbm workload: 96 training points, 5 epochs
# of batches of 32 (the last one ragged), default units and optimizer
@pytest.mark.parametrize("window", [5, 22, 40])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_rnn_train(benchmark, cell, window):
    train = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                     length=96, seed=0).rv
    cfg = RnnConfig(cell=cell, window=window, units=10, epochs=5, seed=0)
    model = benchmark(rnn_train, train, cfg)
    assert len(model.training_loss_curve) == 5


def fresh_process(benchmark, argv):
    """Times `python argv` in a fresh interpreter that imports volforge from src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = benchmark.pedantic(subprocess.run, ([sys.executable] + argv,),
                              {"env": env, "capture_output": True}, rounds=5, iterations=1,
                              warmup_rounds=1)
    assert proc.returncode == 0, proc.stderr


def test_import_cli(benchmark):
    # a fresh interpreter importing the CLI: the import share of every verb's set-up
    fresh_process(benchmark, ["-c", "import volforge.cli"])


def test_cli_ingest(benchmark, tmp_path):
    # a whole `volforge ingest` process on the ingest_csv workload's first case:
    # start-up, then one 97.5k-bar read, bucketing and rv.csv write
    prices, _ = simulate_gbm(GbmSpec(buckets=250, steps_per_bucket=390, seed=101))
    write_price_csv(prices, tmp_path / "prices.csv")
    config = tmp_path / "ingest.cfg"
    config.write_text(f"data.source=csv\ndata.csv={tmp_path / 'prices.csv'}\n"
                      "data.aggregation=day\n")
    fresh_process(benchmark, ["-m", "volforge.cli", "ingest", "--config", str(config),
                              "--out", str(tmp_path / "out")])
    assert len((tmp_path / "out" / "rv.csv").read_text().splitlines()) == 251
