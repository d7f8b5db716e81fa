"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS` on success; a failure raises
before the line is printed, so the printed lines are the pass record.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import t as student_t

from volforge.classical import (arima_fit, arima_order_select, ewma_fit, har_design,
                                har_fit, har_lag_search)
from volforge.evaluation import ForecastRecord, dm_test, var_estimate
from volforge.garch import garch_fit, garch_loglik
from volforge.rnn import RnnConfig, rnn_gradient_check
from volforge.rnn.search import hyperparameter_search, validation_metric, window_search
from volforge.rnn.training import rnn_train
from volforge.runner import ExperimentConfig, run_experiment
from volforge.synth import (GarchSimSpec, GbmSpec, rv_consistency_probe,
                            simulate_garch, simulate_gbm, simulate_log_vol_cascade)


def _report(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS")


def test_01_rv_consistency():
    t0 = time.perf_counter()
    spec = GbmSpec(sigma=0.2, dt=1.0 / (252 * 390), steps_per_bucket=390,
                   buckets=1000, seed=0)
    rows = {r["m"]: r["mean_rel_error"]
            for r in rv_consistency_probe(spec, [39, 390])}
    # mean RV^2 across buckets within 5% of the constant true IV at M=390
    sub = GbmSpec(sigma=0.2, dt=spec.dt, steps_per_bucket=390, buckets=1000, seed=0)
    from volforge.series import log_returns, realized_volatility
    prices, iv = simulate_gbm(sub)
    rv = realized_volatility(log_returns(prices), "day")
    assert abs(float(np.mean(rv.rv ** 2)) / iv[0] - 1.0) < 0.05
    # estimator error shrinks: fine sampling at most half the coarse error
    assert rows[390] <= 0.5 * rows[39]
    assert time.perf_counter() - t0 < 10.0
    _report(1, "rv-consistency")


def test_02_garch_recovery():
    t0 = time.perf_counter()
    r = simulate_garch(GarchSimSpec(omega=1e-5, alpha=0.1, beta=0.85,
                                    length=5000, seed=42)).returns
    m = garch_fit(r)
    assert abs(m.alpha - 0.1) <= 0.05
    assert abs(m.beta - 0.85) <= 0.05
    assert abs(m.omega - 1e-5) / 1e-5 <= 0.5
    assert m.loglik >= garch_loglik((1e-5, 0.1, 0.85, 0.0, 0.0), r) - 1e-6
    assert time.perf_counter() - t0 < 30.0
    _report(2, "garch-recovery")


def test_03_rnn_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for cell in ("lstm", "gru"):
        for layers in (1, 2):
            for window in (1, 3, 10):
                for loss in ("MAE", "MSE", "Huber"):
                    cfg = RnnConfig(cell=cell, layers=layers, window=window,
                                    units=5, loss=loss, activation="linear",
                                    seed=0)
                    err = rnn_gradient_check(cfg)
                    worst = max(worst, err)
    assert worst < 1e-4, f"worst gradient error {worst:.3e}"
    assert time.perf_counter() - t0 < 60.0
    _report(3, "rnn-gradient-check")


def test_04_har_oracle_equivalence():
    c, bd, bw, bm = -0.2, 0.4, 0.3, 0.28
    rv = simulate_log_vol_cascade(c, bd, bw, bm, noise_sd=0.0, length=80,
                                  seed=5, burn_in=0, init_sd=2.0).rv
    model = har_fit(rv, lags=(1, 5, 22))
    assert abs(model.c - c) < 1e-8
    assert abs(model.beta_d - bd) < 1e-8
    assert abs(model.beta_w - bw) < 1e-8
    assert abs(model.beta_m - bm) < 1e-8
    X, y = har_design(rv, (1, 5, 22))
    beta = np.array([model.c, model.beta_d, model.beta_w, model.beta_m])
    resid = np.linalg.norm(X.T @ (y - X @ beta)) / np.linalg.norm(X.T @ y)
    assert resid < 1e-8
    _report(4, "har-oracle-equivalence")


def test_05_dm_reference():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        actual = np.abs(rng.standard_normal(252)) + 1.0
        r1 = ForecastRecord("a", actual, actual + 0.3 * rng.standard_normal(252))
        r2 = ForecastRecord("b", actual, actual + 0.5 * rng.standard_normal(252))
        for loss in ("squared", "absolute"):
            out = dm_test(r1, r2, loss=loss)
            e1 = r1.actual - r1.predicted
            e2 = r2.actual - r2.predicted
            d = e1 ** 2 - e2 ** 2 if loss == "squared" else np.abs(e1) - np.abs(e2)
            T = len(d)
            stat = d.mean() / math.sqrt(np.mean((d - d.mean()) ** 2) / T)
            stat *= math.sqrt((T + 1 - 2 * 1 + 1 * 0 / T) / T)
            p = 2 * float(student_t.sf(abs(stat), T - 1))
            assert abs(out.statistic - stat) < 1e-10
            assert abs(out.p_value - p) < 1e-10
            rev = dm_test(r2, r1, loss=loss)
            assert out.statistic == -rev.statistic
    _report(5, "dm-reference")


def test_06_metric_identities():
    from volforge.evaluation import point_metrics
    cfg = ExperimentConfig(source="synth", synth_kind="cascade",
                           synth_params=(("length", 700), ("noise_sd", 0.3)),
                           validation_len=100, test_len=100,
                           models=("naive", "har", "ewma"), seed=0)
    report_v, report_t, _ = run_experiment(cfg)
    for report in (report_v, report_t):
        for row in report.rows:
            assert row.rmse ** 2 == pytest.approx(row.mse, rel=1e-12)
            assert row.mae <= row.rmse + 1e-15
    perfect = ForecastRecord("p", np.linspace(1, 2, 20), np.linspace(1, 2, 20))
    assert point_metrics(perfect)["MAPE"] == 0.0
    _report(6, "metric-identities")


def test_07_search_argmin_replay():
    rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                  length=400, seed=11).rv
    train, valid = rv[:320], rv[320:]

    # ewma_fit: exact argmin of its logged table, ties to the smaller alpha
    grid = tuple(np.round(np.arange(0.01, 1.0, 0.01), 2))
    em = ewma_fit(train, valid, "MSE", grid)
    table = dict(em.search_log)
    assert em.alpha == min(sorted(table), key=lambda a: (table[a], a))

    # har_lag_search: lexicographic tie-break on the lag triple
    lag_grid = [(1, 5, 22), (1, 8, 30), (2, 10, 40), (3, 12, 60)]
    hm = har_lag_search(train, valid, "MSE", lag_grid)
    htab = dict(hm.search_log)
    assert hm.lags == min(sorted(htab), key=lambda l: (htab[l], l))

    # arima_order_select: AIC argmin, ties to fewer parameters, then the
    # smaller order; the returned fit must reproduce its logged AIC exactly
    orders = [(p, d, q) for d in (1, 0) for p in range(3) for q in range(3)]
    am = arima_order_select(train, orders)
    atab = dict(am.search_log)
    assert set(atab) == set(orders)
    assert am.order == min(atab, key=lambda o: (atab[o], o[0] + o[2], o))
    p, _, q = am.order
    assert 2 * (p + q + 1) - 2 * arima_fit(train, am.order).loglik == atab[am.order]

    # window_search: ties to the smaller window; winner must replay exactly
    base = RnnConfig(cell="lstm", units=5, epochs=3, seed=0)
    wm = window_search(train, valid, base, window_grid=[3, 5, 8], metric="MSE")
    wtab = dict(wm.search_log)
    assert wm.config.window == min(sorted(wtab), key=lambda w: (wtab[w], w))
    re = rnn_train(train, replace(base, window=wm.config.window))
    assert validation_metric(re, train, valid, "MSE") == pytest.approx(
        wtab[wm.config.window], rel=1e-12)

    # hyperparameter_search: first-seen argmin over its candidate log
    cands = [RnnConfig(cell="gru", units=5, window=3, epochs=2, seed=0),
             RnnConfig(cell="gru", units=10, window=5, epochs=2, seed=0),
             RnnConfig(cell="gru", units=5, window=8, epochs=2, seed=0)]
    hp = hyperparameter_search(train, valid, cands, metric="MSE")
    vals = [v for _, v in hp.search_log]
    winner_cfg = hp.search_log[int(np.argmin(vals))][0]
    assert hp.config == winner_cfg
    _report(7, "search-argmin-replay")


def test_08_qualitative_ranking():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(5):
        cfg = ExperimentConfig(
            source="synth", synth_kind="cascade",
            synth_params=(("length", 3000), ("noise_sd", 0.3)),
            validation_len=252, test_len=252,
            models=("har", "garch", "lstm"),
            rnn_windows=(5, 10, 22), rnn_epochs=10, rnn_units=10,
            seed=seed)
        _, report_t, _ = run_experiment(cfg)
        mae = {r.model_id: r.mae for r in report_t.rows}
        if set(mae) != {"har", "garch", "lstm"}:
            continue
        ok = (mae["har"] < mae["garch"] and mae["lstm"] < mae["garch"]
              and mae["lstm"] <= 1.05 * mae["har"])
        wins += int(ok)
    assert wins >= 4, f"ranking held for only {wins}/5 seeds"
    assert time.perf_counter() - t0 < 900.0
    _report(8, "qualitative-ranking")


def test_09_end_to_end_determinism(tmp_path):
    cfg = ExperimentConfig(source="synth", synth_kind="cascade",
                           synth_params=(("length", 700), ("noise_sd", 0.3)),
                           validation_len=100, test_len=100,
                           models=("naive", "ewma", "har"), seed=0)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    run_experiment(cfg, out_dir=d1)
    run_experiment(cfg, out_dir=d2)
    for name in ("validation_report.csv", "validation_report.txt",
                 "test_report.csv", "test_report.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    for sub in sorted((d1 / "plots").iterdir()):
        assert sub.read_bytes() == (d2 / "plots" / sub.name).read_bytes()
    _report(9, "end-to-end-determinism")


def test_10_var_scaling_law():
    target = 1.6448536 * math.sqrt(10)
    for sigma in (0.01, 0.1, 1.0):
        ratio = var_estimate(sigma, horizon_periods=10, confidence=0.95) / sigma
        assert abs(ratio - target) < 1e-6
    _report(10, "var-scaling-law")
