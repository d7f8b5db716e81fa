import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from volforge.classical import (ArimaModel, EwmaModel, HarModel, _css_residual_fn,
                                _gaussian_css, _pacf_coeffs, arima_fit,
                                arima_forecast, arima_order_select, arima_path,
                                default_har_lag_grid, ewma_fit, ewma_forecasts,
                                ewma_path, har_design, har_fit,
                                argmin_search, har_forecast, har_lag_search,
                                har_path, naive_path)
from volforge.errors import DataError, FitError
from volforge.simplex import minimize_simplex
from volforge.synth import simulate_log_vol_cascade


class TestNaive:
    def test_last_element(self):
        assert naive_path(None, [0.1, 0.2, 0.3], 3, 4).tolist() == [0.3]

    def test_singleton(self):
        assert naive_path(None, [0.5], 1, 2).tolist() == [0.5]

    def test_constant(self):
        assert naive_path(None, [0.07] * 10, 10, 11).tolist() == [0.07]

    def test_empty_errors(self):
        with pytest.raises(DataError):
            naive_path(None, [], 0, 1)


class TestArgminSearch:
    def test_ties_go_to_the_earlier_candidate(self):
        scores = {"a": 2.0, "b": 1.0, "c": 1.0}
        best, log = argmin_search("abc", lambda c: (c.upper(), scores[c]), "none")
        assert best == "B"
        assert log == (("a", 2.0), ("b", 1.0), ("c", 1.0))

    def test_failures_logged_as_inf(self):
        def evaluate(c):
            if c == 2:
                raise FitError("no fit")
            if c == 3:
                raise DataError("too short")
            return c, float(c)
        best, log = argmin_search([4, 2, 3, 5], evaluate, "none")
        assert best == 4
        assert log == ((4, 4.0), (2, math.inf), (3, math.inf), (5, 5.0))

    def test_no_success_raises_the_callers_message(self):
        def evaluate(c):
            raise DataError("too short")
        with pytest.raises(FitError, match="every candidate failed"):
            argmin_search([1, 2], evaluate, "every candidate failed")

    def test_empty_candidates(self):
        with pytest.raises(DataError):
            argmin_search([], lambda c: (c, 0.0), "none")


class TestEwmaStep:
    """One step of the recursion, read off the second forecast."""

    def test_alpha_one_keeps_variance(self):
        assert ewma_forecasts([123.0, 0.0], 1.0, 0.04)[1] == math.sqrt(0.04)

    def test_alpha_near_zero_tracks_return(self):
        assert ewma_forecasts([0.1, 0.0], 1e-12, 0.04)[1] == pytest.approx(0.1, rel=1e-9)

    def test_direct_substitution(self):
        # 0.5*0.04 + 0.5*0.01
        assert ewma_forecasts([0.1, 0.0], 0.5, 0.04)[1] ** 2 == pytest.approx(0.025, abs=1e-15)

    def test_alpha_out_of_range(self):
        with pytest.raises(DataError):
            ewma_forecasts([0.1, 0.0], 0.0, 0.04)
        with pytest.raises(DataError):
            ewma_forecasts([0.1, 0.0], 1.5, 0.04)

    def test_alpha_one_constant_forecast_path(self):
        fc = ewma_forecasts(np.array([0.1, 0.9, 0.3, 0.7]), 1.0, 0.04)
        np.testing.assert_allclose(fc, 0.2)


class TestEwmaFit:
    def test_constant_series_tie_breaks_to_smallest_alpha(self):
        train = np.full(50, 0.02)
        valid = np.full(20, 0.02)
        model = ewma_fit(train, valid, "MSE", grid=[0.3, 0.1, 0.7])
        assert model.alpha == 0.1

    def test_argmin_matches_exhaustive_oracle(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=400, seed=11).rv
        train, valid = rv[:300], rv[300:]
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        model = ewma_fit(train, valid, "MAE", grid=grid)
        # independent exhaustive loop
        sigma2_0 = np.mean(train ** 2)
        best_a, best_v = None, math.inf
        for a in grid:
            s2 = sigma2_0
            fc = []
            for v in rv:
                fc.append(math.sqrt(s2))
                s2 = a * s2 + (1 - a) * v * v
            val = float(np.mean(np.abs(valid - np.array(fc[300:]))))
            if val < best_v:
                best_a, best_v = float(a), val
        assert model.alpha == best_a
        logged = dict(model.search_log)
        assert logged[best_a] == pytest.approx(best_v, rel=1e-12)

    def test_empty_validation_errors(self):
        with pytest.raises(DataError):
            ewma_fit(np.full(10, 0.02), np.array([]), "MSE", grid=[0.5])


class TestHar:
    def test_constant_series_predicts_constant(self):
        rv = np.full(60, 0.015)
        model = har_fit(rv)
        assert har_forecast(model, rv) == pytest.approx(0.015, rel=1e-8)

    def test_zero_noise_recovery(self):
        rv = simulate_log_vol_cascade(-0.2, 0.4, 0.3, 0.28, noise_sd=0.0,
                                      length=80, seed=5, burn_in=0, init_sd=2.0).rv
        model = har_fit(rv)
        assert model.c == pytest.approx(-0.2, abs=1e-8)
        assert model.beta_d == pytest.approx(0.4, abs=1e-8)
        assert model.beta_w == pytest.approx(0.3, abs=1e-8)
        assert model.beta_m == pytest.approx(0.28, abs=1e-8)

    def test_zero_noise_forecasts_match_generator(self):
        rv = simulate_log_vol_cascade(-0.2, 0.4, 0.3, 0.28, noise_sd=0.0,
                                      length=90, seed=5, burn_in=0, init_sd=2.0).rv
        model = har_fit(rv[:80])
        for t in range(80, 90):
            assert har_forecast(model, rv[:t]) == pytest.approx(rv[t], rel=1e-6)

    def test_forecast_trivial_coefficients(self):
        model = HarModel((1, 5, 22), 0.0, 0.0, 0.0, 0.0)
        assert har_forecast(model, np.full(30, 0.5)) == pytest.approx(1.0)
        ident = HarModel((1, 5, 22), 0.0, 1.0, 0.0, 0.0)
        hist = np.linspace(0.01, 0.02, 30)
        assert har_forecast(ident, hist) == pytest.approx(hist[-1])

    def test_insufficient_history_errors(self):
        model = HarModel((1, 5, 22), 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(DataError):
            har_forecast(model, np.full(10, 0.5))

    def test_too_few_rows_errors(self):
        with pytest.raises(DataError):
            har_fit(np.full(25, 0.01))

    def test_normal_equations_residual(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=300, seed=2).rv
        model = har_fit(rv)
        X, y = har_design(rv, model.lags)
        beta = np.array([model.c, model.beta_d, model.beta_w, model.beta_m])
        resid = np.linalg.norm(X.T @ (y - X @ beta)) / np.linalg.norm(X.T @ y)
        assert resid < 1e-8

    def test_scale_invariance_of_slopes(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=300, seed=4).rv
        m1 = har_fit(rv)
        m2 = har_fit(rv * 7.5)
        assert m2.beta_d == pytest.approx(m1.beta_d, abs=1e-8)
        assert m2.beta_w == pytest.approx(m1.beta_w, abs=1e-8)
        assert m2.beta_m == pytest.approx(m1.beta_m, abs=1e-8)


class TestHarLagSearch:
    def test_singleton_grid(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=300, seed=6).rv
        model = har_lag_search(rv[:250], rv[250:], "MSE", [(1, 5, 22)])
        assert model.lags == (1, 5, 22)

    def test_argmin_matches_logged_table(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=400, seed=8).rv
        grid = [(1, 5, 22), (1, 8, 30), (2, 10, 40), (3, 12, 60)]
        model = har_lag_search(rv[:320], rv[320:], "MSE", grid)
        log = dict(model.search_log)
        assert set(log) == set(grid)
        assert model.lags == min(grid, key=lambda l: (log[l], l))

    def test_empty_grid_errors(self):
        with pytest.raises(DataError):
            har_lag_search(np.full(100, 0.01), np.full(10, 0.01), "MSE", [])

    def test_default_grid_ordering(self):
        grid = default_har_lag_grid()
        assert all(d < w < m for d, w, m in grid)
        assert max(m for _, _, m in grid) >= 110


class TestArima:
    def test_random_walk_no_params(self):
        y = np.cumsum(np.random.default_rng(0).standard_normal(200))
        model = arima_fit(y, (0, 1, 0))
        assert model.phi == () and model.theta == ()
        assert arima_forecast(model, y) == pytest.approx(y[-1])

    def test_ar1_recovery(self):
        rng = np.random.default_rng(1)
        y = np.zeros(2000)
        for t in range(1, 2000):
            y[t] = 0.7 * y[t - 1] + 1e-4 * rng.standard_normal()
        model = arima_fit(y, (1, 0, 0))
        # sampling error for T=2000 is about 0.016 one sigma
        assert model.phi[0] == pytest.approx(0.7, abs=0.05)

    def test_ar1_hand_forecast(self):
        model = ArimaModel((1, 0, 0), (0.5,), (), 0.0, 1.0, 0.0)
        assert arima_forecast(model, [0.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_ma1_matches_reference_recursion(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(50)
        theta = 0.4
        model = ArimaModel((0, 0, 1), (), (theta,), 0.0, 1.0, 0.0)
        # independent recursion: a_t = y_t + theta*a_{t-1}, a_0 pre-sample = 0
        a = 0.0
        for v in y:
            a = v + theta * a
        assert arima_forecast(model, y) == pytest.approx(-theta * a, abs=1e-10)

    def test_stationarity_of_fit(self):
        rng = np.random.default_rng(5)
        y = np.zeros(500)
        for t in range(1, 500):
            y[t] = 0.95 * y[t - 1] + rng.standard_normal()
        model = arima_fit(y, (2, 0, 1))
        roots = np.roots(np.concatenate(([1.0], -np.asarray(model.phi))))
        assert np.all(np.abs(roots) < 1.0)  # companion roots inside => AR roots outside

    def test_loglik_improves_over_start(self):
        rng = np.random.default_rng(6)
        y = np.zeros(400)
        for t in range(1, 400):
            y[t] = 0.6 * y[t - 1] + rng.standard_normal()
        model = arima_fit(y, (1, 0, 0))
        ll_start, _ = css_loglik(y, float(np.mean(y)), [0.0], [])
        assert model.loglik >= ll_start

    def test_insufficient_history_forecast_errors(self):
        model = ArimaModel((2, 1, 0), (0.1, 0.1), (), 0.0, 1.0, 0.0)
        with pytest.raises(DataError):
            arima_forecast(model, [1.0, 2.0])


class TestArimaOrderSelect:
    def test_singleton(self):
        y = np.random.default_rng(0).standard_normal(200)
        assert arima_order_select(y, [(0, 0, 1)]).order == (0, 0, 1)

    def test_white_noise_matches_aic_oracle(self):
        y = np.random.default_rng(12).standard_normal(300)
        candidates = [(0, 0, 0), (1, 0, 0)]
        chosen = arima_order_select(y, candidates).order
        # oracle: recompute AIC per candidate from the fitted logliks
        aics = {}
        for order in candidates:
            m = arima_fit(y, order)
            aics[order] = 2 * (order[0] + order[2] + 1) - 2 * m.loglik
        assert chosen == min(candidates, key=lambda o: (aics[o], o[0] + o[2], o))

    def test_ar1_beats_white_noise_on_ar1_data(self):
        rng = np.random.default_rng(9)
        y = np.zeros(500)
        for t in range(1, 500):
            y[t] = 0.7 * y[t - 1] + rng.standard_normal()
        assert arima_order_select(y, [(0, 0, 0), (1, 0, 0)]).order == (1, 0, 0)

    def test_empty_candidates(self):
        with pytest.raises(DataError):
            arima_order_select(np.zeros(100), [])

    def test_returns_the_winning_fit_and_its_log(self):
        y = np.random.default_rng(12).standard_normal(60)
        candidates = [(1, 0, 0), (0, 0, 0), (3, 0, 3)]   # (3, 0, 3) needs 71 points
        model = arima_order_select(y, candidates)
        assert model == arima_fit(y, model.order)
        log = dict(model.search_log)
        assert set(log) == set(candidates) and log[(3, 0, 3)] == math.inf


class TestDeterminism:
    def test_repeatable_fits_and_forecasts(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=300, seed=10).rv
        m1, m2 = har_fit(rv), har_fit(rv)
        assert m1 == m2
        a1 = arima_fit(rv, (1, 0, 1))
        a2 = arima_fit(rv, (1, 0, 1))
        assert a1 == a2
        f1 = har_path(m1, rv, 250, 300)
        f2 = har_path(m2, rv, 250, 300)
        np.testing.assert_array_equal(f1, f2)


class TestDumps:
    def test_har_dump_format(self):
        model = HarModel((1, 5, 22), 0.1, 0.2, 0.3, 0.4)
        dump = model.dump()
        assert "model=har" in dump and "lags=1,5,22" in dump and "beta_d=0.2" in dump

    def test_arima_dump_format(self):
        model = ArimaModel((1, 0, 1), (0.5,), (0.2,), 0.01, 1.0, -12.0)
        dump = model.dump()
        assert "model=arima" in dump and "order=1,0,1" in dump


# ---------------------------------------------------------------------------
# The one-pass kernels against the per-step loops they replaced, kept here as
# oracles: every result must be bit-identical (np.array_equal).
# ---------------------------------------------------------------------------

def css_loglik(z, c, phi, theta):
    """The CSS log-likelihood and innovation variance of (c, phi, theta) on z,
    through the fit's residual function."""
    theta = np.asarray(theta, dtype=float).tolist()
    return _gaussian_css(_css_residual_fn(z, len(phi), len(theta))(c, phi, theta))


def css_residuals_loop(z, c, phi, theta):
    p, q = len(phi), len(theta)
    n = len(z)
    a = np.zeros(n)
    for t in range(p, n):
        pred = c
        for i in range(1, p + 1):
            pred += phi[i - 1] * z[t - i]
        for j in range(1, min(q, t - p) + 1):
            pred -= theta[j - 1] * a[t - j]
        a[t] = z[t] - pred
    return a[p:]


def arima_forecast_loop(model, history):
    p, d, q = model.order
    y = np.asarray(history, dtype=float)
    z = np.diff(y, n=d)
    phi = np.asarray(model.phi)
    theta = np.asarray(model.theta)
    n = len(z)
    a = np.zeros(n)
    if n > p:
        a[p:] = css_residuals_loop(z, model.intercept, phi, theta)
    pred = model.intercept
    for i in range(1, p + 1):
        pred += phi[i - 1] * z[n - i]
    for j in range(1, q + 1):
        if n - j >= 0:
            pred -= theta[j - 1] * a[n - j]
    for k in range(1, d + 1):
        pred += (-1) ** (k + 1) * math.comb(d, k) * y[len(y) - k]
    return float(pred)


def har_forecast_loop(model, history):
    d, w, m = model.lags
    logs = np.log(np.asarray(history, dtype=float)[-m:])
    pred = (model.c
            + model.beta_d * float(np.mean(logs[-d:]))
            + model.beta_w * float(np.mean(logs[-w:]))
            + model.beta_m * float(np.mean(logs[-m:])))
    return float(np.exp(pred))


def ewma_step(sigma2_prev, r_prev, alpha):
    """One variance update: alpha weights the previous variance, as printed."""
    return alpha * sigma2_prev + (1.0 - alpha) * r_prev * r_prev


def ewma_forecasts_loop(values, alpha, sigma2_0):
    values = np.asarray(values, dtype=float)
    out = np.empty(len(values))
    sigma2 = sigma2_0
    for t in range(len(values)):
        out[t] = math.sqrt(sigma2)
        sigma2 = ewma_step(sigma2, values[t], alpha)
    return out


def pacf_to_coeffs_loop(u):
    """The Durbin-Levinson expansion over numpy arrays, one slice update per step."""
    r = np.tanh(u)
    k = len(r)
    phi = np.zeros(k)
    for j in range(k):
        prev = phi[:j].copy()
        phi[j] = r[j]
        phi[:j] = prev - r[j] * prev[::-1]
    return phi


# unconstrained draws mapped to stationary / invertible coefficients, as in a fit
def pacf_coefficients(max_size):
    return st.lists(st.floats(-3.0, 3.0), max_size=max_size).map(
        lambda u: np.array(_pacf_coeffs(np.array(u, dtype=float)), dtype=float))


coefficients = pacf_coefficients(3)
# MA blocks past order 3 reach _ma_feedback's generic loop
ma_coefficients = pacf_coefficients(5)
series = arrays(np.float64, st.integers(12, 400), elements=st.floats(-100.0, 100.0))


class TestKernelsBitExact:
    @settings(max_examples=300, deadline=None)
    @given(u=arrays(np.float64, st.integers(0, 4),
                    elements=st.floats(-100.0, 100.0) | st.floats(-3.0, 3.0)))
    def test_pacf_to_coeffs(self, u):
        got = _pacf_coeffs(u)
        assert all(type(v) is float for v in got)
        assert np.array(got, dtype=float).tobytes() == pacf_to_coeffs_loop(u).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(z=series, c=st.floats(-10.0, 10.0), phi=coefficients, theta=ma_coefficients)
    def test_css_residuals(self, z, c, phi, theta):
        residuals = _css_residual_fn(z, len(phi), len(theta))
        assert np.array_equal(residuals(c, phi, theta.tolist()),
                              css_residuals_loop(z, c, phi, theta), equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(z=series, c=st.floats(-10.0, 10.0), phi=coefficients, theta=coefficients)
    def test_css_loglik(self, z, c, phi, theta):
        a = css_residuals_loop(z, c, phi, theta)
        sigma2 = float(np.sum(a * a)) / len(a)
        if sigma2 <= 0:
            sigma2 = 1e-300
        ll = -0.5 * len(a) * (math.log(2 * math.pi * sigma2) + 1.0)
        assert [v.hex() for v in css_loglik(z, c, phi, theta)] == [ll.hex(), sigma2.hex()]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 400),
           d=st.integers(0, 1), phi=coefficients, theta=coefficients,
           data=st.data())
    def test_arima_path_matches_per_step_loop(self, seed, n, d, phi, theta, data):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        if d:
            y = np.cumsum(y)
        p, q = len(phi), len(theta)
        model = ArimaModel((p, d, q), tuple(phi.tolist()), tuple(theta.tolist()),
                           0.0 if d else float(rng.standard_normal()), 1.0, 0.0)
        start = data.draw(st.integers(p + d + 1, n - 1))
        stop = min(n, start + 30)
        expect = [arima_forecast_loop(model, y[:t]) for t in range(start, stop)]
        assert np.array_equal(arima_path(model, y, start, stop), expect)
        assert arima_forecast(model, y[:start]) == expect[0]

    @settings(max_examples=100, deadline=None)
    @given(values=arrays(np.float64, st.integers(12, 400), elements=st.floats(-1.0, 1.0)),
           alpha=st.floats(1e-6, 1.0), sigma2_0=st.floats(0.0, 1.0))
    def test_ewma_forecasts(self, values, alpha, sigma2_0):
        assert np.array_equal(ewma_forecasts(values, alpha, sigma2_0),
                              ewma_forecasts_loop(values, alpha, sigma2_0))

    def test_ewma_path_matches_per_step_loop(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=300, seed=14).rv
        model = EwmaModel(0.93, float(np.mean(rv[:200] ** 2)))
        expect = [ewma_forecasts_loop(rv[:t + 1], model.alpha, model.sigma2_0)[t]
                  for t in range(200, 300)]
        assert np.array_equal(ewma_path(model, rv, 200, 300), expect)

    def test_har_path_matches_per_step_loop_on_default_grid(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=200, seed=15).rv
        for lags in default_har_lag_grid():
            model = har_fit(rv[:150], lags)
            m = lags[2]
            expect = [har_forecast_loop(model, rv[:t]) for t in range(m, 200)]
            assert np.array_equal(har_path(model, rv, m, 200), expect), lags

    def test_naive_path_matches_per_step_loop(self):
        rv = np.random.default_rng(16).standard_normal(50)
        assert np.array_equal(naive_path(None, rv, 1, 50),
                              [float(rv[:t][-1]) for t in range(1, 50)])

    def test_empty_path_window(self):
        rv = np.full(40, 0.01)
        model = HarModel((1, 5, 22), 0.0, 1.0, 0.0, 0.0)
        assert len(har_path(model, rv, 30, 30)) == 0
        arima = ArimaModel((1, 0, 1), (0.5,), (0.2,), 0.0, 1.0, 0.0)
        assert len(arima_path(arima, rv, 30, 30)) == 0

    def test_har_path_rejects_non_positive_history(self):
        rv = np.full(40, 0.01)
        rv[35] = 0.0
        model = HarModel((1, 5, 22), 0.0, 1.0, 0.0, 0.0)
        har_path(model, rv, 22, 36)
        with pytest.raises(DataError, match="non-positive"):
            har_path(model, rv, 22, 37)


def arima_fit_oracle(train, order):
    """(phi, theta, intercept, innovation variance, loglik) of an ARIMA CSS fit
    whose objective redoes every step on every evaluation: _pacf_coeffs on
    each block, and a new residual function on the whole differenced series."""
    p, d, q = order
    z = np.diff(np.asarray(train, dtype=float), n=d)
    has_c = d == 0
    k = (1 if has_c else 0) + p + q
    if k == 0:
        ll, sigma2 = css_loglik(z, 0.0, [], [])
        return [], [], 0.0, sigma2, ll

    def unpack(x):
        idx = 1 if has_c else 0
        c = x[0] if has_c else 0.0
        return (float(c), _pacf_coeffs(x[idx:idx + p]),
                _pacf_coeffs(x[idx + p:idx + p + q]))

    def neg_ll(x):
        c, phi, theta = unpack(x)
        ll, _ = css_loglik(z, c, phi, theta)
        return -ll

    x0 = np.zeros(k)
    if has_c:
        x0[0] = float(np.mean(z))
    x_best, _, _ = minimize_simplex(neg_ll, x0)
    c, phi, theta = unpack(x_best)
    ll, sigma2 = css_loglik(z, c, phi, theta)
    return phi, theta, c, sigma2, ll


class TestArimaObjectiveOracle:
    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(0, 3), d=st.integers(0, 1), q=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1), cascade=st.booleans(), data=st.data())
    def test_fit_matches_unhoisted_objective(self, p, d, q, seed, cascade, data):
        n = data.draw(st.integers(max(45, 10 * (p + q + 1) + d + 1), 200), label="n")
        if cascade:
            y = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                         length=n, seed=seed % 2 ** 31).rv
        else:
            y = np.cumsum(np.random.default_rng(seed).standard_normal(n))
        model = arima_fit(y, (p, d, q))
        got = (list(model.phi), list(model.theta), model.intercept,
               model.innovation_variance, model.loglik)
        want = arima_fit_oracle(y, (p, d, q))
        for g, w in zip(got[:2], want[:2]):
            assert [v.hex() for v in g] == [v.hex() for v in w]
        assert [v.hex() for v in got[2:]] == [v.hex() for v in want[2:]]
