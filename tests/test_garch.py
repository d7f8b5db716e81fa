import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from volforge import garch
from volforge.errors import DataError, FitError
from volforge.garch import (_MAX_PERSISTENCE, GarchModel, Innovations, _unpack, garch_fit,
                            garch_forecast_path, garch_loglik, variance_path)
from volforge.simplex import minimize_simplex
from volforge.synth import GarchSimSpec, simulate_garch

_LOG_2PI = math.log(2.0 * math.pi)


def garch_step(model, r_prev, sigma2_prev):
    """Next conditional variance from the last return and variance."""
    eps = r_prev - model.mu
    shock = model.alpha + (model.gamma if eps < 0 else 0.0)
    return model.omega + shock * eps * eps + model.beta * sigma2_prev


class TestVariancePath:
    def test_three_obs_hand_recursion(self):
        r = [0.01, -0.02, 0.015]
        omega, alpha, beta = 1e-5, 0.1, 0.8
        s2 = variance_path(Innovations(r, 0.0), omega, alpha, beta, 0.0)
        v0 = np.var(r)
        v1 = omega + alpha * 0.01 ** 2 + beta * v0
        v2 = omega + alpha * 0.02 ** 2 + beta * v1
        np.testing.assert_allclose(s2, [v0, v1, v2], rtol=1e-10)

    def test_alpha_beta_zero_collapses_to_omega(self):
        r = np.random.default_rng(0).standard_normal(20) * 0.01
        s2 = variance_path(Innovations(r, 0.0), 4e-4, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(s2[1:], 4e-4)

    def test_gjr_asymmetric_response(self):
        # identical magnitude shocks: negative one raises variance more
        up = variance_path(Innovations([0.0, 0.02, 0.0], 0.0), 1e-5, 0.05, 0.8, 0.1,
                           sigma2_0=1e-4)
        dn = variance_path(Innovations([0.0, -0.02, 0.0], 0.0), 1e-5, 0.05, 0.8, 0.1,
                           sigma2_0=1e-4)
        assert dn[2] > up[2]
        assert dn[2] - up[2] == pytest.approx(0.1 * 0.02 ** 2, rel=1e-10)

    def test_explicit_initial_variance(self):
        s2 = variance_path(Innovations([0.0, 0.0], 0.0), 1e-5, 0.1, 0.8, 0.0, sigma2_0=2e-4)
        assert s2[0] == 2e-4
        assert s2[1] == pytest.approx(1e-5 + 0.8 * 2e-4, rel=1e-12)

    def test_unconditional_fixed_point(self):
        omega, alpha, beta = 2e-5, 0.1, 0.85
        ubar = omega / (1 - alpha - beta)
        # zero shocks at mu keep the variance moving toward and holding at
        # omega + beta*sigma2; start exactly at the no-shock fixed point
        fp = omega / (1 - beta)
        s2 = variance_path(Innovations(np.zeros(10), 0.0), omega, alpha, beta, 0.0, sigma2_0=fp)
        np.testing.assert_allclose(s2, fp, rtol=1e-12)
        assert fp < ubar


def variance_path_loop(returns, omega, alpha, beta, gamma, mu, sigma2_0=None):
    """The per-step recursion the one-pass kernel replaced.  It squares with
    e * e (correctly rounded); the loop it replaced used eps ** 2 on a numpy
    scalar, which goes through libm pow and can differ in the last bit."""
    r = np.asarray(returns, dtype=float)
    eps = r - mu
    sigma2 = np.empty(len(r))
    sigma2[0] = float(np.var(r)) if sigma2_0 is None else float(sigma2_0)
    for t in range(1, len(r)):
        e = eps[t - 1]
        shock = alpha + (gamma if e < 0 else 0.0)
        sigma2[t] = omega + shock * (e * e) + beta * sigma2[t - 1]
    return sigma2


class TestVariancePathBitExact:
    @settings(max_examples=150, deadline=None)
    @given(r=arrays(np.float64, st.integers(12, 400), elements=st.floats(-0.1, 0.1))
           .filter(lambda r: np.var(r) > 0),
           omega=st.floats(1e-8, 1e-3), alpha=st.floats(0.0, 0.3),
           beta=st.floats(0.0, 0.69), gamma=st.floats(1e-6, 0.3),
           mu=st.floats(-0.01, 0.01), seeded=st.booleans())
    def test_matches_loop(self, r, omega, alpha, beta, gamma, mu, seeded):
        sigma2_0 = 2e-4 if seeded else None
        assert np.array_equal(
            variance_path(Innovations(r, mu), omega, alpha, beta, gamma, sigma2_0),
            variance_path_loop(r, omega, alpha, beta, gamma, mu, sigma2_0))

    @settings(max_examples=100, deadline=None)
    @given(r=arrays(np.float64, st.integers(12, 400), elements=st.floats(-0.1, 0.1))
           .filter(lambda r: np.var(r) > 0),
           omega=st.floats(1e-8, 1e-3), alpha=st.floats(0.0, 0.3),
           beta=st.floats(0.0, 0.69), gamma=st.floats(0.0, 0.3),
           mu=st.floats(-0.01, 0.01))
    def test_loglik_matches_formula(self, r, omega, alpha, beta, gamma, mu):
        s2 = variance_path_loop(r, omega, alpha, beta, gamma, mu)
        eps = r - mu
        expect = float(-0.5 * np.sum(_LOG_2PI + np.log(s2) + eps * eps / s2))
        assert garch_loglik((omega, alpha, beta, gamma, mu), r).hex() == expect.hex()

    def test_loglik_seed_defaults_to_sample_variance(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=200, seed=4)).returns
        params = (1e-5, 0.1, 0.85, 0.05, 0.0)
        assert garch_loglik(params, r) == garch_loglik(params, r, float(np.var(r)))


class TestInnovations:
    """variance_path on a holder runs the per-step recursion on the raw
    returns, bit for bit, and fails where it has a non-positive variance."""

    @settings(max_examples=150, deadline=None)
    @given(r=arrays(np.float64, st.integers(12, 400), elements=st.floats(-0.1, 0.1))
           .filter(lambda r: np.var(r) > 0),
           omega=st.floats(1e-8, 1e-3), alpha=st.floats(0.0, 0.3),
           beta=st.floats(0.0, 0.69),
           gamma=st.sampled_from([0.0, -0.0]) | st.floats(1e-6, 0.3),
           mu=st.floats(-0.01, 0.01), seeded=st.booleans())
    def test_holder_matches_loop(self, r, omega, alpha, beta, gamma, mu, seeded):
        sigma2_0 = 2e-4 if seeded else None
        inn = Innovations(r, mu)
        assert len(inn) == len(r)
        want = variance_path_loop(r, omega, alpha, beta, gamma, mu, sigma2_0).tobytes()
        assert variance_path(inn, omega, alpha, beta, gamma, sigma2_0).tobytes() == want

    @settings(max_examples=100, deadline=None)
    @given(r=arrays(np.float64, st.integers(1, 50), elements=st.floats(-0.1, 0.1)),
           mu=st.sampled_from([0.0, -0.0, math.nan]) | st.floats(-0.01, 0.01))
    def test_sq_is_the_squared_innovations(self, r, mu):
        assert Innovations(r, mu).sq.tobytes() == ((r - mu) * (r - mu)).tobytes()

    @pytest.mark.parametrize("omega,alpha,beta,gamma", [
        (-1e-3, 0.05, 0.85, 0.0),
        (1e-6, -0.9, 0.0, 0.0),
        (1e-6, 0.05, -0.5, 0.0),
        (1e-6, 0.1, 0.0, -0.9),
        (math.exp(-800.0), 0.0, 0.0, 0.0),
    ], ids=["omega", "alpha", "beta", "alpha_plus_gamma", "omega_underflows"])
    @pytest.mark.parametrize("prepared", [False, True], ids=["raw", "prepared"])
    def test_non_positive_variance_raises(self, omega, alpha, beta, gamma, prepared):
        # raw returns reach the recursion through the holder garch_loglik builds
        r = np.array([0.1, -0.1] * 10)
        assert (variance_path_loop(r, omega, alpha, beta, gamma, 0.0) <= 0).any()
        with pytest.raises(FitError, match="non-positive"):
            if prepared:
                variance_path(Innovations(r, 0.0), omega, alpha, beta, gamma)
            else:
                garch_loglik((omega, alpha, beta, gamma, 0.0), r)

    def test_fit_builds_one_holder_for_every_evaluation(self, monkeypatch):
        seen = []

        def recording(returns, *args):
            seen.append(returns)
            return variance_path(returns, *args)

        monkeypatch.setattr(garch, "variance_path", recording)
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=60, seed=3)).returns
        garch_fit(r)
        assert seen and all(x is seen[0] for x in seen)
        assert isinstance(seen[0], Innovations) and len(seen[0]) == len(r)


class TestLoglik:
    def test_matches_hand_formula(self):
        r = np.array([0.01, -0.02, 0.015, 0.0, 0.005, -0.01, 0.02, 0.0,
                      -0.005, 0.01])
        params = (1e-5, 0.1, 0.8, 0.0, 0.001)
        s2 = variance_path(Innovations(r, 0.001), *params[:4])
        eps = r - 0.001
        expect = -0.5 * np.sum(_LOG_2PI + np.log(s2) + eps ** 2 / s2)
        assert garch_loglik(params, r) == pytest.approx(expect, rel=1e-12)

    def test_too_few_returns(self):
        with pytest.raises(DataError):
            garch_loglik((1e-5, 0.1, 0.8, 0.0, 0.0), np.zeros(5) + 0.01)


class TestStepAndForecast:
    def test_step_substitution(self):
        # 1e-5 + 0.1*0.0004 + 0.8*0.0001
        s2 = variance_path(Innovations([0.02, 0.0], 0.0), 1e-5, 0.1, 0.8, 0.0, sigma2_0=1e-4)
        assert s2[1] == pytest.approx(1.3e-4, rel=1e-12)

    def test_forecast_path_matches_manual_loop(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=300, seed=3)).returns
        m = garch_fit(r[:200])
        path = garch_forecast_path(m, r, 200, 300)
        s2 = variance_path(Innovations(r, m.mu), m.omega, m.alpha, m.beta, m.gamma,
                           sigma2_0=float(np.var(r[:200])))
        for k, t in enumerate(range(200, 300)):
            assert path[k] == pytest.approx(
                math.sqrt(garch_step(m, r[t - 1], s2[t - 1])), rel=1e-12)

    @pytest.mark.parametrize("start", [2, 5, 100])
    def test_forecast_path_ignores_returns_from_stop_on(self, start):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=300, seed=3)).returns
        m = GarchModel(1e-5, 0.1, 0.85, 0.05, 0.0, 0.0, flavor="gjr")
        stop = start + 20
        path = garch_forecast_path(m, r, start, stop)
        later = r.copy()
        later[stop:] *= -3.0
        assert garch_forecast_path(m, later, start, stop).tobytes() == path.tobytes()

    @pytest.mark.parametrize("start", [0, 1])
    def test_forecast_path_needs_two_seed_returns(self, start):
        m = GarchModel(1e-5, 0.1, 0.85, 0.0, 0.0, 0.0)
        with pytest.raises(DataError, match="start >= 2"):
            garch_forecast_path(m, np.full(50, 0.01), start, 10)


class TestFit:
    def test_parameter_recovery(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=5000, seed=42)).returns
        m = garch_fit(r)
        assert m.alpha == pytest.approx(0.1, abs=0.05)
        assert m.beta == pytest.approx(0.85, abs=0.08)
        assert m.persistence < 1.0
        # fitted likelihood can never be below the generator's own params
        assert m.loglik >= garch_loglik((1e-5, 0.1, 0.85, 0.0, 0.0), r) - 1e-6

    def test_local_optimality_on_grid(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=2000, seed=7)).returns
        m = garch_fit(r)
        best = m.loglik
        for do in np.linspace(-0.2, 0.2, 5):
            for da in np.linspace(-0.02, 0.02, 5):
                for db in np.linspace(-0.02, 0.02, 5):
                    omega = m.omega * math.exp(do)
                    alpha = m.alpha + da
                    beta = m.beta + db
                    if alpha < 0 or beta < 0 or alpha + beta >= 0.9995:
                        continue
                    ll = garch_loglik((omega, alpha, beta, 0.0, m.mu), r)
                    assert ll <= best + 1e-6

    def test_scale_equivariance(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=1500, seed=9)).returns
        m1 = garch_fit(r)
        c = 3.0
        m2 = garch_fit(c * r)
        assert m2.omega == pytest.approx(c * c * m1.omega, rel=0.05)
        assert m2.alpha == pytest.approx(m1.alpha, abs=0.01)
        assert m2.beta == pytest.approx(m1.beta, abs=0.01)

    def test_iid_data_low_arch(self):
        r = np.random.default_rng(11).standard_normal(3000) * 0.01
        m = garch_fit(r)
        assert m.alpha + m.beta < 0.9995
        assert m.alpha < 0.15

    def test_gjr_gamma_near_zero_on_symmetric_data(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=4000, seed=13)).returns
        m = garch_fit(r, flavor="gjr")
        assert m.flavor == "gjr"
        assert abs(m.gamma) < 0.1

    def test_gjr_recovers_asymmetry(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.03, 0.85, gamma=0.12,
                                        length=6000, seed=17)).returns
        m = garch_fit(r, flavor="gjr")
        assert m.gamma > 0.04

    def test_gjr_beta_does_not_round_below_zero(self):
        # alpha and gamma take all the weight here: s * (1 - wa - wg) rounded
        # to -2.28e-18 and GarchModel rejected the fit
        rng = np.random.default_rng(4294967295)
        r = 0.01 * rng.standard_normal(105) * np.exp(0.5 * rng.standard_normal(105))
        m = garch_fit(r, flavor="gjr")
        assert m.beta >= 0
        assert m.persistence < 1

    def test_too_few_returns(self):
        with pytest.raises(DataError):
            garch_fit(np.ones(20) * 0.01)

    def test_deterministic_refit(self):
        r = simulate_garch(GarchSimSpec(1e-5, 0.1, 0.85, length=800, seed=21)).returns
        assert garch_fit(r) == garch_fit(r)


class TestModelValidation:
    def test_nonstationary_rejected(self):
        with pytest.raises(DataError, match="stationarity"):
            GarchModel(1e-5, 0.5, 0.6, 0.0, 0.0, 0.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(DataError):
            GarchModel(-1e-5, 0.1, 0.8, 0.0, 0.0, 0.0)

    def test_gjr_persistence_counts_half_gamma(self):
        m = GarchModel(1e-5, 0.05, 0.8, 0.1, 0.0, 0.0, flavor="gjr")
        assert m.persistence == pytest.approx(0.9)

    def test_dump_contains_parameters(self):
        m = GarchModel(1e-5, 0.1, 0.8, 0.0, 0.0, -123.0)
        d = m.dump()
        assert "model=garch" in d and "omega=1e-05" in d and "beta=0.8" in d


def garch_fit_oracle(returns, flavor):
    """A GARCH fit whose objective redoes every step on every evaluation:
    _unpack, then garch_loglik on the returns."""
    r = np.asarray(returns, dtype=float)
    var = float(np.var(r))
    mu = float(np.mean(r))
    include_gamma = flavor == "gjr"

    def neg_ll(x):
        omega, alpha, beta, gamma = _unpack(x, include_gamma)
        try:
            return -garch_loglik((omega, alpha, beta, gamma, mu), r, var)
        except (FitError, OverflowError):
            return 1e12

    s0 = 0.90
    x0 = [math.log(var * (1 - s0)),
          math.log(s0 / _MAX_PERSISTENCE / (1 - s0 / _MAX_PERSISTENCE)),
          math.log((0.05 / s0) / (1 - 0.05 / s0))]
    if include_gamma:
        x0 = x0[:2] + [math.log(0.05 / 0.85), math.log(0.025 / 0.85)]
    x_best, f_best, _ = minimize_simplex(neg_ll, np.array(x0))
    x_best, f_best, _ = minimize_simplex(neg_ll, x_best)
    if f_best >= 1e12:
        raise FitError("GARCH fit failed to reach a finite likelihood")
    omega, alpha, beta, gamma = _unpack(x_best, include_gamma)
    ll = garch_loglik((omega, alpha, beta, gamma, mu), r, var)
    return GarchModel(omega, alpha, beta, gamma, mu, ll, flavor)


def fit_outcome(fit, r, flavor):
    """The fitted bits, or the error a fit raised."""
    try:
        m = fit(r, flavor)
    except (DataError, FitError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in (m.omega, m.alpha, m.beta, m.gamma, m.mu, m.loglik)]


def assert_fit_matches_oracle(r, flavor):
    assert fit_outcome(garch_fit, r, flavor) == fit_outcome(garch_fit_oracle, r, flavor)


class TestGarchObjectiveOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(30, 200),
           scale=st.sampled_from([1e-3, 1e-2, 1.0]), flavor=st.sampled_from(["garch", "gjr"]))
    def test_fit_matches_unhoisted_objective(self, seed, n, scale, flavor):
        rng = np.random.default_rng(seed)
        r = scale * rng.standard_normal(n) * np.exp(0.5 * rng.standard_normal(n))
        assert_fit_matches_oracle(r, flavor)

    @pytest.mark.parametrize("flavor", ["garch", "gjr"])
    def test_fit_through_the_plateau_matches(self, flavor, monkeypatch):
        # zero returns after a burst pull omega toward 0; once it underflows the
        # variance path fails and the objective returns its 1e12 plateau
        r = np.array([0.01, -0.01] * 5 + [0.0] * 40)
        values = []

        def recording(fn, x0, max_iter=None):
            def f(x):
                values.append(fn(x))
                return values[-1]
            return minimize_simplex(f, x0, max_iter)

        monkeypatch.setattr(garch, "minimize_simplex", recording)
        assert_fit_matches_oracle(r, flavor)
        assert 1e12 in values
