import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm
from scipy.stats import t as student_t

from volforge.errors import DataError
from volforge.evaluation import (DmResult, ForecastRecord,
                                 build_report, dm_test, point_metrics,
                                 report_csv, report_text, var_estimate)

ROOT = Path(__file__).resolve().parent.parent


def rec(model_id, actual, predicted):
    return ForecastRecord(model_id, np.asarray(actual, dtype=float),
                          np.asarray(predicted, dtype=float))


class TestPointMetrics:
    def test_hand_example(self):
        m = point_metrics(rec("m", [1.0, 2.0], [2.0, 4.0]))
        assert m["MSE"] == pytest.approx(2.5)
        assert m["RMSE"] == pytest.approx(1.5811388, abs=1e-6)
        assert m["MAE"] == pytest.approx(1.5)
        assert m["MAPE"] == pytest.approx(100.0)

    def test_outlier_sensitivity(self):
        # one 10-unit miss among nine perfect hits
        actual = np.ones(10)
        pred = np.ones(10)
        pred[0] = 11.0
        m = point_metrics(rec("m", actual, pred))
        assert m["MSE"] == pytest.approx(10.0)
        assert m["MAE"] == pytest.approx(1.0)

    def test_perfect_forecast_zeros(self):
        m = point_metrics(rec("m", [0.01, 0.02, 0.03], [0.01, 0.02, 0.03]))
        assert m["MSE"] == 0.0 and m["MAE"] == 0.0 and m["MAPE"] == 0.0

    def test_mape_rejects_zero_actual(self):
        m = point_metrics(rec("m", [0.0, 1.0], [1.0, 1.0]))
        assert math.isnan(m["MAPE"])

    @given(st.lists(st.tuples(st.floats(0.001, 10), st.floats(0.001, 10)),
                    min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_identities(self, pairs):
        a = [p[0] for p in pairs]
        p = [q[1] for q in pairs]
        m = point_metrics(rec("m", a, p))
        assert m["RMSE"] ** 2 == pytest.approx(m["MSE"], rel=1e-10)
        assert m["MAE"] <= m["RMSE"] + 1e-12


class TestForecastRecord:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            rec("m", [1.0, 2.0], [1.0])

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            rec("m", [1.0, math.nan], [1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(DataError):
            rec("m", [1.0], [1.0])


def brute_force_dm(e1, e2, loss):
    d = e1 ** 2 - e2 ** 2 if loss == "squared" else np.abs(e1) - np.abs(e2)
    T = len(d)
    dbar = d.mean()
    g0 = np.mean((d - dbar) ** 2)
    stat = dbar / math.sqrt(g0 / T)
    stat *= math.sqrt((T + 1 - 2 + 0) / T)
    p = 2 * student_t.sf(abs(stat), T - 1)
    return stat, p


class TestDmTest:
    def make_pair(self, seed=0, T=100):
        rng = np.random.default_rng(seed)
        actual = np.abs(rng.standard_normal(T)) + 1.0
        p1 = actual + 0.3 * rng.standard_normal(T)
        p2 = actual + 0.5 * rng.standard_normal(T)
        return rec("a", actual, p1), rec("b", actual, p2)

    @pytest.mark.parametrize("loss", ["squared", "absolute"])
    def test_matches_brute_force(self, loss):
        r1, r2 = self.make_pair()
        out = dm_test(r1, r2, loss=loss)
        stat, p = brute_force_dm(r1.actual - r1.predicted,
                                 r2.actual - r2.predicted, loss)
        assert out.statistic == pytest.approx(stat, abs=1e-10)
        assert out.p_value == pytest.approx(p, abs=1e-10)

    def test_antisymmetry(self):
        r1, r2 = self.make_pair(seed=3)
        a = dm_test(r1, r2)
        b = dm_test(r2, r1)
        assert a.statistic == pytest.approx(-b.statistic, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_identical_forecasts_rejected(self):
        a = np.linspace(1, 2, 50)
        r1 = rec("a", a, a * 1.1)
        r2 = rec("b", a, a * 1.1)
        with pytest.raises(DataError, match="indistinguishable"):
            dm_test(r1, r2)

    def test_different_windows_rejected(self):
        a = np.linspace(1, 2, 50)
        r1 = rec("a", a, a * 1.1)
        r2 = rec("b", a + 0.01, a * 1.2)
        with pytest.raises(DataError, match="window"):
            dm_test(r1, r2)

    def test_too_short_rejected(self):
        a = np.linspace(1, 2, 5)
        with pytest.raises(DataError, match="at least 10"):
            dm_test(rec("a", a, a * 1.1), rec("b", a, a * 1.3))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(10, 300),
           st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_p_value_equals_scipy_stats(self, seed, T, s1, s2):
        # scipy.stats is the oracle here only; the module computes with scipy.special
        rng = np.random.default_rng(seed)
        actual = np.abs(rng.standard_normal(T)) + 1.0
        r1 = rec("a", actual, actual + s1 * rng.standard_normal(T))
        r2 = rec("b", actual, actual + s2 * rng.standard_normal(T))
        for loss in ("squared", "absolute"):
            out = dm_test(r1, r2, loss=loss)
            assert out.p_value == 2.0 * float(student_t.sf(abs(out.statistic), T - 1))

    def test_clearly_better_model_is_significant(self):
        rng = np.random.default_rng(11)
        actual = np.abs(rng.standard_normal(252)) + 1.0
        good = rec("good", actual, actual + 0.05 * rng.standard_normal(252))
        bad = rec("bad", actual, actual + 1.0 * rng.standard_normal(252))
        out = dm_test(good, bad)
        assert out.statistic < 0 and out.p_value / 2 < 0.01


class TestVar:
    def test_scaling_example(self):
        # 1.6448536 * 0.1 * sqrt(10)
        assert var_estimate(0.1) == pytest.approx(1.6448536 * 0.1 * math.sqrt(10),
                                                  abs=1e-6)
        assert var_estimate(0.1) == pytest.approx(0.5201484, abs=1e-6)

    def test_components(self):
        assert var_estimate(0.2, horizon_periods=1, confidence=0.95) == \
            pytest.approx(float(norm.ppf(0.95)) * 0.2, abs=1e-12)
        assert var_estimate(0.1, horizon_periods=4) == \
            pytest.approx(2 * var_estimate(0.1, horizon_periods=1), abs=1e-12)

    @given(st.floats(0.0, 10.0), st.integers(1, 500),
           st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_stats(self, sigma, horizon, confidence):
        assert var_estimate(sigma, horizon, confidence) == \
            float(norm.ppf(confidence)) * sigma * math.sqrt(horizon)

    def test_zero_sigma(self):
        assert var_estimate(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            var_estimate(-0.1)
        with pytest.raises(DataError):
            var_estimate(0.1, confidence=0.4)
        with pytest.raises(DataError):
            var_estimate(0.1, horizon_periods=0)


class TestReport:
    def records(self):
        rng = np.random.default_rng(0)
        actual = np.abs(rng.standard_normal(60)) * 0.01 + 0.01
        return [rec("naive", actual, np.roll(actual, 1)),
                rec("har", actual, actual + 0.001 * rng.standard_normal(60)),
                rec("lstm", actual, actual + 0.002 * rng.standard_normal(60))]

    def test_reference_row_has_no_dm(self):
        rep = build_report(self.records(), reference="lstm")
        by_id = {r.model_id: r for r in rep.rows}
        assert by_id["lstm"].dm_squared is None
        assert isinstance(by_id["har"].dm_squared, DmResult)

    def test_best_flags(self):
        rep = build_report(self.records(), reference="lstm")
        by_id = {r.model_id: r for r in rep.rows}
        assert by_id["har"].best_mse and by_id["har"].best_mae

    def test_var_uses_last_forecast(self):
        recs = self.records()
        rep = build_report(recs, reference="naive")
        by_id = {r.model_id: r for r in rep.rows}
        for r in recs:
            assert by_id[r.model_id].var_10d == pytest.approx(
                var_estimate(float(r.predicted[-1])), abs=1e-12)

    def test_negative_last_forecast_leaves_var_blank(self):
        recs = self.records()
        pred = recs[1].predicted.copy()
        pred[-1] = -0.001
        recs[1] = rec("har", recs[1].actual, pred)
        rep = build_report(recs, reference="naive")
        by_id = {r.model_id: r for r in rep.rows}
        assert math.isnan(by_id["har"].var_10d)
        assert by_id["lstm"].var_10d == var_estimate(float(recs[2].predicted[-1]))
        har_csv = report_csv(rep).splitlines()[2].split(",")
        assert har_csv[0] == "har" and har_csv[9] == ""
        har_txt = report_text(rep).splitlines()[2].split()
        assert har_txt[0].startswith("har") and har_txt[-1] == "--"

    def test_csv_scaling_conventions(self):
        actual = np.full(20, 0.02) + np.linspace(0, 0.001, 20)
        pred = actual + 0.00114  # MSE 1.2996e-6 -> 0.12996 in e-05 units
        rep = build_report([rec("m", actual, pred)], reference="m")
        line = report_csv(rep).splitlines()[1].split(",")
        assert float(line[1]) == pytest.approx(0.00114 ** 2 * 1e5, rel=1e-6)
        assert float(line[2]) == pytest.approx(0.00114 * 1e3, rel=1e-6)
        assert float(line[3]) == pytest.approx(0.00114 * 1e3, rel=1e-6)
        # reference model DM columns print ***
        assert line[5] == "***" and line[8] == "***"

    def test_scaling_example_131(self):
        # mse of 1.31e-4 must print as 13.1 under the e-05 convention
        actual = np.zeros(20) + 1.0
        pred = actual + math.sqrt(1.31e-4)
        rep = build_report([rec("m", actual, pred)], reference="m")
        line = report_csv(rep).splitlines()[1].split(",")
        assert float(line[1]) == pytest.approx(13.1, rel=1e-9)

    def test_failures_rendered(self):
        rep = build_report(self.records(), reference="naive",
                           failures=(("garch", "fit diverged"),))
        csv = report_csv(rep)
        txt = report_text(rep)
        assert "garch,FAILED: fit diverged" in csv
        assert "FAILED: fit diverged" in txt

    def test_mismatched_windows_rejected(self):
        a = np.linspace(1, 2, 30)
        with pytest.raises(DataError, match="window"):
            build_report([rec("a", a, a * 1.1), rec("b", a + 1, a)], reference="a")

    def test_unknown_reference_rejected(self):
        with pytest.raises(DataError, match="reference"):
            build_report(self.records(), reference="nope")

    def test_text_report_header(self):
        txt = report_text(build_report(self.records(), reference="naive"))
        assert txt.splitlines()[0].startswith("Model")
        assert "MSE(e-05)" in txt and "VaR 10d" in txt

    def test_renderers_share_the_table_conventions(self):
        # a reference row, a zero actual (MAPE blank), a negative last
        # forecast (VaR blank) and a failure, in both renderers
        rng = np.random.default_rng(3)
        actual = np.abs(rng.standard_normal(40)) * 0.01 + 0.01
        actual[5] = 0.0
        negative_last = actual + 0.002 * rng.standard_normal(40)
        negative_last[-1] = -0.001
        rep = build_report([rec("naive", actual, np.roll(actual, 1)),
                            rec("har", actual, negative_last),
                            rec("lstm", actual, actual + 0.001 * rng.standard_normal(40))],
                           reference="naive", failures=(("garch", "fit diverged"),))

        def cells(r, digits, blank):
            def fmt(x):
                return blank if math.isnan(x) else f"{x:.{digits}f}"
            dm = []
            for d in (r.dm_squared, r.dm_absolute):
                dm += ["***", "***"] if d is None else [f"{d.statistic:.6f}", f"{d.p_value:.6f}"]
            return ([r.model_id, f"{r.mse * 1e5:.{digits}f}", f"{r.rmse * 1e3:.{digits}f}",
                     f"{r.mae * 1e3:.{digits}f}", fmt(r.mape)] + dm + [fmt(r.var_10d)])

        naive, har, lstm = rep.rows
        assert naive.dm_squared is None and naive.dm_absolute is None
        assert har.dm_squared is not None and lstm.dm_absolute is not None
        assert all(math.isnan(r.mape) for r in rep.rows)
        assert math.isnan(har.var_10d) and not math.isnan(lstm.var_10d)
        assert lstm.best_mse and not naive.best_mse and not naive.best_mae

        csv = report_csv(rep).splitlines()
        assert csv[0] == ("model,mse_e05,rmse_e03,mae_e03,mape,dm_stat_squared,dm_p_squared,"
                          "dm_stat_absolute,dm_p_absolute,var_10d,best_mse,best_mae")
        for r, line in zip(rep.rows, csv[1:]):
            assert line.split(",") == (cells(r, 6, "")
                                       + [str(int(r.best_mse)), str(int(r.best_mae))])
        assert csv[1].split(",")[5:9] == ["***"] * 4
        assert csv[2].split(",")[4] == "" and csv[2].split(",")[9] == ""
        assert csv[4:] == ["garch,FAILED: fit diverged,,,,,,,,,,"]

        table = [["Model", "MSE(e-05)", "RMSE(e-03)", "MAE(e-03)", "MAPE",
                  "DM(sq)", "p(sq)", "DM(abs)", "p(abs)", "VaR 10d"]]
        for r in rep.rows:
            row = cells(r, 4, "--")
            row[0] += "*" if r.best_mse or r.best_mae else ""
            table.append(row)
        table.append(["garch", "FAILED: fit diverged"] + [""] * 8)
        assert table[2][4] == "--" and table[2][9] == "--" and table[3][0] == "lstm*"
        assert table[1][0] == "naive" and table[1][5:9] == ["***"] * 4
        widths = [max(len(row[i]) for row in table) for i in range(10)]
        assert report_text(rep) == "".join(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
            for row in table)


# scipy.stats and scipy.optimize are oracles of the tests only; the program
# computes with its own simplex, and with scipy.special, which only the first
# DM p-value or VaR imports
@pytest.mark.parametrize("package", ["scipy.stats", "scipy.optimize", "scipy.special", "scipy"])
def test_cli_import_skips_scipy_package(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, volforge.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[:2] == {package.split('.')}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verbs_without_a_report_load_no_scipy(tmp_path):
    sim_cfg, ing_cfg = tmp_path / "sim.cfg", tmp_path / "ing.cfg"
    sim_cfg.write_text("synth.kind = gbm\nsynth.buckets = 5\nsynth.steps_per_bucket = 20\n")
    ing_cfg.write_text(f"data.source = csv\ndata.csv = {tmp_path / 'sim' / 'prices.csv'}\n")
    argvs = [["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "sim")],
             ["ingest", "--config", str(ing_cfg), "--out", str(tmp_path / "ing")],
             ["gradcheck"]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys; from volforge import cli; "
            f"codes = [cli.main(argv) for argv in {argvs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
    assert (tmp_path / "ing" / "rv.csv").read_text().count("\n") == 6
