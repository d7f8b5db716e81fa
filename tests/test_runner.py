import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volforge import classical, runner
from volforge.cli import EXIT_CONFIG, EXIT_DATA, EXIT_MODEL, EXIT_OK, main
from volforge.errors import ConfigError
from volforge.evaluation import ForecastRecord
from volforge.runner import (ALL_MODELS, MODELS, Data, ExperimentConfig,
                             config_from_mapping, emit_plot_data, parse_config,
                             run_experiment)
from volforge.series import PriceSeries, write_price_csv
from volforge.synth import GbmSpec, simulate_gbm, simulate_log_vol_cascade

CASCADE_CONFIG = """
data.source = synth
synth.kind = cascade
synth.length = 700
synth.noise_sd = 0.3
split.validation = 100
split.test = 100
models = naive,har
selection.metric = MSE
seed = 0
"""


def write_config(tmp_path, text=CASCADE_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rv(path):
    """The values of a `period,rv` CSV that write_rv_csv wrote."""
    return [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.source == "synth"
        assert cfg.synth_kind == "cascade"
        assert dict(cfg.synth_params)["length"] == 700
        assert cfg.validation_len == 100 and cfg.test_len == 100
        assert cfg.models == ("naive", "har")

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, "# a comment\n\nmodels = naive\nseed = 3\n"))
        assert cfg.models == ("naive",) and cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"bogus.key": "1"})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            config_from_mapping({"models": "naive,prophet"})

    def test_csv_source_requires_path(self):
        with pytest.raises(ConfigError, match="data.csv"):
            config_from_mapping({"data.source": "csv", "models": "naive"})

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(write_config(tmp_path, "models naive\n"))

    def test_ewma_grid_expansion(self):
        cfg = config_from_mapping({"models": "ewma", "ewma.grid": "0.1:0.3:0.1"})
        assert cfg.ewma_grid == (0.1, 0.2, 0.3)

    def test_rnn_window_ranges(self):
        cfg = config_from_mapping({"models": "lstm", "rnn.windows": "1-3,10"})
        assert cfg.rnn_windows == (1, 2, 3, 10)

    def test_ranges_expand_up_to_their_cap(self):
        # the longest range of each key parses; one element more is refused unexpanded
        cfg = config_from_mapping({"models": "lstm", "rnn.windows": "1-50"})
        assert cfg.rnn_windows == tuple(range(1, 51))
        with pytest.raises(ConfigError, match="rnn.windows range 1-51 holds 51 windows"):
            config_from_mapping({"rnn.windows": "1-51"})
        cfg = config_from_mapping({"models": "ewma", "ewma.grid": "0.0001:0.99:0.0001"})
        assert len(cfg.ewma_grid) == runner.MAX_EWMA_GRID == 9900
        with pytest.raises(ConfigError, match="ewma.grid 0.0001:0.9901:0.0001 holds 9901"):
            config_from_mapping({"ewma.grid": "0.0001:0.9901:0.0001"})

    def test_reference_defaults_to_last_model(self):
        cfg = config_from_mapping({"models": "naive,har,ewma"})
        assert cfg.reference_model == "ewma"
        cfg2 = config_from_mapping({"models": "naive,har", "reference": "naive"})
        assert cfg2.reference_model == "naive"
        with pytest.raises(ConfigError, match="not enabled"):
            config_from_mapping({"models": "naive", "reference": "har"}).reference_model

    def test_hash_stability_and_sensitivity(self):
        a = ExperimentConfig(models=("naive",))
        b = ExperimentConfig(models=("naive",))
        c = ExperimentConfig(models=("naive",), seed=1)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 64

    def test_equal_configs_hash_equally(self):
        # the default grid holds numpy floats, the parsed one Python floats
        a = ExperimentConfig()
        b = config_from_mapping({"ewma.grid": "0.01:0.99:0.01"})
        assert a == b
        assert a.hash() == b.hash()

    def test_synth_values_take_their_default_types(self, tmp_path):
        a = ExperimentConfig(synth_kind="cascade", synth_params=(("length", 1500),))
        b = ExperimentConfig(synth_kind="cascade", synth_params=(("length", 1500.0),))
        c = parse_config(write_config(
            tmp_path, "synth.kind = cascade\nsynth.noise_sd = 1\nsynth.length = 1500.0\n"))
        assert a == b and a.hash() == b.hash()
        assert c.synth_params == (("length", 1500), ("noise_sd", 1.0))
        assert [type(v) for _, v in c.synth_params] == [int, float]

    def test_non_integral_synth_count_rejected(self):
        with pytest.raises(ConfigError, match="synth.buckets must be an integer"):
            ExperimentConfig(synth_params=(("buckets", 2.5),))


class TestRunExperiment:
    def small_config(self, models=("naive", "har"), **kw):
        return ExperimentConfig(
            source="synth", synth_kind="cascade",
            synth_params=(("length", 700), ("noise_sd", 0.3)),
            validation_len=100, test_len=100, models=models, seed=0, **kw)

    def test_naive_forecasts_match_oracle(self):
        rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                      length=700, seed=0).rv
        report_v, report_t, _ = run_experiment(self.small_config(models=("naive",)))
        row = report_t.rows[0]
        # naive MAE on the last 100 points equals mean |rv_t - rv_{t-1}|
        test = rv[-100:]
        prev = rv[-101:-1]
        assert row.mae == pytest.approx(float(np.mean(np.abs(test - prev))), rel=1e-12)
        assert row.mse == pytest.approx(float(np.mean((test - prev) ** 2)), rel=1e-12)

    def test_rerun_byte_identical_outputs(self, tmp_path):
        cfg = self.small_config()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=d1)
        run_experiment(cfg, out_dir=d2)
        for name in ("validation_report.csv", "test_report.csv", "manifest.txt"):
            t1 = (d1 / name).read_text()
            t2 = (d2 / name).read_text()
            if name == "manifest.txt":
                # timing lines are wall-clock; strip them before comparing
                t1 = "\n".join(l for l in t1.splitlines() if not l.startswith("timing."))
                t2 = "\n".join(l for l in t2.splitlines() if not l.startswith("timing."))
            assert t1 == t2, name

    def test_failure_isolation(self):
        # 80 buckets of training leaves fewer than the 10*(p+q+1) ARIMA
        # minimum for the larger orders but naive still runs
        cfg = ExperimentConfig(
            source="synth", synth_kind="cascade",
            synth_params=(("length", 120), ("noise_sd", 0.3)),
            validation_len=30, test_len=30, models=("garch", "naive"),
            har_lags=(1, 2, 3), seed=0)
        report_v, report_t, _ = run_experiment(cfg)
        ids = [r.model_id for r in report_t.rows]
        assert "naive" in ids
        if "garch" not in ids:
            assert any(m == "garch" for m, _ in report_t.failures)

    def test_all_models_failed_raises(self):
        cfg = ExperimentConfig(
            source="synth", synth_kind="cascade",
            synth_params=(("length", 120), ("noise_sd", 0.0)),
            validation_len=30, test_len=30, models=("arima",),
            arima_orders=((3, 1, 3),), har_lags=(1, 2, 3), seed=0)
        from volforge.errors import FitError
        with pytest.raises(FitError, match="all enabled models failed"):
            run_experiment(cfg)

    def test_report_files_written(self, tmp_path):
        run_experiment(self.small_config(), out_dir=tmp_path)
        for name in ("validation_report.csv", "validation_report.txt",
                     "test_report.csv", "test_report.txt", "manifest.txt"):
            assert (tmp_path / name).exists(), name
        assert (tmp_path / "plots" / "naive_test.csv").exists()
        assert (tmp_path / "plots" / "har_validation.csv").exists()

    def test_manifest_contents(self, tmp_path):
        _, _, manifest = run_experiment(self.small_config(), out_dir=tmp_path)
        text = (tmp_path / "manifest.txt").read_text()
        assert f"config_hash={self.small_config().hash()}" in text
        assert "version.numpy=" in text
        assert "param.har.model=har" in text
        assert "timing.naive=" in text

    def test_manifest_names_numpy_simd_dispatch(self, tmp_path):
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        run_experiment(self.small_config(), out_dir=tmp_path)
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        features = ",".join(f for f in __cpu_dispatch__ if __cpu_features__[f])
        assert f"version.numpy_simd={features}" in lines

    def test_manifest_dumps_the_ewma_model_the_test_path_runs(self):
        cfg = self.small_config(models=("ewma",))
        _, _, manifest = run_experiment(cfg)
        rv, _ = runner._load_data(cfg)
        trainval = rv.rv[:len(rv) - cfg.test_len]
        dump = dict(manifest.model_params)["ewma"].splitlines()
        assert f"sigma2_0={float(np.mean(trainval ** 2))!r}" in dump

    def test_arima_fits_each_candidate_once_and_refits_once(self, monkeypatch):
        calls = []
        fit = classical.arima_fit

        def counting(*args, **kwargs):
            calls.append(args[1])
            return fit(*args, **kwargs)

        monkeypatch.setattr(classical, "arima_fit", counting)
        orders = ((0, 0, 1), (1, 0, 0), (1, 1, 1))
        run_experiment(self.small_config(models=("arima",), arima_orders=orders))
        assert len(calls) == len(orders) + 1

    def test_gbm_source_with_garch(self):
        cfg = ExperimentConfig(
            source="synth", synth_kind="gbm",
            synth_params=(("buckets", 160), ("steps_per_bucket", 39)),
            validation_len=40, test_len=40, models=("naive", "garch"),
            har_lags=(1, 2, 3), seed=0)
        report_v, report_t, _ = run_experiment(cfg)
        assert {r.model_id for r in report_t.rows} == {"naive", "garch"}
        for row in report_t.rows:
            assert math.isfinite(row.mse)


def dict_bucket_closes(prices, aggregation, labels):
    """Oracle: one strftime label per price; the last price of a label wins."""
    fmt = {"hour": "%Y-%m-%dT%H", "day": "%Y-%m-%d", "month": "%Y-%m"}[aggregation]
    closes = {}
    for t, p in zip(prices.timestamps, prices.prices):
        closes[datetime.fromtimestamp(int(t), tz=timezone.utc).strftime(fmt)] = p
    return np.array([closes[l] for l in labels])


class TestBucketReturns:
    @pytest.mark.parametrize("aggregation", ["hour", "day", "month"])
    @pytest.mark.parametrize("gaps", ["gbm", "irregular"])
    def test_match_dict_oracle(self, tmp_path, aggregation, gaps):
        prices, _ = simulate_gbm(GbmSpec(buckets=70, steps_per_bucket=39, seed=4))
        if gaps == "irregular":
            rng = np.random.default_rng(4)
            # from 2024-01-31T23:50Z, gaps up to three days: crosses Feb 29
            ts = 1706745000 + np.cumsum(rng.integers(1, 3 * 86400, size=len(prices)))
            prices = PriceSeries(ts, prices.prices)
        path = tmp_path / "prices.csv"
        write_price_csv(prices, path)
        cfg = ExperimentConfig(source="csv", csv_path=str(path), aggregation=aggregation)
        rv, bucket_returns = runner._load_data(cfg)
        closes = dict_bucket_closes(prices, aggregation, rv.period_labels)
        assert bucket_returns.tobytes() == np.diff(np.log(closes)).tobytes()


class TestPlotData:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        actual = np.abs(rng.standard_normal(10)) + 0.5
        pred = actual * 1.05
        rec = ForecastRecord("m", actual, pred)
        labels = tuple(f"2020-01-{d:02d}" for d in range(1, 11))
        paths = emit_plot_data([rec], labels, tmp_path, suffix="test")
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == "period,actual,predicted"
        got_a = np.array([float(l.split(",")[1]) for l in lines[1:]])
        got_p = np.array([float(l.split(",")[2]) for l in lines[1:]])
        np.testing.assert_array_equal(got_a, actual)
        np.testing.assert_array_equal(got_p, pred)


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "test_report.csv").exists()
        assert "config hash" in capsys.readouterr().out

    def test_models_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--models", "naive"]) == EXIT_OK
        body = (out / "test_report.csv").read_text()
        assert "naive" in body and "har" not in body

    def test_models_override_parses_like_the_config(self, tmp_path):
        base = CASCADE_CONFIG.replace("naive,har", "naive")
        in_file = write_config(tmp_path, CASCADE_CONFIG.replace("naive,har", "naive, har,"),
                               "in_file.cfg")
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(in_file), "--out", str(o1)]) == EXIT_OK
        assert main(["run", "--config", str(write_config(tmp_path, base)), "--out", str(o2),
                     "--models", "naive, har,"]) == EXIT_OK
        for name in ("validation_report.csv", "test_report.csv"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
        hashes = [(o / "manifest.txt").read_text().splitlines()[0] for o in (o1, o2)]
        assert hashes[0] == hashes[1]

    def test_bad_reference_exits_before_any_fit(self, tmp_path, monkeypatch, capsys):
        fits = []
        for model_id, (_, path) in MODELS.items():
            monkeypatch.setitem(MODELS, model_id, (lambda *a, m=model_id: fits.append(m), path))
        cfg = write_config(tmp_path, CASCADE_CONFIG + "reference = ewma\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "reference model 'ewma' not enabled" in capsys.readouterr().err
        assert fits == []

    def test_negative_last_forecast_leaves_var_blank(self, tmp_path):
        # arima's last validation forecast is negative on this cascade
        cfg = write_config(tmp_path, "synth.kind = cascade\nsynth.length = 130\n"
                           "synth.noise_sd = 0.3\nsplit.validation = 40\nsplit.test = 40\n"
                           "models = naive,arima\nseed = 33\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "validation_report.csv").read_text().splitlines()]
        assert [row[9] for row in rows if row[0] == "arima"] == [""]
        # its last two validation forecasts are below zero: counted, not floored
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "negative.arima.validation=2" in manifest
        assert "negative.arima.test=0" in manifest
        assert [line for line in manifest if line.startswith("negative.naive.")] == [
            "negative.naive.validation=0", "negative.naive.test=0"]

    def test_har_lags_ignored_when_har_disabled(self, tmp_path):
        # 600-bucket lags would need 810 points if they counted in the lookback
        text = CASCADE_CONFIG.replace("naive,har", "naive,ewma") + "har.lags = 1,5,600\n"
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "test_report.csv").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg), "--out", str(o1)])
        main(["run", "--config", str(cfg), "--out", str(o2), "--seed", "5"])
        h1 = (o1 / "manifest.txt").read_text().splitlines()[0]
        h2 = (o2 / "manifest.txt").read_text().splitlines()[0]
        assert h1 != h2

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, "models = prophet\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "arima.orders = 1,0;2,0,1\nmodels = arima\n",
        "har.grid = 1,5;2,10,40\nmodels = har_opt\n",
        "har.lags = 1,5\n",
        "ewma.grid = 0.1:0.9:0\nmodels = ewma\n",
        "rnn.units = 7\nmodels = lstm\n",
        "synth.lenght = 400\n",
        "synth.length = long\n",
        "synth.length = 700.5\n",
        "ewma.grid = 0.5:1.5:0.5\nmodels = ewma\n",
        "ewma.grid = 0.9:0.1:0.1\nmodels = ewma\n",
        "ewma.grid = 0.01:inf:0.01\nmodels = ewma\n",
        "ewma.grid = -inf:0.99:0.01\nmodels = ewma\n",
        "split.validation = 0\n",
        "data.aggregation = week\n",
        "har.lags = 5,1,22\nmodels = har\n",
        "har.grid = 5,1,22;9,4,30\nmodels = har_opt\n",
        "arima.orders = -1,0,0\nmodels = arima\n",
        "ewma.grid = 0.01:0.99:0.00001\nmodels = ewma\n",
        "ewma.grid = 0.00001:1:0.00001\n",
        "rnn.windows = 1-100000\n",
        "rnn.windows = 5,10-60\nmodels = lstm\n",
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, lines):
        cfg = write_config(tmp_path, CASCADE_CONFIG + lines)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           "data.source = csv\ndata.csv = missing.csv\nmodels = naive\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_out_of_range_timestamp_exit_code(self, tmp_path, capsys):
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,price\n1000000000000,100.0\n1000000000060,101.0\n")
        cfg = write_config(tmp_path, f"data.source = csv\ndata.csv = {prices}\n")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "0001-9999" in capsys.readouterr().err

    @pytest.mark.parametrize("body,message", [
        ("timestamp,price\n0,100.0\n99999999999999999999,101.0\n".encode(),
         "prices.csv:3: timestamp 99999999999999999999 outside the int64 range"),
        (b"timestamp,price\n0,100.0\n60,101.0\xff\n", "prices.csv: not UTF-8 text"),
        (None, "prices.csv: cannot read (Is a directory)"),
    ], ids=["int64_overflow", "non_utf8", "directory"])
    def test_unreadable_price_csv_exit_code(self, tmp_path, capsys, body, message):
        prices = tmp_path / "prices.csv"
        if body is None:
            prices.mkdir()
        else:
            prices.write_bytes(body)
        cfg = write_config(tmp_path, f"data.source = csv\ndata.csv = {prices}\n")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body,message", [
        (None, "no such file"),
        (b"models = naive\n# caf\xe9\n", "not UTF-8 text"),
        ("directory", "cannot read (Is a directory)"),
    ], ids=["missing", "non_utf8", "directory"])
    @pytest.mark.parametrize("verb", ["ingest", "run", "simulate"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, verb, body, message):
        cfg = tmp_path / "exp.cfg"
        if body == "directory":
            cfg.mkdir()
        elif body is not None:
            cfg.write_bytes(body)
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("out_name", ["taken", "taken/sub"])
    @pytest.mark.parametrize("verb", ["ingest", "run", "simulate"])
    def test_out_not_a_directory_exits_before_any_fit(self, tmp_path, monkeypatch, capsys,
                                                      verb, out_name):
        fits = []
        for model_id, (_, path) in MODELS.items():
            monkeypatch.setitem(MODELS, model_id, (lambda *a, m=model_id: fits.append(m), path))
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,price\n0,100.0\n60,101.0\n")
        text = f"data.source = csv\ndata.csv = {prices}\n" if verb == "ingest" else CASCADE_CONFIG
        (tmp_path / "taken").write_text("a file\n")
        out = tmp_path / out_name
        assert main([verb, "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: cannot use as a directory")
        assert err.count("\n") == 1
        assert fits == []
        assert (tmp_path / "taken").read_text() == "a file\n"

    @pytest.mark.parametrize("argv,lines,message", [
        (["run"], "seed = -1\n", "seed must be >= 0, got -1"),
        (["run", "--seed", "-1"], "", "seed must be >= 0, got -1"),
        (["simulate", "--seed", "-1"], "", "seed must be >= 0, got -1"),
        (["run"], "synth.seed = -1\n", "synth.seed must be >= 0, got -1"),
        (["simulate"], "synth.seed = -1\n", "synth.seed must be >= 0, got -1"),
        (["gradcheck", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    ], ids=["config_seed", "run_flag", "simulate_flag", "run_synth_seed",
            "simulate_synth_seed", "gradcheck_flag"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, argv, lines, message):
        out = tmp_path / "out"
        if lines is not None:
            argv = argv + ["--config", str(write_config(tmp_path, CASCADE_CONFIG + lines)),
                           "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("length", [0, -5])
    @pytest.mark.parametrize("verb", ["run", "simulate"])
    def test_cascade_length_below_one_exit_code(self, tmp_path, capsys, verb, length):
        cfg = write_config(tmp_path, CASCADE_CONFIG + f"synth.length = {length}\n")
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: length must be >= 1\n"
        assert not (out / "rv.csv").exists()

    def test_simulate_then_ingest(self, tmp_path, capsys):
        sim_cfg = write_config(
            tmp_path,
            "data.source = synth\nsynth.kind = gbm\nsynth.buckets = 5\n"
            "synth.steps_per_bucket = 20\nmodels = naive\nseed = 1\n",
            name="sim.cfg")
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", str(sim_cfg),
                     "--out", str(sim_out)]) == EXIT_OK
        assert (sim_out / "prices.csv").exists()
        ing_cfg = write_config(
            tmp_path,
            f"data.source = csv\ndata.csv = {sim_out / 'prices.csv'}\nmodels = naive\n",
            name="ing.cfg")
        ing_out = tmp_path / "ing"
        assert main(["ingest", "--config", str(ing_cfg),
                     "--out", str(ing_out)]) == EXIT_OK
        assert len(read_rv(ing_out / "rv.csv")) == 5

    def test_simulate_non_integral_bucket_count_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "data.source = synth\nsynth.kind = gbm\nsynth.buckets = 2.5\n"
            "synth.steps_per_bucket = 10\nmodels = naive\n", name="sim.cfg")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "synth.buckets must be an integer" in capsys.readouterr().err
        assert not (out / "prices.csv").exists()

    def test_simulate_cascade_rv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "data.source = synth\nsynth.kind = cascade\nsynth.length = 40\n"
            "models = naive\nseed = 2\n", name="casc.cfg")
        out = tmp_path / "casc"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(read_rv(out / "rv.csv")) == 40

    def test_gradcheck_verb(self, capsys):
        assert main(["gradcheck", "--cell", "both", "--window", "3",
                     "--units", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lstm" in out and "gru" in out and "PASS" in out

    def test_gradcheck_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr("volforge.cli.rnn_gradient_check", lambda config: 1.0)
        assert main(["gradcheck", "--cell", "lstm"]) == EXIT_MODEL
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("errors", [[math.nan], [1e-6, math.nan], [math.nan, 1e-6]],
                             ids=["one_cell", "second_cell", "first_cell"])
    def test_gradcheck_nan_error_fails(self, monkeypatch, capsys, errors):
        # max(0.0, nan) is 0.0, so a running max would let a NaN error pass
        errs = iter(errors)
        monkeypatch.setattr("volforge.cli.rnn_gradient_check", lambda config: next(errs))
        cell = "lstm" if len(errors) == 1 else "both"
        assert main(["gradcheck", "--cell", cell]) == EXIT_MODEL
        out = capsys.readouterr().out
        assert "nan" in out and "FAIL" in out and "PASS" not in out


LEAK_V_START, LEAK_V_STOP, LEAK_T_STOP = 140, 170, 200


@pytest.fixture(scope="module")
def fitted_models():
    """Each model's test-window model and forecasts, fitted once on a cascade."""
    rv = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                  length=LEAK_T_STOP, seed=5).rv
    r = rv[1:] * np.random.default_rng(12).standard_normal(len(rv) - 1)
    data = Data(rv, r, LEAK_V_START, LEAK_V_STOP)
    config = ExperimentConfig(
        models=ALL_MODELS, ewma_grid=(0.5, 0.9), har_grid=((1, 5, 22), (2, 6, 30)),
        arima_orders=((1, 0, 0), (1, 0, 1)), rnn_windows=(2, 5), rnn_epochs=1,
        rnn_units=5)
    fitted = {}
    for model_id, (fit, path) in MODELS.items():
        _, model, _, _ = fit(config, data)
        fitted[model_id] = (model, path(model, data, LEAK_V_STOP, LEAK_T_STOP))
    return data, fitted


@pytest.mark.parametrize("model_id", ALL_MODELS)
@settings(max_examples=15, deadline=None)
@given(k=st.integers(LEAK_V_STOP, LEAK_T_STOP - 1),
       scale=st.floats(0.5, 2.0).filter(lambda s: s != 1.0))
def test_forecasts_ignore_later_data(fitted_models, model_id, k, scale):
    """Changing rv and returns from bucket k on leaves every test forecast up
    to and including bucket k unchanged: forecast t sees only buckets < t."""
    data, fitted = fitted_models
    model, expected = fitted[model_id]
    values, returns = data.values.copy(), data.returns.copy()
    values[k:] *= scale
    returns[k - 1:] *= -scale
    perturbed = Data(values, returns, data.v_start, data.v_stop)
    got = MODELS[model_id][1](model, perturbed, LEAK_V_STOP, LEAK_T_STOP)
    seen = k - LEAK_V_STOP + 1
    np.testing.assert_array_equal(got[:seen], expected[:seen])
