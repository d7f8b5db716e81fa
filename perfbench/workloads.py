"""The three benchmark workloads.

Each workload has a committed pool of cases.  A case is the input seed of one
user-level call (an "op"); its reference output lives in
``perfbench/refs/<workload>.json``.  ``setup`` writes every case's inputs into
the work directory, ``op`` makes the call, and ``output`` reads back what the
call produced in the shape the reference stores.

The modules of the program are looked up through ``volforge.<module>`` at call
time, so the tracer's patches (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPORT_FILES = ("validation_report.csv", "validation_report.txt",
                "test_report.csv", "test_report.txt", "manifest.txt")

# Selected hyperparameter per model, read from the manifest's parameter dump.
SELECTION_KEYS = {"ewma": "alpha", "har": "lags", "har_opt": "lags",
                  "arima": "order", "lstm": "window", "gru": "window"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple               # input seeds, each with a committed reference
    definition: dict           # everything that fixes a case's input and output
    setup: Callable            # (workload, case, case_dir) -> op input
    op: Callable               # (op input, out_dir) -> raw result
    output: Callable           # (raw result, out_dir) -> reference-shaped output
    bars: Callable             # (op input) -> input bars consumed by one op


def _config_text(mapping: dict, case: int) -> str:
    lines = [f"{k}={v}" for k, v in mapping.items()]
    return "\n".join(lines + [f"seed={case}"]) + "\n"


# ---------------------------------------------------------------------------
# ingest_csv: the `ingest` verb on a GBM price CSV
# ---------------------------------------------------------------------------

INGEST_GBM = {"buckets": 250, "steps_per_bucket": 390}


def _ingest_setup(workload, case, case_dir: Path):
    from volforge import series, synth
    prices, _ = synth.simulate_gbm(synth.GbmSpec(seed=case, **INGEST_GBM))
    csv_path = case_dir / "prices.csv"
    series.write_price_csv(prices, csv_path)
    config = case_dir / "ingest.cfg"
    config.write_text(f"data.source=csv\ndata.csv={csv_path}\ndata.aggregation=day\n")
    return {"config": str(config), "bars": len(prices)}


def _ingest_op(inp, out_dir: Path):
    from volforge import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["ingest", "--config", inp["config"], "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"ingest exited with code {code}")


def _ingest_output(_, out_dir: Path):
    """Labels and values of the written rv.csv, parsed without the program."""
    lines = (out_dir / "rv.csv").read_text().splitlines()
    if lines[0] != "period,rv":
        raise RuntimeError(f"rv.csv header is {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    return {"labels": [r[0] for r in rows], "rv": [float(r[1]) for r in rows]}


# ---------------------------------------------------------------------------
# classical_cascade and rnn_gbm: the `run` verb (parse_config + run_experiment)
# ---------------------------------------------------------------------------

CLASSICAL_CONFIG = {
    "data.source": "synth", "synth.kind": "cascade",
    "synth.length": 130, "synth.noise_sd": 0.3,
    "split.validation": 40, "split.test": 40,
    "models": "naive,ewma,har,har_opt,arima,garch,gjr",
}

RNN_STEPS_PER_BUCKET = 26
RNN_CONFIG = {
    "data.source": "synth", "synth.kind": "gbm",
    "synth.buckets": 600, "synth.steps_per_bucket": RNN_STEPS_PER_BUCKET,
    "synth.dt": 1.0 / (252 * RNN_STEPS_PER_BUCKET),
    "split.validation": 252, "split.test": 252,
    "models": "naive,lstm,gru",
    "rnn.windows": "1,2,5,10,22,40", "rnn.epochs": 5,
}


def _experiment_setup(workload, case, case_dir: Path):
    from volforge import runner
    path = case_dir / "experiment.cfg"
    path.write_text(_config_text(workload.definition["config"], case))
    return {"config": runner.parse_config(path)}


def _experiment_op(inp, out_dir: Path):
    from volforge import runner
    return runner.run_experiment(inp["config"], out_dir=out_dir)


def _report_fields(report) -> dict:
    rows = {}
    for r in report.rows:
        row = {"mse": r.mse, "rmse": r.rmse, "mae": r.mae,
               "mape": None if r.mape != r.mape else r.mape,
               "var_10d": r.var_10d, "best_mse": r.best_mse, "best_mae": r.best_mae}
        for loss, dm in (("squared", r.dm_squared), ("absolute", r.dm_absolute)):
            row[f"dm_{loss}"] = None if dm is None else [dm.statistic, dm.p_value]
        rows[r.model_id] = row
    return {"reference": report.reference, "rows": rows,
            "failures": [list(f) for f in report.failures]}


def _selections(manifest) -> dict:
    out = {}
    for model_id, dump in manifest.model_params:
        key = SELECTION_KEYS.get(model_id)
        for line in dump.splitlines():
            if key and line.startswith(key + "="):
                out[f"{model_id}.{key}"] = line[len(key) + 1:]
    return out


def _experiment_output(result, out_dir: Path):
    report_v, report_t, manifest = result
    return {"validation": _report_fields(report_v), "test": _report_fields(report_t),
            "selections": _selections(manifest),
            "missing_files": [f for f in REPORT_FILES if not (out_dir / f).is_file()]}


# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ingest_csv",
        why="ingest verb on a 97.5k-bar GBM price CSV: per-bar parsing, bucketing and "
            "file I/O in series; classical and rnn idle",
        cases=(101, 102),
        definition={"gbm": INGEST_GBM, "aggregation": "day"},
        setup=_ingest_setup, op=_ingest_op, output=_ingest_output,
        bars=lambda inp: inp["bars"]),
    Workload(
        name="classical_cascade",
        why="run verb, seven classical models on a 130-point log-vol cascade: selection "
            "searches and simplex fits in classical, garch and simplex; rnn idle",
        cases=(201, 202),
        definition={"config": CLASSICAL_CONFIG},
        setup=_experiment_setup, op=_experiment_op, output=_experiment_output,
        bars=lambda inp: CLASSICAL_CONFIG["synth.length"]),
    Workload(
        name="rnn_gbm",
        why="run verb, naive/lstm/gru on in-memory GBM bars with windows 1-40: rnn training "
            "and inference dominate, series buckets bars; classical idle",
        cases=(301, 302),
        definition={"config": RNN_CONFIG},
        setup=_experiment_setup, op=_experiment_op, output=_experiment_output,
        bars=lambda inp: RNN_CONFIG["synth.buckets"] * RNN_STEPS_PER_BUCKET + 1),
)}


def clear(out_dir: Path):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
