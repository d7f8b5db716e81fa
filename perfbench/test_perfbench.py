"""Tests of the benchmark itself: the output check, the span arithmetic, one
short run, and the refusal to run without the program.

    python3 -m pytest -q perfbench
"""

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.pin()

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, clear  # noqa: E402


@pytest.fixture(scope="module")
def ingest_case(tmp_path_factory):
    """One real ingest op and the reference of its case."""
    workload = WORKLOADS["ingest_csv"]
    case = workload.cases[0]
    root = tmp_path_factory.mktemp("ingest")
    out_dir = root / "out"
    clear(out_dir)
    inp = workload.setup(workload, case, root)
    got = workload.output(workload.op(inp, out_dir), out_dir)
    return reference.load(workload)[case], got


def test_ingest_output_matches_reference(ingest_case):
    ref, got = ingest_case
    assert reference.check(ref, got) == []


def test_perturbed_ingest_reference_is_caught(ingest_case):
    ref, got = ingest_case
    bad = copy.deepcopy(ref)
    bad["rv"][17] *= 1 + 1e-8
    assert reference.check(bad, got) == [f".rv[17]: {got['rv'][17]!r} != {bad['rv'][17]!r}"]
    bad = copy.deepcopy(ref)
    bad["labels"][3] = "2020-01-06"
    assert len(reference.check(bad, got)) == 1
    bad = copy.deepcopy(ref)
    bad["rv"].pop()
    assert len(reference.check(bad, got)) == 1


def test_tolerance_is_relative_1e_10():
    assert reference.mismatches(1.0, 1.0 + 5e-11) == []
    assert reference.mismatches(1e-20, 1e-20 * (1 + 5e-11)) == []
    assert reference.mismatches(1.0, 1.0 + 5e-10) != []
    assert reference.mismatches(0.0, 0.0) == []
    assert reference.mismatches(True, 1) != []
    assert reference.mismatches(None, 0.0) != []


@pytest.mark.parametrize("name", ["classical_cascade", "rnn_gbm"])
def test_perturbed_experiment_reference_is_caught(name):
    refs = reference.load(WORKLOADS[name])
    ref = next(iter(refs.values()))
    got = copy.deepcopy(ref)
    assert reference.check(ref, got) == []

    model, row = next(iter(ref["test"]["rows"].items()))
    bad = copy.deepcopy(ref)
    bad["test"]["rows"][model]["mse"] = row["mse"] * (1 + 1e-9)
    assert len(reference.check(bad, got)) == 1

    key = next(iter(ref["selections"]))
    bad = copy.deepcopy(ref)
    bad["selections"][key] += "0"
    assert reference.check(bad, got) == [f".selections.{key}: {got['selections'][key]!r} "
                                         f"!= {bad['selections'][key]!r}"]

    failing = copy.deepcopy(got)
    failing["validation"]["failures"] = [["naive", "boom"]]
    assert reference.failed_models(failing) == ["validation: failed models [['naive', 'boom']]"]

    missing = copy.deepcopy(got)
    missing["missing_files"] = ["test_report.csv"]
    assert len(reference.check(ref, missing)) == 1


def test_references_match_workload_definitions():
    for workload in WORKLOADS.values():
        assert sorted(reference.load(workload)) == sorted(workload.cases)


def test_rounds_repeat_per_seed_and_each_covers_the_pool():
    workload = WORKLOADS["rnn_gbm"]
    rounds = list(itertools.islice(run._rounds(workload, 7), 6))
    assert rounds == list(itertools.islice(run._rounds(workload, 7), 6))
    assert all(sorted(r) == sorted(workload.cases) for r in rounds)
    assert len({tuple(r) for r in rounds}) > 1


def test_op_time_is_scaled_by_the_calibration_around_it():
    op = {"seconds": 0.9, "calibration_s": 2 * run.REF_CALIBRATION_S}
    assert run._at_ref_speed(op) == pytest.approx(0.45)


def _span(name, start, end, parent, info=None, ok=True):
    return [name, start, end, parent, 0, ok, info]


def test_self_time_subtracts_direct_children():
    spans = [_span("runner.run_experiment", 0.0, 10.0, -1),
             _span("rnn.window_search", 1.0, 9.0, 0),
             _span("rnn.rnn_train", 1.0, 6.0, 1),
             _span("rnn.rnn_forward", 1.0, 2.0, 2, info=64),
             _span("rnn.rnn_backward", 2.0, 4.0, 2),
             _span("rnn.rnn_forecast_path", 6.0, 8.0, 1),
             _span("rnn.rnn_forward", 6.0, 7.5, 5, info=100)]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    m = tracing.layer_metrics(spans)
    assert m["runner.self_s"] == pytest.approx(2.0)
    assert m["rnn.rnn_train_s"] == pytest.approx(5.0)
    assert m["rnn.rnn_train_self_s"] == pytest.approx(2.0)
    assert m["rnn.rnn_forward_train_s"] == pytest.approx(1.0)
    assert m["rnn.rnn_forecast_path_s"] == pytest.approx(2.0)
    assert m["rnn.batches"] == 1
    assert m["rnn.timesteps"] == 164
    assert m["rnn.windows_ok_ratio"] == 1.0
    assert m["classical.arima_fit_calls"] == 0


def test_simplex_counts_and_cap_hits():
    spans = [_span("simplex.minimize_simplex", 0.0, 1.0, -1, info=(100, 180, 1000)),
             _span("simplex.minimize_simplex", 1.0, 2.0, -1, info=(1500, 2600, 1500)),
             _span("classical.arima_fit", 2.0, 3.0, -1, ok=False)]
    m = tracing.layer_metrics(spans)
    assert (m["simplex.calls"], m["simplex.iterations"], m["simplex.fevals"]) == (2, 1600, 2780)
    assert m["simplex.cap_hits"] == 1
    assert m["simplex.converged_ratio"] == 0.5
    assert m["classical.arima_fit_failed"] == 1


def test_patches_record_spans_and_restore_originals():
    from volforge import classical, garch
    before = (classical.minimize_simplex, garch.variance_path)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        garch.garch_fit([0.01 * ((-1) ** i) * (1 + i % 7) for i in range(200)])
    assert (classical.minimize_simplex, garch.variance_path) == before
    m = tracing.layer_metrics(tracer.spans)
    assert m["garch.garch_fit_s"] > 0
    assert m["simplex.calls"] == 2
    assert m["garch.variance_path_calls"] >= m["simplex.fevals"]
    assert m["garch.variance_path_steps"] == 200 * m["garch.variance_path_calls"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ingest_csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert json.loads((HERE.parent / "BENCHMARK.json").read_text())["paths"] == [HERE.name]


def test_run_reports_every_end_to_end_metric_for_the_requested_seconds():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["ingest_csv"]
    result = run.run("ingest_csv", 3, 0.1, False)
    assert (result["attempted"], result["failed"]) == (run.MIN_ROUNDS * len(workload.cases), 0)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    line = json.loads(run._result_line(result))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
