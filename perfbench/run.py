"""volforge benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in a closed loop for about ``--seconds`` seconds: whole
rounds over the workload's pool of cases, each op started when the previous
one has returned, in one single-threaded process.  Every op's
output is checked against the committed reference.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A result file with the run's provenance goes to
``.perfbench_work/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import env
import reference
import tracing
from workloads import WORKLOADS, clear

SETUP_REPEATS = 5
MIN_ROUNDS = 2
# Calibration seconds that define the reference speed (see _at_ref_speed).
REF_CALIBRATION_S = 0.027
_CALIBRATION_TEXT = ",".join(f"{i / 7:.6f}" for i in range(24_000))


def _setup(workload):
    """Program start-up, op inputs and references; returns (inputs, refs, seconds).

    Start-up is a fresh interpreter importing the program, so work moved to
    import time shows in set-up.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import volforge.cli"], cwd=env.ROOT,
                   env=env.child_env(), check=True, timeout=120)
    inputs = {}
    for case in workload.cases:
        case_dir = env.WORK_DIR / "inputs" / workload.name / str(case)
        case_dir.mkdir(parents=True, exist_ok=True)
        inputs[case] = workload.setup(workload, case, case_dir)
    refs = reference.load(workload)
    return inputs, refs, time.perf_counter() - t0


def _rounds(workload, seed):
    """Endless rounds, each every case once in an order drawn from the seed."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(workload.cases, len(workload.cases))


def _run_for(workload, seed, seconds, inputs, refs):
    """Whole rounds of the pool until ``seconds`` of op time have passed.

    At least ``MIN_ROUNDS`` rounds, so every case runs at least twice even
    when the host is slow.  Returns the op records.
    """
    records = []
    for k, plan in enumerate(_rounds(workload, seed)):
        if k >= MIN_ROUNDS and sum(r["seconds"] for r in records) >= seconds:
            return records
        records += _run_ops(workload, plan, inputs, refs)


def _calibrate() -> float:
    """Seconds of a fixed piece of work that never calls the program.

    Interpreted arithmetic, number parsing, date formatting and small numpy
    calls, the kinds of work the ops do.  Its time tracks the share of the
    CPU the host gives this process right now.
    """
    import numpy as np  # after env.pin(), like the program's own import

    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    values = [float(x) for x in _CALIBRATION_TEXT.split(",")]
    days = [datetime.datetime.fromtimestamp(60 * i, datetime.timezone.utc).strftime("%Y-%m-%d")
            for i in range(len(values) // 8)]
    a = np.arange(64.0)
    for _ in range(3_000):
        a = np.tanh(a * 0.5) + 0.1
    return time.perf_counter() - t0


def _at_ref_speed(op) -> float:
    """The op's seconds scaled to a host on which the calibration takes
    ``REF_CALIBRATION_S``: seconds x REF_CALIBRATION_S / calibration seconds."""
    return op["seconds"] * REF_CALIBRATION_S / op["calibration_s"]


def _run_ops(workload, plan, inputs, refs, tracer=None, first_op=0):
    """Runs the plan; returns one record per op with its seconds and problems."""
    records = []
    out_dir = env.WORK_DIR / "out" / workload.name
    calibration = _calibrate()
    for k, case in enumerate(plan):
        clear(out_dir)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(inputs[case], out_dir)
            else:
                tracer.op = first_op + k
                result = tracer.call("op", workload.op, (inputs[case], out_dir), {})
            seconds = time.perf_counter() - t0
            problems = reference.check(refs[case], workload.output(result, out_dir))
        except Exception:
            seconds = time.perf_counter() - t0
            problems = [traceback.format_exc()]
        # The host's speed around the op: the calibrations just before and after.
        before, calibration = calibration, _calibrate()
        records.append({"case": case, "seconds": seconds,
                        "calibration_s": (before + calibration) / 2,
                        "ok": not problems, "problems": problems[:10]})
    return records


def run(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    import volforge.cli  # noqa: F401  the run's own start-up is not set-up
    setups = []
    calibration = _calibrate()
    for _ in range(SETUP_REPEATS):
        inputs, refs, setup_seconds = _setup(workload)
        before, calibration = calibration, _calibrate()
        setups.append({"seconds": setup_seconds, "calibration_s": (before + calibration) / 2})
    setup_s = statistics.median(map(_at_ref_speed, setups))
    rss_after_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": env.provenance(), "setups": setups}
    if not trace:
        ops = _run_for(workload, seed, seconds, inputs, refs)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref_s_p50": (statistics.median(map(_at_ref_speed, ops)), "s"),
            "bars_per_ref_s": (statistics.median(workload.bars(inputs[o["case"]])
                                                 / _at_ref_speed(o) for o in ops), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # The same ops untraced then traced, half the seconds each, so the
        # difference of the two is the tracing overhead.
        untraced = _run_for(workload, seed, seconds / 2, inputs, refs)
        plan = [o["case"] for o in untraced]
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            traced = _run_ops(workload, plan, inputs, refs, tracer, first_op=len(plan))
        ops = untraced + traced
        overhead = (sum(map(_at_ref_speed, traced)) - sum(map(_at_ref_speed, untraced)))
        layers = tracing.layer_metrics(tracer.spans)
        metrics = {k: (v, _unit(k)) for k, v in layers.items()}
        metrics["trace_overhead_s"] = (overhead, "s")
        result["module_self_s"] = tracing.module_self_times(tracer.spans)
        result["run_experiment_children_s"] = tracing.subtree_times(tracer.spans)
        spans_path = env.WORK_DIR / "results" / f"{name}-seed{seed}.spans.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(tracer.spans, spans_path)
        result["spans_file"] = str(spans_path.relative_to(env.ROOT))

    # Raw clock figures, for the record: they move with the host's neighbours
    # (README, "Noise on this host"), so no bound is put on them.
    result["wall_s"] = sum(o["seconds"] for o in ops)
    result["op_s_p50"] = statistics.median(o["seconds"] for o in ops)
    result["calibration_s_p50"] = statistics.median(o["calibration_s"] for o in ops)
    failed = sum(not o["ok"] for o in ops)
    result.update(ops=ops, attempted=len(ops), failed=failed,
                  error_rate=failed / len(ops), rss_after_setup_mb=rss_after_setup / 1024,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    path = env.WORK_DIR / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _print_summary(result):
    print(f"{result['workload']}: {result['attempted']} ops, {result['failed']} failed, "
          f"error_rate {result['error_rate']:.4f}, wall_s {result['wall_s']:.3f}, "
          f"op_s_p50 {result['op_s_p50']:.4f}")
    idle = [k for k, m in result["metrics"].items() if m["value"] == 0]
    for k, m in result["metrics"].items():
        if k not in idle:
            print(f"  {k:34s} {m['value']:>14.6g} {m['unit']}")
    if idle:
        print(f"  {len(idle)} metrics read 0 (idle layers)")
    for title in ("module_self_s", "run_experiment_children_s"):
        if result.get(title):
            print(f"  {title}: " + ", ".join(f"{k} {v:.3f}" for k, v in result[title].items()))
    for op in result["ops"]:
        if not op["ok"]:
            print(f"  op on case {op['case']} failed: {op['problems'][0]}", file=sys.stderr)


def _result_line(result):
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def _run_all(args):
    """Each workload in its own process, so each reports its own peak memory."""
    lines = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines.append(json.loads(done.stdout.strip().splitlines()[-1]))
    print(json.dumps({
        "correct": all(l["correct"] for l in lines),
        "attempted": sum(l["attempted"] for l in lines),
        "failed": sum(l["failed"] for l in lines),
        "metrics": {f"{n}.{k}": m for n, l in zip(WORKLOADS, lines)
                    for k, m in l["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not env.program_present():
        print(f"volforge sources not found under {env.SRC}", file=sys.stderr)
        return 2
    env.pin()
    if args.workload == "all":
        return _run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(result)
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
