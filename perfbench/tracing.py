"""Spans around calls into the program's public functions, and the per-layer
metrics computed from them.

The tracer replaces each function where the caller binds it (a module
attribute), records one span per call in memory and restores the originals
on exit.  A span is ``(name, start, end, parent, op, ok, info)``: ``parent``
is the index of the enclosing span (-1 at the top), ``op`` the op id, ``ok``
False when the call raised, and ``info`` the work it did as a count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, OK, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def call(self, name, fn, args, kwargs, info=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        ok, result = False, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            # A tuple of atoms, so the garbage collector stops scanning it.
            self.spans[index] = (name, start, end, parent, self.op, ok,
                                 info(args, kwargs, result) if ok and info else None)

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return traced

    def wrap_simplex(self, fn):
        """minimize_simplex with its objective counted; info is (nit, fevals, cap)."""
        @functools.wraps(fn)
        def traced(objective, x0, max_iter=None, *args, **kwargs):
            fevals = 0

            def counted(x):
                nonlocal fevals
                fevals += 1
                return objective(x)

            cap = max_iter if max_iter is not None else 500 * max(len(x0), 1)
            return self.call("simplex.minimize_simplex", fn,
                             (counted, x0, max_iter, *args), kwargs,
                             lambda a, k, res: (res[2], fevals, cap))
        return traced


def _rv_info(args, kwargs, result):
    return (len(args[0]), len(result))


def _steps_info(args, kwargs, result):
    return len(args[0])


def _timesteps_info(args, kwargs, result):
    shape = getattr(args[0], "shape", (len(args[0]),))
    return shape[0] * shape[1] if len(shape) == 2 else shape[0]


# (module, attribute, span name, info) for every binding the program calls.
PATCHES = (
    ("volforge.runner", "run_experiment", "runner.run_experiment", None),
    ("volforge.runner", "emit_plot_data", "runner.emit_plot_data", None),
    ("volforge.cli", "read_price_csv", "series.read_price_csv", None),
    ("volforge.runner", "read_price_csv", "series.read_price_csv", None),
    ("volforge.cli", "realized_volatility", "series.realized_volatility", _rv_info),
    ("volforge.runner", "realized_volatility", "series.realized_volatility", _rv_info),
    ("volforge.cli", "write_rv_csv", "series.write_rv_csv", None),
    ("volforge.classical", "ewma_fit", "classical.ewma_fit", None),
    ("volforge.classical", "ewma_forecasts", "classical.ewma_forecasts", None),
    ("volforge.classical", "har_lag_search", "classical.har_lag_search", None),
    ("volforge.classical", "har_fit", "classical.har_fit", None),
    ("volforge.classical", "har_forecast", "classical.har_forecast", None),
    ("volforge.classical", "arima_order_select", "classical.arima_order_select", None),
    ("volforge.classical", "arima_fit", "classical.arima_fit", None),
    ("volforge.classical", "arima_forecast", "classical.arima_forecast", None),
    ("volforge.garch", "garch_fit", "garch.garch_fit", None),
    ("volforge.garch", "variance_path", "garch.variance_path", _steps_info),
    ("volforge.runner", "window_search", "rnn.window_search", None),
    ("volforge.runner", "rnn_forecast_path", "rnn.rnn_forecast_path", None),
    ("volforge.rnn.search", "rnn_train", "rnn.rnn_train", None),
    ("volforge.rnn.search", "rnn_forecast_path", "rnn.rnn_forecast_path", None),
    ("volforge.rnn.training", "rnn_forward", "rnn.rnn_forward", _timesteps_info),
    ("volforge.rnn.training", "rnn_backward", "rnn.rnn_backward", None),
    ("volforge.runner", "build_report", "evaluation.build_report", None),
    ("volforge.runner", "report_csv", "evaluation.report_csv", None),
    ("volforge.runner", "report_text", "evaluation.report_text", None),
    ("volforge.evaluation", "dm_test", "evaluation.dm_test", None),
)
SIMPLEX_BINDINGS = (("volforge.classical", "minimize_simplex"),
                    ("volforge.garch", "minimize_simplex"))


@contextlib.contextmanager
def patched(tracer: Tracer):
    saved = []
    try:
        for module, attr, name, info in PATCHES:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), info))
        for module, attr in SIMPLEX_BINDINGS:
            mod = importlib.import_module(module)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap_simplex(getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children never overlap and their summed
    durations equal the part of the parent's interval they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans) -> dict:
    """Every per-layer metric; an idle layer reads 0."""
    self_t = self_times(spans)
    total = defaultdict(float)      # inclusive seconds, outermost span of a name only
    calls = defaultdict(int)
    failed = defaultdict(int)
    own = defaultdict(float)        # self seconds by name
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        failed[name] += not s[OK]
        own[name] += self_t[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            total[name] += s[END] - s[START]

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def info(name):
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]

    forwards = [s for s in spans if s[NAME] == "rnn.rnn_forward"]
    train_fw = [s for s in forwards if parent_name(s) == "rnn.rnn_train"]
    rv = info("series.realized_volatility")
    simplex = info("simplex.minimize_simplex")
    n_simplex = calls["simplex.minimize_simplex"]
    cap_hits = sum(nit >= cap or fev >= 4 * cap for nit, fev, cap in simplex)
    n_train = calls["rnn.rnn_train"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "series.read_price_csv_s": total["series.read_price_csv"],
        "series.realized_volatility_s": total["series.realized_volatility"],
        "series.write_rv_csv_s": total["series.write_rv_csv"],
        "series.bars": sum(n for n, _ in rv),
        "series.buckets": sum(b for _, b in rv),
        "runner.run_experiment_s": total["runner.run_experiment"],
        "runner.self_s": own["runner.run_experiment"],
        "runner.emit_plot_data_s": total["runner.emit_plot_data"],
        "classical.ewma_fit_s": total["classical.ewma_fit"],
        "classical.ewma_forecasts_calls": calls["classical.ewma_forecasts"],
        "classical.har_lag_search_s": total["classical.har_lag_search"],
        "classical.har_fit_calls": calls["classical.har_fit"],
        "classical.har_forecast_s": total["classical.har_forecast"],
        "classical.har_forecast_calls": calls["classical.har_forecast"],
        "classical.arima_order_select_s": total["classical.arima_order_select"],
        "classical.arima_fit_s": total["classical.arima_fit"],
        "classical.arima_fit_calls": calls["classical.arima_fit"],
        "classical.arima_fit_failed": failed["classical.arima_fit"],
        "classical.arima_forecast_s": total["classical.arima_forecast"],
        "classical.arima_forecast_calls": calls["classical.arima_forecast"],
        "garch.garch_fit_s": total["garch.garch_fit"],
        "garch.variance_path_s": total["garch.variance_path"],
        "garch.variance_path_calls": calls["garch.variance_path"],
        "garch.variance_path_steps": sum(info("garch.variance_path")),
        "simplex.minimize_simplex_s": total["simplex.minimize_simplex"],
        "simplex.calls": n_simplex,
        "simplex.iterations": sum(nit for nit, _, _ in simplex),
        "simplex.fevals": sum(fev for _, fev, _ in simplex),
        "simplex.cap_hits": cap_hits,
        "simplex.converged_ratio": ratio(len(simplex) - cap_hits, n_simplex),
        "rnn.window_search_s": total["rnn.window_search"],
        "rnn.rnn_train_s": total["rnn.rnn_train"],
        "rnn.rnn_train_self_s": own["rnn.rnn_train"],
        "rnn.rnn_forward_train_s": sum(s[END] - s[START] for s in train_fw),
        "rnn.rnn_backward_s": total["rnn.rnn_backward"],
        "rnn.batches": len(train_fw),
        "rnn.timesteps": sum(s[INFO] for s in forwards if s[INFO] is not None),
        "rnn.rnn_forecast_path_s": total["rnn.rnn_forecast_path"],
        "rnn.windows_ok_ratio": ratio(n_train - failed["rnn.rnn_train"], n_train),
        "evaluation.build_report_s": total["evaluation.build_report"],
        "evaluation.dm_test_calls": calls["evaluation.dm_test"],
        "evaluation.render_s": total["evaluation.report_csv"] + total["evaluation.report_text"],
    }


def module_self_times(spans) -> dict:
    """Self seconds summed by module (the part of the span name before the dot)."""
    out = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME].split(".", 1)[0]] += t
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def subtree_times(spans, root="runner.run_experiment") -> dict:
    """Inclusive seconds of each direct child of ``root`` spans, by name."""
    out = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == root:
            out[s[NAME]] += s[END] - s[START]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def write_spans(spans, path):
    with open(path, "w") as fh:
        fh.write("index,name,start,end,parent,op,ok,info\n")
        for i, s in enumerate(spans):
            info = "" if s[INFO] is None else str(s[INFO]).replace(",", ";")
            fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},"
                     f"{int(s[OK])},{info}\n")
