"""Window-size and hyperparameter searches over the validation window.

Candidates are trained independently with the same seed and ranked by their
rolling 1-step validation metric through ``classical.argmin_search``.  The
complete (candidate, metric) log is kept on the returned model so the argmin
can be replayed exhaustively.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..classical import argmin_search
from ..evaluation import error_metric
from .config import RnnConfig
from .training import TrainedRnn, rnn_forecast_path, rnn_train

WINDOW_GRID = tuple(range(1, 51))   # every window RnnConfig accepts


def validation_metric(model: TrainedRnn, train, valid, metric: str) -> float:
    full = np.concatenate([np.asarray(train, dtype=float), np.asarray(valid, dtype=float)])
    fc = rnn_forecast_path(model, full, len(train), len(full))
    return error_metric(metric, valid, fc)


def _trained(train, valid, metric):
    """argmin_search's evaluate: train one config, score it on validation."""
    def evaluate(config):
        model = rnn_train(train, config)
        return model, validation_metric(model, train, valid, metric)
    return evaluate


def window_search(train, valid, base_config: RnnConfig, window_grid=WINDOW_GRID,
                  metric: str = "MSE") -> TrainedRnn:
    """Train one model per window size, return the validation argmin.

    Ties break toward the smaller window; the full (window -> metric) curve
    is recorded in ``search_log``.
    """
    configs = [replace(base_config, window=w) for w in sorted(int(w) for w in window_grid)]
    best, log = argmin_search(configs, _trained(train, valid, metric),
                              "every window candidate failed to train")
    return replace(best, search_log=tuple((cfg.window, val) for cfg, val in log))


def hyperparameter_search(train, valid, candidates, metric: str = "MSE") -> TrainedRnn:
    """Evaluate candidate configs in deterministic order, return the argmin.

    The log keeps one (config, metric) row per candidate, failures included
    as inf.
    """
    best, log = argmin_search(candidates, _trained(train, valid, metric),
                              "every hyperparameter candidate failed to train")
    return replace(best, search_log=log)


def search_log_csv(log) -> str:
    """`config_id,window,units,layers,loss,optimizer,metric_value` rows."""
    lines = ["config_id,window,units,layers,loss,optimizer,metric_value"]
    for idx, (entry, val) in enumerate(log):
        if isinstance(entry, RnnConfig):
            lines.append(f"{idx},{entry.window},{entry.units},{entry.layers},"
                         f"{entry.loss},{entry.optimizer},{val!r}")
        else:
            lines.append(f"{idx},{entry},,,,,{val!r}")
    return "\n".join(lines) + "\n"
