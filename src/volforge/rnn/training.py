"""Supervised training of the recurrent forecasters.

The prediction task is autoregressive: the last ``window`` scaled rv values
predict the next one.  Training is single-threaded and fully deterministic
for a fixed (seed, config, data) triple; gradients are clipped at global
norm 5 before each optimizer step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DataError, FitError
from ..series import MinMaxScaler
from .cells import init_weights
from .config import RnnConfig
from .network import rnn_backward, rnn_forward

GRAD_CLIP_NORM = 5.0
HUBER_DELTA = 1.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
RMSPROP_RHO, RMSPROP_EPS = 0.9, 1e-8


@dataclass(frozen=True)
class TrainedRnn:
    config: RnnConfig
    weights: dict
    scaler: MinMaxScaler
    training_loss_curve: tuple
    search_log: tuple = field(default=(), compare=False)


def loss_and_grad(yhat, y, kind):
    """Mean loss over the batch and dLoss/dyhat."""
    yhat = np.atleast_1d(np.asarray(yhat, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    e = yhat - y
    n = len(e)
    if kind == "MSE":
        return float(np.mean(e * e)), 2.0 * e / n
    if kind == "MAE":
        return float(np.mean(np.abs(e))), np.sign(e) / n
    if kind == "Huber":
        small = np.abs(e) <= HUBER_DELTA
        vals = np.where(small, 0.5 * e * e, HUBER_DELTA * (np.abs(e) - 0.5 * HUBER_DELTA))
        return float(np.mean(vals)), np.clip(e, -HUBER_DELTA, HUBER_DELTA) / n
    raise DataError(f"unknown loss {kind!r}")


def clip_gradients(grads):
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > GRAD_CLIP_NORM and total > 0:
        scale = GRAD_CLIP_NORM / total
        return {k: g * scale for k, g in grads.items()}, total
    return grads, total


class _Optimizer:
    """SGD, RMSprop or Adam over one flat parameter buffer, updated in place."""

    def __init__(self, kind, lr, size):
        self.kind = kind
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, w, g):
        self.t += 1
        if self.kind == "sgd":
            w -= self.lr * g
        elif self.kind == "rmsprop":
            v = self.v
            v *= RMSPROP_RHO
            v += (1 - RMSPROP_RHO) * g * g
            w -= self.lr * g / (np.sqrt(v) + RMSPROP_EPS)
        elif self.kind == "adam":
            m, v = self.m, self.v
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1 ** self.t)
            vhat = v / (1 - ADAM_BETA2 ** self.t)
            w -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        else:
            raise DataError(f"unknown optimizer {self.kind!r}")


def _flat_views(weights):
    """One buffer holding every tensor, and a dict of views into it in the same key order."""
    flat = np.concatenate(list(weights.values()), axis=None)
    views, start = {}, 0
    for k, w in weights.items():
        views[k] = flat[start:start + w.size].reshape(w.shape)
        start += w.size
    return flat, views


def build_supervised_pairs(scaled: np.ndarray, window: int):
    n = len(scaled)
    if n <= window:
        raise DataError(f"series of length {n} too short for window {window}")
    return sliding_window_view(scaled, window)[:n - window], scaled[window:]


def rnn_train(train, config: RnnConfig) -> TrainedRnn:
    """Minimize the configured loss by BPTT over min-max scaled (window -> next) pairs."""
    values = np.asarray(train, dtype=float)
    if len(values) <= config.window + 10:
        raise DataError(
            f"training series of length {len(values)} too short for window {config.window}")
    scaler = MinMaxScaler.fit(values)
    scaled = scaler.transform(values)
    x_all, y_all = build_supervised_pairs(scaled, config.window)
    rng = np.random.default_rng(config.seed)
    flat, weights = _flat_views(init_weights(config, rng))
    shuffle_rng = np.random.default_rng(config.seed + 1)
    dropout_rng = np.random.default_rng(config.seed + 2)
    opt = _Optimizer(config.optimizer, config.learning_rate, flat.size)
    curve = []
    n = len(y_all)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for b0 in range(0, n, config.batch_size):
            sel = order[b0:b0 + config.batch_size]
            yhat, cache = rnn_forward(x_all[sel], weights, config,
                                      training=config.dropout > 0,
                                      dropout_rng=dropout_rng)
            loss, dy = loss_and_grad(yhat, y_all[sel], config.loss)
            if not math.isfinite(loss):
                raise FitError(f"non-finite loss at epoch {epoch}, batch {n_batches}")
            grads = rnn_backward(dy, cache, weights, config)
            grads, _ = clip_gradients(grads)
            opt.step(flat, np.concatenate([grads[k] for k in weights], axis=None))
            epoch_loss += loss
            n_batches += 1
        curve.append(epoch_loss / n_batches)
    return TrainedRnn(config, weights, scaler, tuple(curve))


def rnn_forecast_path(model: TrainedRnn, values, start: int, stop: int) -> np.ndarray:
    """Rolling 1-step forecasts for indices [start, stop), scaler held fixed."""
    values = np.asarray(values, dtype=float)
    w = model.config.window
    if start < w:
        raise DataError(f"start index {start} smaller than window {w}")
    scaled = model.scaler.transform(values)
    windows = sliding_window_view(scaled, w)[start - w:stop - w]
    yhat, _ = rnn_forward(windows, model.weights, model.config)
    return model.scaler.invert(yhat)


def rnn_gradient_check(config: RnnConfig) -> float:
    """Max relative error of analytic BPTT gradients vs central differences.

    Every parameter of every tensor is perturbed; dropout is forced off so
    the objective is deterministic.  A NaN or infinite gradient, analytic or
    numeric, makes the result NaN.
    """
    step = 1e-6
    if config.dropout != 0:
        config = replace(config, dropout=0.0)
    rng = np.random.default_rng(config.seed)
    weights = init_weights(config, rng)
    x = rng.uniform(0.0, 1.0, size=(4, config.window))
    y = rng.uniform(0.0, 1.0, size=4)

    def objective(w):
        yhat, _ = rnn_forward(x, w, config)
        loss, _ = loss_and_grad(yhat, y, config.loss)
        return loss

    yhat, cache = rnn_forward(x, weights, config)
    _, dy = loss_and_grad(yhat, y, config.loss)
    analytic = rnn_backward(dy, cache, weights, config)
    errors = []
    for name, arr in weights.items():
        arr = np.atleast_1d(arr)
        a_grad = np.atleast_1d(analytic[name])
        flat = arr.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = objective(weights)
            flat[j] = orig - step
            dn = objective(weights)
            flat[j] = orig
            numeric = (up - dn) / (2 * step)
            a = float(a_grad.ravel()[j])
            denom = max(abs(a) + abs(numeric), 1e-6)
            errors.append(abs(a - numeric) / denom)
    # np.max returns NaN if any error is NaN; the builtin max keeps or drops a
    # NaN depending on where it stands
    return float(np.max(errors))
