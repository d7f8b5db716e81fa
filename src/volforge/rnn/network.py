"""Batched multi-layer unroll and backpropagation through time.

Forward and backward are written against the same caches so the analytic
gradients can be validated parameter-by-parameter with central finite
differences (see ``rnn_gradient_check``).  Dropout applies to non-recurrent
connections only: the output sequence of each layer is masked before it
feeds the next layer or the head, and never inside the recurrence.

One unroll serves both cells: each cell contributes a step, its reverse and
the names of its per-layer parameters (:data:`CELLS`).  Every step carries
``(h, c)``; the GRU has no cell state and passes ``c`` through untouched.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .cells import GRU_GATES, LSTM_GATES, sigmoid
from .config import RnnConfig


def _head_activation(pre, kind):
    if kind == "linear":
        return pre, np.ones_like(pre)
    if kind == "relu":
        return np.maximum(pre, 0.0), (pre > 0).astype(float)
    if kind == "tanh":
        out = np.tanh(pre)
        return out, 1.0 - out * out
    if kind == "softmax":
        # single output unit: softmax is identically 1 with zero gradient
        return np.ones_like(pre), np.zeros_like(pre)
    raise DataError(f"unknown head activation {kind!r}")


def _lstm_step(h, c, x_t, w):
    W_f, W_i, W_C, W_o, b_f, b_i, b_C, b_o = w
    cat = np.concatenate([h, x_t], axis=1)
    f = sigmoid(cat @ W_f.T + b_f)
    i = sigmoid(cat @ W_i.T + b_i)
    c_tilde = np.tanh(cat @ W_C.T + b_C)
    o = sigmoid(cat @ W_o.T + b_o)
    c_new = f * c + i * c_tilde
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, (cat, f, i, c_tilde, o, c, tanh_c)


def _lstm_step_back(dh, dc_next, s, w, grads):
    cat, f, i, c_tilde, o, c_prev, tanh_c = s
    W_f, W_i, W_C, W_o = w[:4]
    u = dh.shape[1]
    do = dh * tanh_c
    da_o = do * o * (1 - o)
    dc = dh * o * (1 - tanh_c ** 2) + dc_next
    df = dc * c_prev
    da_f = df * f * (1 - f)
    di = dc * c_tilde
    da_i = di * i * (1 - i)
    dct = dc * i
    da_c = dct * (1 - c_tilde ** 2)
    dcat = da_f @ W_f + da_i @ W_i + da_c @ W_C + da_o @ W_o
    for k, da in enumerate((da_f, da_i, da_c, da_o)):
        grads[k] += da.T @ cat
        grads[k + 4] += da.sum(axis=0)
    return dcat[:, :u], dc * f, dcat[:, u:]


def _gru_step(h, c, x_t, w):
    W_z, W_r, W_h = w
    cat = np.concatenate([h, x_t], axis=1)
    z = sigmoid(cat @ W_z.T)
    r = sigmoid(cat @ W_r.T)
    cat_r = np.concatenate([r * h, x_t], axis=1)
    h_tilde = np.tanh(cat_r @ W_h.T)
    return (1 - z) * h + z * h_tilde, c, (cat, cat_r, z, r, h_tilde, h)


def _gru_step_back(dh, dc_next, s, w, grads):
    cat, cat_r, z, r, h_tilde, h_prev = s
    W_z, W_r, W_h = w
    u = dh.shape[1]
    dz = dh * (h_tilde - h_prev)
    da_z = dz * z * (1 - z)
    dh_tilde = dh * z
    da_h = dh_tilde * (1 - h_tilde ** 2)
    dcat_r = da_h @ W_h
    drh = dcat_r[:, :u]
    dr = drh * h_prev
    da_r = dr * r * (1 - r)
    dh_prev = dh * (1 - z) + drh * r
    dcat = da_z @ W_z + da_r @ W_r
    dh_prev += dcat[:, :u]
    grads[0] += da_z.T @ cat
    grads[1] += da_r.T @ cat
    grads[2] += da_h.T @ cat_r
    return dh_prev, dc_next, dcat[:, u:] + dcat_r[:, u:]


# cell -> (step, reverse step, per-layer parameter names in gradient order)
CELLS = {
    "lstm": (_lstm_step, _lstm_step_back, tuple(f"{p}_{g}" for p in "Wb" for g in LSTM_GATES)),
    "gru": (_gru_step, _gru_step_back, tuple(f"W_{g}" for g in GRU_GATES)),
}


def _layer_forward(x, w, step):
    b_sz, t_len, _ = x.shape
    u = w[0].shape[0]
    h = c = np.zeros((b_sz, u))
    hs = np.empty((b_sz, t_len, u))
    steps = []
    for t in range(t_len):
        h, c, s = step(h, c, x[:, t], w)
        steps.append(s)
        hs[:, t] = h
    return hs, steps


def _layer_backward(dhs, steps, w, step_back):
    b_sz, t_len, u = dhs.shape
    grads = [np.zeros_like(p) for p in w]
    dx = np.empty((b_sz, t_len, w[0].shape[1] - u))
    dh_next = dc_next = np.zeros((b_sz, u))
    for t in range(t_len - 1, -1, -1):
        dh_next, dc_next, dx[:, t] = step_back(dhs[:, t] + dh_next, dc_next, steps[t],
                                               w, grads)
    return dx, grads


def rnn_forward(windows, weights, config: RnnConfig, training=False, dropout_rng=None):
    """Predictions (scaled space) for a (batch, window) array of input windows.

    Returns (predictions, cache); cache is consumed by :func:`rnn_backward`.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim != 2 or x.shape[1] != config.window:
        raise DataError(f"windows of shape {x.shape} are not (batch, {config.window})")
    step, _, params = CELLS[config.cell]
    layer_caches = []
    inp = x[:, :, None]
    for l in range(config.layers):
        hs, steps = _layer_forward(inp, [weights[f"l{l}.{p}"] for p in params], step)
        mask = None
        if training and config.dropout > 0:
            if dropout_rng is None:
                raise DataError("training with dropout requires a dropout rng")
            keep = 1.0 - config.dropout
            mask = (dropout_rng.random(hs.shape) < keep) / keep
            hs = hs * mask
        layer_caches.append((steps, mask))
        inp = hs
    h_last = inp[:, -1]
    pre = h_last @ weights["head.w"] + weights["head.b"][0]
    yhat, dact = _head_activation(pre, config.activation)
    return yhat, {"layers": layer_caches, "h_last": h_last, "dact": dact,
                  "shape": inp.shape}


def rnn_backward(dy, cache, weights, config: RnnConfig):
    """Gradients of the loss w.r.t. every weight, given dLoss/dprediction.

    The keys come head first, then the layers from last to first, each with
    its ``W_*`` before its ``b_*``: :func:`clip_gradients` sums in this order.
    """
    _, step_back, params = CELLS[config.cell]
    da = dy * cache["dact"]
    grads = {"head.w": cache["h_last"].T @ da, "head.b": np.array([da.sum()])}
    dhs = np.zeros(cache["shape"])
    dhs[:, -1] = np.outer(da, weights["head.w"])
    for l in range(config.layers - 1, -1, -1):
        steps, mask = cache["layers"][l]
        if mask is not None:
            dhs = dhs * mask
        keys = [f"l{l}.{p}" for p in params]
        dhs, g = _layer_backward(dhs, steps, [weights[k] for k in keys], step_back)
        grads.update(zip(keys, g))
    return grads
