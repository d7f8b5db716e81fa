"""Batched multi-layer unroll and backpropagation through time.

Forward and backward are written against the same caches so the analytic
gradients can be validated parameter-by-parameter with central finite
differences (see ``rnn_gradient_check``).  Dropout applies to non-recurrent
connections only: the output sequence of each layer is masked before it
feeds the next layer or the head, and never inside the recurrence.

One unroll serves both cells: each cell contributes a layer class with a step,
its reverse and the names of its per-layer parameters (:data:`CELLS`).  The
gate weights are stacked, ``(4, u, K)`` for the LSTM and ``(2, u, K)`` for the
GRU's update and reset gates, so a step makes one ``matmul`` for its gates and
one for ``dcat``.  numpy runs every slice of a stacked ``matmul`` through the
same 2-D BLAS call as the per-gate products, so the bits do not change.  Each
step writes into ``(T, ...)`` caches allocated before the time loop, and the
weight gradients are one stacked ``matmul`` after it, summed over time in the
order of the reverse loop (t = T-1 ... 0, from zeros).
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


def _sum_over_time(da, cat):
    """Sum over t of ``da[t].T @ cat[t]`` per gate, in the reverse loop's order.

    ``da`` is (T, gates, B, u) with row s holding step T-1-s; ``cat`` is the
    (>= T, B, K) input of the steps in forward order.
    """
    t_len, n_gates, _, u = da.shape
    prod = np.empty((t_len, n_gates, u, cat.shape[2]))
    np.matmul(da.transpose(0, 1, 3, 2), cat[t_len - 1::-1, None], out=prod)
    return np.add.reduce(prod, axis=0, initial=0.0)


class _LstmLayer:
    """Stacked gate rows o, f, i, c~: the sigmoid gates first, the tanh candidate last."""

    params = tuple(f"{p}_{g}" for p in "Wb" for g in LSTM_GATES)
    rows = "ofiC"

    def __init__(self, w, cat):
        t_len, b_sz = cat.shape[0] - 1, cat.shape[1]
        self.cat = cat
        pick = [LSTM_GATES.index(g) for g in self.rows]
        self.W = np.array([w[j] for j in pick])
        self.W_t = self.W.transpose(0, 2, 1)
        self.u = u = self.W.shape[1]
        self.b = np.array([w[4 + j] for j in pick])[:, None]
        # state[t] holds step t's gates o, f, i, c~ and then c_{t-1}, the cell
        # state it starts from, so state[t, 4:1:-1] is (c_{t-1}, c~, i): what
        # dc multiplies into df, di and dc~.  state[T, 4] is the final c.
        self.state = np.empty((t_len + 1, 5, b_sz, u))
        self.state[0, 4] = 0.0
        self.tanh_c = np.empty((t_len, b_sz, u))
        self.h = cat[:, :, :u]

    def step(self, t):
        g = self.state[t]
        pre = np.matmul(self.cat[t], self.W_t)
        pre += self.b
        sigmoid(pre[:3], g[:3])
        np.tanh(pre[3], out=g[3])
        o, f, i, c_tilde, c_prev = g
        c = self.state[t + 1, 4]
        np.multiply(f, c_prev, out=c)
        c += i * c_tilde
        np.tanh(c, out=self.tanh_c[t])
        np.multiply(o, self.tanh_c[t], out=self.h[t + 1])

    def backward(self, dhs, dcat):
        t_len, b_sz, u = self.tanh_c.shape
        state, tanh_c = self.state, self.tanh_c
        o, f, sig, by_dc = state[:, 0], state[:, 1], state[:, :3], state[:, 4:1:-1]
        # terms of the forward pass alone, over all T at once: each row's
        # pre-activation gradient is d * gate * (1 - gate) for the sigmoid
        # rows and d * (1 - c~^2) for the candidate
        slope = 1 - state[:t_len, :4]
        slope[:, 3] = 1 - state[:t_len, 3] ** 2
        dtanh_c = 1 - tanh_c ** 2
        da = np.empty_like(slope)
        da_sig = da[:, :3]
        dh_next = dc_next = np.zeros((b_sz, u))
        for s in range(t_len):
            t = t_len - 1 - s
            dh = dhs[t] + dh_next
            dc = dh * o[t] * dtanh_c[t] + dc_next
            d, d_sig = da[s], da_sig[s]
            np.multiply(dh, tanh_c[t], out=d[0])
            np.multiply(dc, by_dc[t], out=d[1:])
            d_sig *= sig[t]
            d *= slope[t]
            p = np.matmul(d, self.W)
            # the per-gate products summed in LSTM_GATES order, f + i + c~ + o
            np.add(p[1], p[2], out=dcat[s])
            dcat[s] += p[3]
            dcat[s] += p[0]
            dh_next = dcat[s, :, :u]
            dc_next = dc * f[t]
        gW = _sum_over_time(da, self.cat)
        gb = np.add.reduce(da.sum(axis=2), axis=0, initial=0.0)
        back = [self.rows.index(g) for g in LSTM_GATES]
        return [gW[j] for j in back] + [gb[j] for j in back]


class _GruLayer:
    """Update and reset gates stacked as (2, u, K); the candidate's W_h apart."""

    params = tuple(f"W_{g}" for g in GRU_GATES)

    def __init__(self, w, cat):
        t_len, b_sz = cat.shape[0] - 1, cat.shape[1]
        self.cat = cat
        self.W = np.array(w[:2])
        self.W_t = self.W.transpose(0, 2, 1)
        self.W_h = w[2]
        self.u = u = self.W.shape[1]
        self.gates = np.empty((t_len, 2, b_sz, u))
        self.h_tilde = np.empty((t_len, b_sz, u))
        self.cat_r = np.empty((t_len, b_sz, cat.shape[2]))    # [r * h_prev, x_t]
        self.cat_r[:, :, u:] = cat[:t_len, :, u:]
        self.h = np.zeros((t_len + 1, b_sz, u))   # h[t + 1] is the output of step t

    def step(self, t):
        g = self.gates[t]
        sigmoid(np.matmul(self.cat[t], self.W_t), g)
        z, r = g
        h = self.h[t]
        cat_r = self.cat_r[t]
        np.multiply(r, h, out=cat_r[:, :self.u])
        h_tilde = self.h_tilde[t]
        np.matmul(cat_r, self.W_h.T, out=h_tilde)
        np.tanh(h_tilde, out=h_tilde)
        h_new = self.h[t + 1]
        np.multiply(z, h_tilde, out=h_new)
        h_new += (1 - z) * h
        self.cat[t + 1, :, :self.u] = h_new

    def backward(self, dhs, dcat):
        t_len, _, b_sz, u = self.gates.shape
        g, h_tilde = self.gates, self.h_tilde
        z, r = g[:, 0], g[:, 1]
        h_prev = self.h[:t_len]
        # terms of the forward pass alone, over all T at once
        slope = 1 - g
        dh_dz = h_tilde - h_prev
        dtanh = 1 - h_tilde ** 2
        da = np.empty_like(g)
        da_h = np.empty_like(h_tilde)
        dh_next = np.zeros((b_sz, u))
        for s in range(t_len):
            t = t_len - 1 - s
            dh = dhs[t] + dh_next
            d = da[s]
            np.multiply(dh, dh_dz[t], out=d[0])
            np.multiply(dh * z[t], dtanh[t], out=da_h[s])
            dcat_r = da_h[s] @ self.W_h
            drh = dcat_r[:, :u]
            np.multiply(drh, h_prev[t], out=d[1])
            d *= g[t]
            d *= slope[t]
            dh_next = dh * slope[t, 0] + drh * r[t]
            p = np.matmul(d, self.W)
            np.add(p[0], p[1], out=dcat[s])
            dh_next += dcat[s, :, :u]
            dcat[s, :, u:] += dcat_r[:, u:]
        return [*_sum_over_time(da, self.cat), *_sum_over_time(da_h[:, None], self.cat_r)]


# cell -> layer class: its step, its reverse and its parameter names in gradient order
CELLS = {"lstm": _LstmLayer, "gru": _GruLayer}


def _layer_forward(x, w, cell):
    """Run one layer over (B, T, in) inputs; returns its (B, T, u) outputs and the
    layer, whose caches the backward pass reads.

    ``cat[t]`` is the step-t input [h_{t-1}, x_t]; step t writes h_t into
    ``cat[t + 1]``, whose last row holds only the final h.
    """
    b_sz, t_len, _ = x.shape
    u, k = w[0].shape
    cat = np.zeros((t_len + 1, b_sz, k))
    cat[:t_len, :, u:] = x.transpose(1, 0, 2)
    layer = cell(w, cat)
    for t in range(t_len):
        layer.step(t)
    return np.ascontiguousarray(cat[1:, :, :u].transpose(1, 0, 2)), layer


def _layer_backward(dhs, layer):
    """Gradients of one layer and dLoss/d(its inputs)."""
    b_sz, t_len, u = dhs.shape
    dcat = np.empty((t_len, b_sz, layer.cat.shape[2]))   # row s: dLoss/dcat at step T-1-s
    grads = layer.backward(np.ascontiguousarray(dhs.transpose(1, 0, 2)), dcat)
    return dcat[::-1, :, u:].transpose(1, 0, 2), grads


def rnn_forward(windows, weights, config: RnnConfig, training=False, dropout_rng=None):
    """Predictions (scaled space) for a (batch, window) array of input windows.

    Returns (predictions, cache); cache is consumed by :func:`rnn_backward`.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim != 2 or x.shape[1] != config.window:
        raise DataError(f"windows of shape {x.shape} are not (batch, {config.window})")
    cell = CELLS[config.cell]
    layer_caches = []
    inp = x[:, :, None]
    for l in range(config.layers):
        hs, layer = _layer_forward(inp, [weights[f"l{l}.{p}"] for p in cell.params], cell)
        mask = None
        if training and config.dropout > 0:
            if dropout_rng is None:
                raise DataError("training with dropout requires a dropout rng")
            keep = 1.0 - config.dropout
            mask = (dropout_rng.random(hs.shape) < keep) / keep
            hs = hs * mask
        layer_caches.append((layer, mask))
        inp = hs
    h_last = inp[:, -1]
    pre = h_last @ weights["head.w"] + weights["head.b"][0]
    yhat, dact = _head_activation(pre, config.activation)
    return yhat, {"layers": layer_caches, "h_last": h_last, "dact": dact,
                  "shape": inp.shape}


def rnn_backward(dy, cache, weights, config: RnnConfig):
    """Gradients of the loss w.r.t. every weight, given dLoss/dprediction.

    The layers reuse the gate weights that :func:`rnn_forward` stacked into
    the cache.  The keys come head first, then the layers from last to first,
    each with its ``W_*`` before its ``b_*``: :func:`clip_gradients` sums in
    this order.
    """
    params = CELLS[config.cell].params
    da = dy * cache["dact"]
    grads = {"head.w": cache["h_last"].T @ da, "head.b": np.array([da.sum()])}
    dhs = np.zeros(cache["shape"])
    dhs[:, -1] = np.outer(da, weights["head.w"])
    for l in range(config.layers - 1, -1, -1):
        layer, mask = cache["layers"][l]
        if mask is not None:
            dhs = dhs * mask
        dhs, g = _layer_backward(dhs, layer)
        grads.update(zip((f"l{l}.{p}" for p in params), g))
    return grads
