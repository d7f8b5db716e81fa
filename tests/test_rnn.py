import math
from dataclasses import replace

import numpy as np
import pytest

from volforge.errors import ConfigError, DataError
from volforge.rnn import training
from volforge.rnn.cells import GRU_GATES, LSTM_GATES, init_weights, sigmoid
from volforge.rnn.config import RnnConfig
from volforge.rnn.network import rnn_backward, rnn_forward
from volforge.rnn.search import (hyperparameter_search, search_log_csv,
                                 validation_metric, window_search)
from volforge.rnn.training import (build_supervised_pairs,
                                   clip_gradients, loss_and_grad,
                                   rnn_forecast_path, rnn_gradient_check,
                                   rnn_train)
from volforge.series import MinMaxScaler
from volforge.synth import simulate_log_vol_cascade


def zero_weights(cell, units=1, in_dim=1):
    """All gate weights and biases zero; the head reads h unscaled."""
    w = {f"l0.W_{g}": np.zeros((units, units + in_dim))
         for g in (LSTM_GATES if cell == "lstm" else GRU_GATES)}
    if cell == "lstm":
        w.update({f"l0.b_{g}": np.zeros(units) for g in LSTM_GATES})
    w["head.w"] = np.ones(units)
    w["head.b"] = np.zeros(1)
    return w


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def _gate(w, name, j, cat):
    return sum(w[name][j][k] * cat[k] for k in range(len(cat)))


def lstm_oracle(xs, w):
    """Elementwise LSTM unroll from a zero state over scalar inputs, then the
    linear head: the textbook cell (Hochreiter & Schmidhuber 1997)."""
    u = len(w["head.w"])
    h, c = [0.0] * u, [0.0] * u
    for x in xs:
        cat = h + [x]
        f = [_sig(_gate(w, "l0.W_f", j, cat) + w["l0.b_f"][j]) for j in range(u)]
        i = [_sig(_gate(w, "l0.W_i", j, cat) + w["l0.b_i"][j]) for j in range(u)]
        ct = [math.tanh(_gate(w, "l0.W_C", j, cat) + w["l0.b_C"][j]) for j in range(u)]
        o = [_sig(_gate(w, "l0.W_o", j, cat) + w["l0.b_o"][j]) for j in range(u)]
        c = [f[j] * c[j] + i[j] * ct[j] for j in range(u)]
        h = [o[j] * math.tanh(c[j]) for j in range(u)]
    return sum(w["head.w"][j] * h[j] for j in range(u)) + w["head.b"][0]


def gru_oracle(xs, w):
    """Elementwise bias-free GRU unroll from a zero state (Cho et al. 2014),
    then the linear head."""
    u = len(w["head.w"])
    h = [0.0] * u
    for x in xs:
        cat = h + [x]
        z = [_sig(_gate(w, "l0.W_z", j, cat)) for j in range(u)]
        r = [_sig(_gate(w, "l0.W_r", j, cat)) for j in range(u)]
        cat_r = [r[j] * h[j] for j in range(u)] + [x]
        ht = [math.tanh(_gate(w, "l0.W_h", j, cat_r)) for j in range(u)]
        h = [(1 - z[j]) * h[j] + z[j] * ht[j] for j in range(u)]
    return sum(w["head.w"][j] * h[j] for j in range(u)) + w["head.b"][0]


def forward(cell, xs, w):
    yhat, _ = rnn_forward(np.asarray([xs], dtype=float), w, RnnConfig(cell=cell, window=len(xs)))
    return float(yhat[0])


def predict(model, history):
    """Next-step rv forecast in original units from the trailing window alone."""
    w = model.config.window
    scaled = model.scaler.transform(np.asarray(history, dtype=float)[-w:])
    yhat, _ = rnn_forward(scaled[None, :], model.weights, model.config)
    return float(model.scaler.invert(yhat[0]))


class TestCells:
    """Gate arithmetic through ``rnn_forward`` over a 3-step unroll."""

    def test_lstm_zero_weights_halves_cell_state(self):
        # every gate sigmoid(0) = 0.5 and the candidate tanh(1) = k, so the
        # cell state goes k/2, 3k/4, 7k/8 and h = 0.5 tanh(7k/8)
        w = zero_weights("lstm")
        w["l0.b_C"] = np.ones(1)
        k = math.tanh(1.0)
        assert forward("lstm", [0.7, -0.2, 0.4], w) == pytest.approx(
            0.5 * math.tanh(0.875 * k), abs=1e-15)

    def test_lstm_saturated_forget_gate_keeps_memory(self):
        # the input gate opens on x = 1 only, so the cell stores tanh(1) once
        w = zero_weights("lstm")
        w["l0.W_i"][0, 1] = 100.0
        w["l0.b_i"] = np.full(1, -50.0)
        w["l0.b_C"] = np.ones(1)
        w["l0.b_f"] = np.full(1, 50.0)   # forget gate pinned open
        kept = forward("lstm", [1.0, 0.0, 0.0], w)
        assert kept == pytest.approx(0.5 * math.tanh(math.tanh(1.0)), abs=1e-12)
        w["l0.b_f"] = np.full(1, -50.0)  # forget gate pinned shut
        assert abs(forward("lstm", [1.0, 0.0, 0.0], w)) < 1e-15

    def test_lstm_elementwise_oracle(self):
        w = init_weights(RnnConfig(cell="lstm", units=5, window=3, seed=3))
        w["head.b"] = np.array([0.1])
        windows = np.array([[0.4, -0.3, 0.9], [0.0, 0.5, 0.2]])
        yhat, _ = rnn_forward(windows, w, RnnConfig(cell="lstm", units=5, window=3))
        for got, xs in zip(yhat, windows):
            assert got == pytest.approx(lstm_oracle(list(xs), w), abs=1e-12)

    def test_gru_zero_weights_halfway_between(self):
        # z = 0.5 and the candidate is tanh(2 x): h moves halfway to it each step
        w = zero_weights("gru")
        w["l0.W_h"][0, 1] = 2.0
        xs = [0.9, -0.3, 0.5]
        h = 0.0
        for x in xs:
            h = 0.5 * h + 0.5 * math.tanh(2.0 * x)
        assert forward("gru", xs, w) == pytest.approx(h, abs=1e-15)

    def test_gru_elementwise_oracle(self):
        w = init_weights(RnnConfig(cell="gru", units=5, window=3, seed=4))
        windows = np.array([[0.4, -0.3, 0.9], [0.0, 0.5, 0.2]])
        yhat, _ = rnn_forward(windows, w, RnnConfig(cell="gru", units=5, window=3))
        for got, xs in zip(yhat, windows):
            assert got == pytest.approx(gru_oracle(list(xs), w), abs=1e-12)

    def test_gru_default_has_no_bias_tensors(self):
        w = init_weights(RnnConfig(cell="gru", units=5))
        assert not any(k.startswith("l0.b_") for k in w)

    def test_lstm_forget_bias_starts_at_one(self):
        w = init_weights(RnnConfig(cell="lstm", units=10))
        np.testing.assert_array_equal(w["l0.b_f"], 1.0)
        np.testing.assert_array_equal(w["l0.b_i"], 0.0)

    def test_init_bounds(self):
        cfg = RnnConfig(cell="lstm", units=20, seed=8)
        w = init_weights(cfg)
        bound = 1.0 / math.sqrt(20 + 1)
        for g in LSTM_GATES:
            assert np.all(np.abs(w[f"l0.W_{g}"]) <= bound)


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RnnConfig(units=7)
        with pytest.raises(ConfigError):
            RnnConfig(window=51)
        with pytest.raises(ConfigError):
            RnnConfig(dropout=0.15)
        with pytest.raises(ConfigError):
            RnnConfig(epochs=7)
        with pytest.raises(ConfigError):
            RnnConfig(cell="rnn")

    def test_softmax_head_warns(self):
        with pytest.warns(UserWarning, match="softmax"):
            RnnConfig(activation="softmax")


class TestForward:
    def test_zero_weights_output_is_head_bias(self):
        cfg = RnnConfig(cell="lstm", units=5, window=3, seed=0)
        w = zero_weights("lstm", units=5)
        w["head.b"] = np.array([0.42])
        yhat, _ = rnn_forward(np.array([[0.1, 0.2, 0.3]]), w, cfg)
        assert yhat[0] == pytest.approx(0.42)

    def test_batch_matches_single(self):
        cfg = RnnConfig(cell="gru", units=10, window=5, seed=2)
        w = init_weights(cfg)
        batch = np.random.default_rng(0).uniform(size=(6, 5))
        yb, _ = rnn_forward(batch, w, cfg)
        for k in range(6):
            ys, _ = rnn_forward(batch[k:k + 1], w, cfg)
            assert ys[0] == pytest.approx(yb[k], abs=1e-12)

    def test_wrong_window_length_rejected(self):
        cfg = RnnConfig(window=5)
        w = init_weights(cfg)
        with pytest.raises(DataError, match="window"):
            rnn_forward(np.zeros((2, 4)), w, cfg)
        with pytest.raises(DataError, match="window"):
            rnn_forward(np.zeros(5), w, cfg)

    def test_relu_head_nonnegative(self):
        cfg = RnnConfig(cell="lstm", units=10, window=5, activation="relu", seed=1)
        w = init_weights(cfg)
        w["head.b"] = np.array([-100.0])
        yhat, _ = rnn_forward(np.zeros((1, 5)), w, cfg)
        assert yhat[0] == 0.0


# Per-cell layer loops, one forward and one backward for each cell: the
# bit-exactness oracle of the shared unroll in ``network``.  Their bias-free
# GRU adds no zero bias, which could change only the sign of an exact zero.

def _lstm_layer_forward(x, weights, layer):
    b_sz, t_len, _ = x.shape
    u = weights[f"l{layer}.W_f"].shape[0]
    h = np.zeros((b_sz, u))
    c = np.zeros((b_sz, u))
    hs = np.empty((b_sz, t_len, u))
    steps = []
    for t in range(t_len):
        cat = np.concatenate([h, x[:, t]], axis=1)
        f = sigmoid(cat @ weights[f"l{layer}.W_f"].T + weights[f"l{layer}.b_f"])
        i = sigmoid(cat @ weights[f"l{layer}.W_i"].T + weights[f"l{layer}.b_i"])
        c_tilde = np.tanh(cat @ weights[f"l{layer}.W_C"].T + weights[f"l{layer}.b_C"])
        o = sigmoid(cat @ weights[f"l{layer}.W_o"].T + weights[f"l{layer}.b_o"])
        c_new = f * c + i * c_tilde
        h = o * np.tanh(c_new)
        steps.append({"cat": cat, "f": f, "i": i, "o": o, "c_tilde": c_tilde,
                      "c_prev": c, "c": c_new, "tanh_c": np.tanh(c_new)})
        c = c_new
        hs[:, t] = h
    return hs, steps


def _lstm_layer_backward(dhs, steps, weights, layer, in_dim):
    b_sz, t_len, u = dhs.shape
    grads = {f"l{layer}.W_{g}": np.zeros_like(weights[f"l{layer}.W_{g}"]) for g in LSTM_GATES}
    grads.update({f"l{layer}.b_{g}": np.zeros_like(weights[f"l{layer}.b_{g}"]) for g in LSTM_GATES})
    dx = np.empty((b_sz, t_len, in_dim))
    dh_next = np.zeros((b_sz, u))
    dc_next = np.zeros((b_sz, u))
    for t in range(t_len - 1, -1, -1):
        s = steps[t]
        dh = dhs[:, t] + dh_next
        do = dh * s["tanh_c"]
        da_o = do * s["o"] * (1 - s["o"])
        dc = dh * s["o"] * (1 - s["tanh_c"] ** 2) + dc_next
        df = dc * s["c_prev"]
        da_f = df * s["f"] * (1 - s["f"])
        di = dc * s["c_tilde"]
        da_i = di * s["i"] * (1 - s["i"])
        dct = dc * s["i"]
        da_c = dct * (1 - s["c_tilde"] ** 2)
        dcat = (da_f @ weights[f"l{layer}.W_f"] + da_i @ weights[f"l{layer}.W_i"]
                + da_c @ weights[f"l{layer}.W_C"] + da_o @ weights[f"l{layer}.W_o"])
        for g, da in zip(LSTM_GATES, (da_f, da_i, da_c, da_o)):
            grads[f"l{layer}.W_{g}"] += da.T @ s["cat"]
            grads[f"l{layer}.b_{g}"] += da.sum(axis=0)
        dh_next = dcat[:, :u]
        dx[:, t] = dcat[:, u:]
        dc_next = dc * s["f"]
    return dx, grads


def _gru_layer_forward(x, weights, layer):
    b_sz, t_len, _ = x.shape
    u = weights[f"l{layer}.W_z"].shape[0]
    h = np.zeros((b_sz, u))
    hs = np.empty((b_sz, t_len, u))
    steps = []
    for t in range(t_len):
        cat = np.concatenate([h, x[:, t]], axis=1)
        z = sigmoid(cat @ weights[f"l{layer}.W_z"].T)
        r = sigmoid(cat @ weights[f"l{layer}.W_r"].T)
        cat_r = np.concatenate([r * h, x[:, t]], axis=1)
        h_tilde = np.tanh(cat_r @ weights[f"l{layer}.W_h"].T)
        h_new = (1 - z) * h + z * h_tilde
        steps.append({"cat": cat, "cat_r": cat_r, "z": z, "r": r,
                      "h_tilde": h_tilde, "h_prev": h})
        h = h_new
        hs[:, t] = h
    return hs, steps


def _gru_layer_backward(dhs, steps, weights, layer, in_dim):
    b_sz, t_len, u = dhs.shape
    grads = {f"l{layer}.W_{g}": np.zeros_like(weights[f"l{layer}.W_{g}"]) for g in GRU_GATES}
    dx = np.empty((b_sz, t_len, in_dim))
    dh_next = np.zeros((b_sz, u))
    for t in range(t_len - 1, -1, -1):
        s = steps[t]
        dh = dhs[:, t] + dh_next
        dz = dh * (s["h_tilde"] - s["h_prev"])
        da_z = dz * s["z"] * (1 - s["z"])
        dh_tilde = dh * s["z"]
        da_h = dh_tilde * (1 - s["h_tilde"] ** 2)
        dcat_r = da_h @ weights[f"l{layer}.W_h"]
        drh = dcat_r[:, :u]
        dx_h = dcat_r[:, u:]
        dr = drh * s["h_prev"]
        da_r = dr * s["r"] * (1 - s["r"])
        dh_prev = dh * (1 - s["z"]) + drh * s["r"]
        dcat = da_z @ weights[f"l{layer}.W_z"] + da_r @ weights[f"l{layer}.W_r"]
        dh_prev += dcat[:, :u]
        dx[:, t] = dcat[:, u:] + dx_h
        for g, da in zip(GRU_GATES, (da_z, da_r, da_h)):
            grads[f"l{layer}.W_{g}"] += da.T @ (s["cat_r"] if g == "h" else s["cat"])
        dh_next = dh_prev
    return dx, grads


def loops_forward_backward(x, y, weights, config, dropout_rng):
    """Predictions and gradients of ``config.loss`` through the per-cell loops,
    with dropout masks drawn as ``rnn_forward`` draws them."""
    inp = x[:, :, None]
    layers = []
    for l in range(config.layers):
        if config.cell == "lstm":
            hs, steps = _lstm_layer_forward(inp, weights, l)
        else:
            hs, steps = _gru_layer_forward(inp, weights, l)
        mask = None
        if config.dropout > 0:
            keep = 1.0 - config.dropout
            mask = (dropout_rng.random(hs.shape) < keep) / keep
            hs = hs * mask
        layers.append((steps, mask))
        inp = hs
    h_last = inp[:, -1]
    yhat = h_last @ weights["head.w"] + weights["head.b"][0]
    _, da = loss_and_grad(yhat, y, config.loss)
    grads = {"head.w": h_last.T @ da, "head.b": np.array([da.sum()])}
    dhs = np.zeros(inp.shape)
    dhs[:, -1] = np.outer(da, weights["head.w"])
    for l in range(config.layers - 1, -1, -1):
        steps, mask = layers[l]
        if mask is not None:
            dhs = dhs * mask
        in_dim = 1 if l == 0 else config.units
        if config.cell == "lstm":
            dhs, g = _lstm_layer_backward(dhs, steps, weights, l, in_dim)
        else:
            dhs, g = _gru_layer_backward(dhs, steps, weights, l, in_dim)
        grads.update(g)
    return yhat, grads


class TestUnrollOracle:
    """The shared unroll is bit-identical to the per-cell loops, gradient key
    order included (``clip_gradients`` sums its norm in that order)."""

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_matches_per_cell_loops(self, cell, layers, dropout, batch):
        cfg = RnnConfig(cell=cell, layers=layers, dropout=dropout, units=5, window=6,
                        seed=batch)
        w = init_weights(cfg)
        data = np.random.default_rng(batch).uniform(size=(batch, 7))
        x, y = data[:, :6], data[:, 6]
        yhat, cache = rnn_forward(x, w, cfg, training=True,
                                  dropout_rng=np.random.default_rng(9))
        grads = rnn_backward(loss_and_grad(yhat, y, cfg.loss)[1], cache, w, cfg)
        want_yhat, want = loops_forward_backward(x, y, w, cfg, np.random.default_rng(9))
        assert yhat.tobytes() == want_yhat.tobytes()
        assert list(grads) == list(want)
        for k in want:
            assert grads[k].tobytes() == want[k].tobytes(), k


# rnn_train as it was before the flat parameter buffer: one dict entry per
# tensor, clipped and stepped one tensor at a time.  The oracle of rnn_train.

def dict_clip_gradients(grads, max_norm=5.0):
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        return {k: g * scale for k, g in grads.items()}, total
    return grads, total


class DictOptimizer:
    def __init__(self, kind, lr):
        self.kind = kind
        self.lr = lr
        self.state = {}
        self.t = 0

    def step(self, weights, grads):
        self.t += 1
        for k, g in grads.items():
            w = weights[k]
            if self.kind == "sgd":
                weights[k] = w - self.lr * g
            elif self.kind == "rmsprop":
                v = self.state.setdefault(k, np.zeros_like(g))
                v *= 0.9
                v += (1 - 0.9) * g * g
                weights[k] = w - self.lr * g / (np.sqrt(v) + 1e-8)
            else:
                m = self.state.setdefault(k + ".m", np.zeros_like(g))
                v = self.state.setdefault(k + ".v", np.zeros_like(g))
                m *= 0.9
                m += (1 - 0.9) * g
                v *= 0.999
                v += (1 - 0.999) * g * g
                mhat = m / (1 - 0.9 ** self.t)
                vhat = v / (1 - 0.999 ** self.t)
                weights[k] = w - self.lr * mhat / (np.sqrt(vhat) + 1e-8)


def dict_rnn_train(train, config):
    """Weights and loss curve of the per-tensor training loop."""
    scaler = MinMaxScaler.fit(train)
    x_all, y_all = build_supervised_pairs(scaler.transform(train), config.window)
    weights = init_weights(config, np.random.default_rng(config.seed))
    shuffle_rng = np.random.default_rng(config.seed + 1)
    dropout_rng = np.random.default_rng(config.seed + 2)
    opt = DictOptimizer(config.optimizer, config.learning_rate)
    curve = []
    n = len(y_all)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss, n_batches = 0.0, 0
        for b0 in range(0, n, config.batch_size):
            sel = order[b0:b0 + config.batch_size]
            yhat, cache = rnn_forward(x_all[sel], weights, config,
                                      training=config.dropout > 0, dropout_rng=dropout_rng)
            loss, dy = loss_and_grad(yhat, y_all[sel], config.loss)
            grads, _ = dict_clip_gradients(rnn_backward(dy, cache, weights, config))
            opt.step(weights, grads)
            epoch_loss += loss
            n_batches += 1
        curve.append(epoch_loss / n_batches)
    return weights, tuple(curve)


class TestTrainingOracle:
    """rnn_train's flat buffer trains bit-identically to the per-tensor loop."""

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd", "rmsprop"])
    @pytest.mark.parametrize("activation", ["linear", "relu", "tanh"])
    def test_matches_per_tensor_loop(self, monkeypatch, cell, layers, dropout, optimizer,
                                     activation):
        masks = []

        def recording_forward(windows, weights, config, **kwargs):
            yhat, cache = rnn_forward(windows, weights, config, **kwargs)
            masks.extend((len(windows), m.shape) for _, m in cache["layers"] if m is not None)
            return yhat, cache

        monkeypatch.setattr(training, "rnn_forward", recording_forward)
        # 17 and 21 pairs in batches of 8 leave last batches of 1 and 5 rows;
        # a learning rate of 0.5 makes the gradient clip fire in some of the runs
        for n_pairs, lr in ((17, 0.5), (21, 0.01)):
            cfg = RnnConfig(cell=cell, layers=layers, dropout=dropout, optimizer=optimizer,
                            activation=activation, units=5, window=4, epochs=2, batch_size=8,
                            learning_rate=lr, seed=n_pairs)
            data = simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                            length=cfg.window + n_pairs, seed=n_pairs).rv
            model = rnn_train(data, cfg)
            want, curve = dict_rnn_train(data, cfg)
            assert list(model.weights) == list(want)
            for k in want:
                assert model.weights[k].tobytes() == want[k].tobytes(), k
            assert model.training_loss_curve == curve
        if dropout:
            assert {shape for _, shape in masks} >= {(1, 4, 5), (5, 4, 5), (8, 4, 5)}
            assert all(shape == (b, 4, 5) for b, shape in masks)


class TestLossAndGrad:
    def test_mse_values(self):
        loss, dy = loss_and_grad(np.array([2.0, 4.0]), np.array([1.0, 2.0]), "MSE")
        assert loss == pytest.approx(2.5)
        np.testing.assert_allclose(dy, [1.0, 2.0])

    def test_mae_values(self):
        loss, dy = loss_and_grad(np.array([2.0, 0.0]), np.array([1.0, 2.0]), "MAE")
        assert loss == pytest.approx(1.5)
        np.testing.assert_allclose(dy, [0.5, -0.5])

    def test_huber_small_equals_half_mse(self):
        loss, _ = loss_and_grad(np.array([0.6]), np.array([0.0]), "Huber")
        assert loss == pytest.approx(0.18)

    def test_huber_large_linear(self):
        loss, dy = loss_and_grad(np.array([3.0]), np.array([0.0]), "Huber")
        assert loss == pytest.approx(2.5)
        assert dy[0] == pytest.approx(1.0)

    def test_clip_rescales_to_norm_five(self):
        grads = {"a": np.array([30.0, 40.0])}
        clipped, total = clip_gradients(grads)
        assert total == pytest.approx(50.0)
        assert np.linalg.norm(clipped["a"]) == pytest.approx(5.0)

    def test_clip_leaves_small_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clipped, total = clip_gradients(grads)
        np.testing.assert_array_equal(clipped["a"], grads["a"])


class TestGradientCheck:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("loss", ["MSE", "MAE", "Huber"])
    def test_single_layer(self, cell, loss):
        cfg = RnnConfig(cell=cell, units=5, window=4, loss=loss, seed=0)
        assert rnn_gradient_check(cfg) < 1e-4

    def test_two_layer_lstm(self):
        cfg = RnnConfig(cell="lstm", units=5, window=3, layers=2, seed=1)
        assert rnn_gradient_check(cfg) < 1e-4

    def test_two_layer_gru(self):
        cfg = RnnConfig(cell="gru", units=5, window=3, layers=2, seed=2)
        assert rnn_gradient_check(cfg) < 1e-4

    def test_tanh_head(self):
        cfg = RnnConfig(cell="gru", units=5, window=4, activation="tanh", seed=3)
        assert rnn_gradient_check(cfg) < 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    def test_non_finite_gradient_gives_nan(self, monkeypatch, bad, where):
        # one bad analytic entry, in the first or the last tensor checked
        def backward(*args):
            grads = {k: np.array(v, dtype=float) for k, v in rnn_backward(*args).items()}
            np.atleast_1d(grads[list(grads)[where]]).ravel()[0] = bad
            return grads

        monkeypatch.setattr(training, "rnn_backward", backward)
        cfg = RnnConfig(cell="gru", units=5, window=2, seed=0)
        assert math.isnan(rnn_gradient_check(cfg))


class TestTraining:
    def train_series(self, n=200, seed=0):
        return simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                        length=n, seed=seed).rv

    def test_lr_zero_leaves_weights_unchanged(self):
        cfg = RnnConfig(cell="lstm", units=5, window=5, epochs=1,
                        learning_rate=0.0, optimizer="sgd", seed=0)
        model = rnn_train(self.train_series(), cfg)
        fresh = init_weights(cfg)
        for k in fresh:
            np.testing.assert_array_equal(model.weights[k], fresh[k])

    def test_constant_series_converges(self):
        cfg = RnnConfig(cell="lstm", units=5, window=5, epochs=200,
                        learning_rate=0.01, seed=0)
        model = rnn_train(np.full(80, 0.02), cfg)
        assert model.training_loss_curve[-1] < 1e-6
        assert predict(model, np.full(10, 0.02)) == pytest.approx(0.02, abs=1e-3)

    def test_loss_curve_improves(self):
        cfg = RnnConfig(cell="gru", units=10, window=5, epochs=30, seed=1)
        model = rnn_train(self.train_series(), cfg)
        assert model.training_loss_curve[-1] < model.training_loss_curve[0]

    def test_seeded_reproducibility(self):
        data = self.train_series()
        cfg = RnnConfig(cell="lstm", units=5, window=5, epochs=5,
                        dropout=0.1, seed=7)
        m1, m2 = rnn_train(data, cfg), rnn_train(data, cfg)
        for k in m1.weights:
            np.testing.assert_array_equal(m1.weights[k], m2.weights[k])
        assert m1.training_loss_curve == m2.training_loss_curve

    def test_different_seed_differs(self):
        data = self.train_series()
        m1 = rnn_train(data, RnnConfig(units=5, window=5, epochs=2, seed=0))
        m2 = rnn_train(data, RnnConfig(units=5, window=5, epochs=2, seed=1))
        assert any(not np.array_equal(m1.weights[k], m2.weights[k])
                   for k in m1.weights)

    def test_short_series_rejected(self):
        with pytest.raises(DataError, match="too short"):
            rnn_train(np.full(15, 0.02), RnnConfig(window=10))

    def test_scaler_band_from_training_only(self):
        data = self.train_series()
        model = rnn_train(data, RnnConfig(units=5, window=5, epochs=1, seed=0))
        assert model.scaler.transform(np.min(data)) == pytest.approx(0.0)
        assert model.scaler.transform(np.max(data)) == pytest.approx(1.0)

    def test_constant_scaler_fallback_band(self):
        s = MinMaxScaler.fit(np.full(10, 0.3))
        assert s.transform(0.3) == pytest.approx(0.5)

    def test_forecast_path_matches_predict(self):
        data = self.train_series()
        model = rnn_train(data[:150], RnnConfig(units=5, window=5, epochs=2, seed=3))
        path = rnn_forecast_path(model, data, 150, 160)
        for k, t in enumerate(range(150, 160)):
            assert path[k] == pytest.approx(predict(model, data[:t]), abs=1e-12)

    def test_supervised_pair_alignment(self):
        x, y = build_supervised_pairs(np.arange(10.0), 3)
        assert x.shape == (7, 3)
        np.testing.assert_array_equal(x[0], [0, 1, 2])
        assert y[0] == 3.0
        np.testing.assert_array_equal(x[-1], [6, 7, 8])
        assert y[-1] == 9.0


class TestSearch:
    def series(self):
        return simulate_log_vol_cascade(-0.4, 0.35, 0.3, 0.25, noise_sd=0.3,
                                        length=260, seed=5).rv

    def test_window_search_argmin_replay(self):
        rv = self.series()
        train, valid = rv[:200], rv[200:]
        base = RnnConfig(cell="lstm", units=5, epochs=3, seed=0)
        model = window_search(train, valid, base, window_grid=[3, 5, 8], metric="MSE")
        log = dict(model.search_log)
        assert set(log) == {3, 5, 8}
        winner = min(sorted(log), key=lambda w: (log[w], w))
        assert model.config.window == winner
        # replay the winning candidate from scratch
        re = rnn_train(train, replace(base, window=winner))
        assert validation_metric(re, train, valid, "MSE") == pytest.approx(
            log[winner], rel=1e-12)

    def test_window_search_failure_logged_as_inf(self):
        rv = self.series()[:40]
        base = RnnConfig(cell="gru", units=5, epochs=1, seed=0)
        # window 35 leaves fewer than 10 training pairs and must fail
        model = window_search(rv[:35], rv[35:], base, window_grid=[3, 35])
        log = dict(model.search_log)
        assert log[35] == math.inf
        assert model.config.window == 3

    def test_hyperparameter_search_argmin(self):
        rv = self.series()
        cands = [RnnConfig(cell="gru", units=5, window=3, epochs=2, seed=0),
                 RnnConfig(cell="gru", units=5, window=8, epochs=2, seed=0)]
        model = hyperparameter_search(rv[:200], rv[200:], cands, metric="MAE")
        vals = [v for _, v in model.search_log]
        assert validation_metric(model, rv[:200], rv[200:], "MAE") == pytest.approx(
            min(vals), rel=1e-12)

    def test_search_log_csv_shape(self):
        log = ((RnnConfig(units=5, window=3), 0.5), (7, 0.25))
        text = search_log_csv(log)
        lines = text.strip().splitlines()
        assert lines[0].startswith("config_id,window")
        assert lines[1].startswith("0,3,5,1,MSE,adam,")
        assert lines[2].startswith("1,7,,,,,")
