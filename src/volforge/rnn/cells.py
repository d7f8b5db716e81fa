"""Gate layout of the recurrent cells and their weight initialization.

Both cells operate on the concatenation [h_prev, x] with logistic gates and
tanh candidates; the GRU carries no bias terms.  The batched layer unroll
lives in :mod:`volforge.rnn.network`.
"""

from __future__ import annotations

import numpy as np

from .config import RnnConfig

LSTM_GATES = ("f", "i", "C", "o")
GRU_GATES = ("z", "r", "h")


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)), written into ``out`` when one is given."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def init_weights(config: RnnConfig, rng=None) -> dict:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] init from a seeded PCG64 rng.

    The LSTM forget-gate bias starts at 1.0 so early training does not
    immediately flush the cell state.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    u = config.units
    weights = {}
    for l in range(config.layers):
        fan_in = u + (1 if l == 0 else u)   # [h_prev, x]: x is the rv or the layer below
        bound = 1.0 / np.sqrt(fan_in)

        def draw(shape):
            return rng.uniform(-bound, bound, size=shape)

        if config.cell == "lstm":
            for g in LSTM_GATES:
                weights[f"l{l}.W_{g}"] = draw((u, fan_in))
                weights[f"l{l}.b_{g}"] = np.zeros(u)
            weights[f"l{l}.b_f"] = np.ones(u)
        else:
            for g in GRU_GATES:
                weights[f"l{l}.W_{g}"] = draw((u, fan_in))
    head_bound = 1.0 / np.sqrt(u)
    weights["head.w"] = rng.uniform(-head_bound, head_bound, size=u)
    weights["head.b"] = np.zeros(1)
    return weights
