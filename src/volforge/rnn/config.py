"""Hyperparameter container with the search-grid domains enforced."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from ..errors import ConfigError

UNIT_CHOICES = (5, 10, 20, 30, 50, 100, 200)
DROPOUT_CHOICES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3)
ACTIVATIONS = ("linear", "relu", "softmax", "tanh")
LOSSES = ("MAE", "MSE", "Huber")
EPOCH_CHOICES = (1, 2, 3, 4, 5, 10, 20, 30, 50, 100, 200, 1000)
OPTIMIZERS = ("rmsprop", "sgd", "adam")


@dataclass(frozen=True)
class RnnConfig:
    cell: str = "lstm"              # lstm | gru
    window: int = 22
    layers: int = 1
    units: int = 10
    dropout: float = 0.0
    activation: str = "linear"
    loss: str = "MSE"
    epochs: int = 100
    batch_size: int = 32
    optimizer: str = "adam"
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.cell not in ("lstm", "gru"):
            raise ConfigError(f"unknown cell {self.cell!r}")
        if not (1 <= self.window <= 50):
            raise ConfigError(f"window {self.window} outside [1, 50]")
        if not (1 <= self.layers <= 5):
            raise ConfigError(f"layers {self.layers} outside [1, 5]")
        if self.units not in UNIT_CHOICES:
            raise ConfigError(f"units {self.units} not in {UNIT_CHOICES}")
        if self.dropout not in DROPOUT_CHOICES:
            raise ConfigError(f"dropout {self.dropout} not in {DROPOUT_CHOICES}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation {self.activation!r} not in {ACTIVATIONS}")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss {self.loss!r} not in {LOSSES}")
        if self.epochs not in EPOCH_CHOICES:
            raise ConfigError(f"epochs {self.epochs} not in {EPOCH_CHOICES}")
        if not (1 <= self.batch_size <= 128):
            raise ConfigError(f"batch_size {self.batch_size} outside [1, 128]")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer {self.optimizer!r} not in {OPTIMIZERS}")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.activation == "softmax":
            # a single-unit softmax head is constant 1.0; accepted for grid
            # fidelity but almost certainly not what the caller wants
            warnings.warn("softmax head on a scalar output is constant 1.0", UserWarning)
