from .config import RnnConfig
from .cells import init_weights
from .network import rnn_forward, rnn_backward
from .training import TrainedRnn, rnn_train, rnn_forecast_path, rnn_gradient_check
from .search import window_search, hyperparameter_search

__all__ = [
    "RnnConfig", "init_weights", "rnn_forward", "rnn_backward",
    "TrainedRnn", "rnn_train", "rnn_forecast_path",
    "rnn_gradient_check", "window_search", "hyperparameter_search",
]
