from .config import RnnConfig
from .cells import init_weights
from .network import rnn_forward, rnn_backward, dump_weights, load_weights
from .training import TrainedRnn, rnn_train, rnn_predict, rnn_forecast_path, rnn_gradient_check
from .search import window_search, hyperparameter_search

__all__ = [
    "RnnConfig", "init_weights",
    "rnn_forward", "rnn_backward", "dump_weights", "load_weights",
    "TrainedRnn", "rnn_train", "rnn_predict", "rnn_forecast_path",
    "rnn_gradient_check", "window_search", "hyperparameter_search",
]
