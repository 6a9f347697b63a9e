from .adam import AdamState, adam_update
from .backprop import backward, loss_and_grads, mse_grad
from .cells import RnnCellParams, gru_step, init_cell, lstm_step, simple_rnn_step
from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .models import (
    ModelSpec,
    forward_batch,
    init_params,
    mse_loss,
    param_count,
    predict_batch,
    predict_single,
)

__all__ = [
    "AdamState",
    "ModelCheckpoint",
    "ModelSpec",
    "RnnCellParams",
    "adam_update",
    "backward",
    "forward_batch",
    "gru_step",
    "init_cell",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "lstm_step",
    "mse_grad",
    "mse_loss",
    "param_count",
    "predict_batch",
    "predict_single",
    "save_checkpoint",
    "simple_rnn_step",
]
