from .adam import AdamState, adam_update
from .backprop import backward, loss_and_grads, mse_grad
from .cells import init_cell
from .checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from .models import (
    ModelSpec,
    forward_batch,
    init_params,
    mse_loss,
    predict_batch,
    predict_single,
)

__all__ = [
    "AdamState",
    "ModelCheckpoint",
    "ModelSpec",
    "adam_update",
    "backward",
    "forward_batch",
    "init_cell",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "mse_grad",
    "mse_loss",
    "predict_batch",
    "predict_single",
    "save_checkpoint",
]
