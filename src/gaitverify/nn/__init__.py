"""Minimal neural-network substrate: layers, losses, Adam, training, gradcheck."""

from .gradcheck import GradCheckReport, gradient_check
from .layers import (
    BatchNorm,
    Conv1d,
    Dense,
    GlobalAveragePool,
    LatentBroadcast,
    Parameter,
    ReLU,
    Sequential,
    conv_block,
)
from .ops import (
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    gap_backward,
    gap_forward,
    mse_loss,
    relu_backward,
    relu_forward,
    softmax,
    softmax_crossentropy,
)
from .optim import Adam, PlateauScheduler
from .training import EpochRecord, History, TrainConfig, evaluate_loss, train

__all__ = [
    "Adam", "BatchNorm", "Conv1d", "Dense", "EpochRecord",
    "GlobalAveragePool", "GradCheckReport", "History", "LatentBroadcast",
    "Parameter", "PlateauScheduler", "ReLU", "Sequential", "TrainConfig",
    "batchnorm_backward", "batchnorm_forward",
    "conv1d_backward", "conv1d_forward", "conv_block",
    "dense_backward", "dense_forward",
    "evaluate_loss", "gap_backward", "gap_forward", "gradient_check",
    "mse_loss", "relu_backward", "relu_forward",
    "softmax", "softmax_crossentropy", "train",
]
