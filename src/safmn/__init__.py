"""Self-contained CPU super-resolution engine.

Implements the SAFMN architecture end to end: differentiable tensor kernels,
model assembly with ablation variants, training (L1 + frequency loss, Adam,
cosine annealing), an exact complexity profiler, and the image pipeline
(PNG I/O, bicubic degradation, Y-channel PSNR/SSIM).
"""

from .errors import (
    ConfigError,
    DataError,
    DecodeError,
    DimensionError,
    FormatError,
    SafmnError,
    TrainingError,
    UnsupportedFormatError,
)
from .tensor import Tensor, get_mode, no_grad, set_mode
from .model import ModelConfig, SafmnModel, VARIANTS, VariantSpec, init_model
from .checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from .loss import LossConfig, composite_loss, loss_and_grad
from .optim import Adam, CosineSchedule
from .profiler import count_acts, count_flops, count_params, emit_report, profile_model
from .train import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConfigError",
    "CosineSchedule",
    "DataError",
    "DecodeError",
    "DimensionError",
    "FormatError",
    "LossConfig",
    "ModelConfig",
    "SafmnError",
    "SafmnModel",
    "Tensor",
    "TrainConfig",
    "TrainingError",
    "UnsupportedFormatError",
    "VARIANTS",
    "VariantSpec",
    "composite_loss",
    "count_acts",
    "count_flops",
    "count_params",
    "emit_report",
    "get_mode",
    "init_model",
    "load_checkpoint",
    "loss_and_grad",
    "no_grad",
    "profile_model",
    "read_checkpoint",
    "save_checkpoint",
    "set_mode",
    "train",
    "__version__",
]
