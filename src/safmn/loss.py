"""Training objective: mean absolute error plus a frequency-domain L1 term.

The frequency term transforms each (batch, channel) plane with the 2-D DFT
and penalizes the real and imaginary parts of the spectral difference
separately (L1 over stacked components).  Both terms are averaged over all
of their elements, so the default weight transfers across resolutions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unnormalized forward 2-D DFT over the last two axes; the inverse divides
# by h*w.  Module-level names so callers can wrap them.
from numpy.fft import fft2 as fft2_batched, ifft2 as ifft2_batched

from .errors import ConfigError, DimensionError
from .tensor import Tensor, add, make_result, scale


@dataclass(frozen=True)
class LossConfig:
    """Composite loss settings: ``lambda_weight`` scales the spectral term."""

    lambda_weight: float = 0.05

    def __post_init__(self):
        if self.lambda_weight < 0:
            raise ConfigError(f"lambda_weight must be >= 0, got {self.lambda_weight}")


def _as_array(t) -> np.ndarray:
    return t.data if isinstance(t, Tensor) else np.asarray(t)


def mean_abs_error(pred: Tensor, target) -> Tensor:
    """Mean |pred - target|; the subgradient at zero difference is zero."""
    tgt = _as_array(target)
    if pred.data.shape != tgt.shape:
        raise DimensionError(f"loss: shape mismatch {pred.data.shape} vs {tgt.shape}")
    diff = pred.data - tgt

    def backward(g):
        return (g * np.sign(diff) / diff.size,)

    return make_result(np.array(np.abs(diff).mean(), dtype=pred.dtype), (pred,), backward)


def frequency_l1(pred: Tensor, target) -> Tensor:
    """Mean L1 over the real and imaginary parts of the spectral difference."""
    tgt = _as_array(target)
    if pred.data.shape != tgt.shape:
        raise DimensionError(f"loss: shape mismatch {pred.data.shape} vs {tgt.shape}")
    h, w = pred.data.shape[-2:]
    spectrum = fft2_batched(pred.data.astype(np.float64) - tgt.astype(np.float64))
    denom = spectrum.size
    value = (np.abs(spectrum.real).sum() + np.abs(spectrum.imag).sum()) / denom
    phase = np.sign(spectrum.real) + 1j * np.sign(spectrum.imag)

    def backward(g):
        # Adjoint of the unnormalized forward DFT is h*w times the
        # normalized inverse transform.
        grad = ifft2_batched(phase).real * (h * w) / denom
        return (g * grad.astype(pred.dtype),)

    return make_result(np.array(value, dtype=pred.dtype), (pred,), backward)


def composite_loss(pred: Tensor, target, cfg: LossConfig = LossConfig()) -> Tensor:
    """Pixel L1 plus lambda-weighted spectral L1, as a scalar graph node."""
    total = mean_abs_error(pred, target)
    if cfg.lambda_weight != 0.0:
        freq = frequency_l1(pred, target)
        total = add(total, scale(freq, cfg.lambda_weight))
    return total


def loss_and_grad(sr, hr, cfg: LossConfig = LossConfig()) -> tuple[float, np.ndarray]:
    """Evaluate the composite loss and its gradient w.r.t. the prediction."""
    pred = Tensor(np.asarray(sr), requires_grad=True)
    out = composite_loss(pred, hr, cfg)
    out.backward()
    return out.item(), pred.grad
