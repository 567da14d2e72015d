"""Adam optimizer and single-cycle cosine-annealing learning-rate schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError
from .tensor import Tensor


class Adam:
    """Bias-corrected Adam over a named parameter list.

    The update order follows the parameter list, so two runs with identical
    gradients produce bit-identical parameters.  A step with any non-finite
    gradient is refused before any parameter is touched.
    """

    beta1, beta2, eps = 0.9, 0.99, 1e-8

    def __init__(self, named_params: list[tuple[str, Tensor]]):
        self.named_params = list(named_params)
        self.t = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in self.named_params
        }

    def step(self, lr: float) -> None:
        for name, p in self.named_params:
            if p.grad is None:
                raise TrainingError(f"parameter {name} has no gradient")
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient in parameter {name}; step refused")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.named_params:
            m, v = self.moments[name]
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def load_state(self, step: int, moments: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        self.t = step
        for name, p in self.named_params:
            m, v = moments[name]
            self.moments[name] = (
                np.asarray(m, dtype=p.data.dtype).reshape(p.data.shape).copy(),
                np.asarray(v, dtype=p.data.dtype).reshape(p.data.shape).copy(),
            )


@dataclass(frozen=True)
class CosineSchedule:
    """lr(t) = lr_min + (lr_max - lr_min) * (1 + cos(pi * t / total)) / 2."""

    lr_max: float = 1e-3
    lr_min: float = 1e-5
    total: int = 500_000

    def __post_init__(self):
        if self.total < 1:
            raise ConfigError(f"schedule length must be >= 1, got {self.total}")
        for name, value in (("lr_max", self.lr_max), ("lr_min", self.lr_min)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if self.lr_min > self.lr_max:
            raise ConfigError(f"lr_min {self.lr_min} exceeds lr_max {self.lr_max}")

    def lr_at(self, t: int) -> float:
        if not 0 <= t <= self.total:
            raise ConfigError(f"iteration {t} outside schedule range [0, {self.total}]")
        return self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (1.0 + math.cos(math.pi * t / self.total))
