"""Training loop: patch sampling, composite loss, Adam, cosine annealing.

Runs are fully determined by (config, seed): the sampler, initialization,
and every update are driven from explicit seeds, and the JSON-lines log plus
final checkpoint are byte-identical across reruns in test mode.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError, TrainingError
from .loss import LossConfig, composite_loss
from .model import SafmnModel
from .optim import Adam, CosineSchedule
from .imaging.resize import bicubic_resize, crop_to_scale
from .imaging.sampler import PatchSampler


@dataclass
class TrainConfig:
    iters: int = 500_000
    batch_size: int = 64
    patch_size: int = 64
    seed: int = 0
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    loss: LossConfig = field(default_factory=LossConfig)
    augment: bool = True
    log_every: int = 100
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        for name in ("iters", "batch_size", "patch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        CosineSchedule(self.lr_max, self.lr_min, self.iters)  # refuses NaN, negative or inverted rates
        if not 0 <= self.seed < 2**64:  # NumPy's seeds and the checkpoint's u64 field
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("log_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainResult:
    first_loss: float
    final_loss: float
    iterations: int


def prepare_pairs(
    hr_images: Iterable[np.ndarray], scale: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Center-crop HR images to scale divisibility and degrade to LR.

    ``hr_images`` is read once; of each image only its crop and LR are kept.
    """
    pairs = []
    for i, hr in enumerate(hr_images):
        hr_c = crop_to_scale(hr, scale, f"image {i}")
        _, h2, w2 = hr_c.shape
        lr = bicubic_resize(hr_c, h2 // scale, w2 // scale)
        pairs.append((lr, hr_c))
    return pairs


def train(
    model: SafmnModel,
    hr_images: Iterable[np.ndarray],
    cfg: TrainConfig,
    log_stream=None,
    checkpoint_path=None,
) -> TrainResult:
    """Optimize ``model`` on HR images (LR derived by bicubic), in ``model.dtype``.

    ``hr_images`` is read once, so a one-shot generator will do.  Every image
    is checked against the patch size before step 0: ``DataError`` names the
    first one too small by its position, counting from 0.
    """
    scale = model.config.scale
    pairs = prepare_pairs((np.asarray(hr, dtype=model.dtype) for hr in hr_images), scale)
    if not pairs:
        raise DataError("no training images")
    for i, (lr, _) in enumerate(pairs):
        _, lh, lw = lr.shape
        if min(lh, lw) < cfg.patch_size:
            raise DataError(f"image {i}: LR {lw}x{lh} smaller than patch size {cfg.patch_size}")
    sampler = PatchSampler(cfg.patch_size, cfg.batch_size, seed=cfg.seed, augment=cfg.augment)
    pick = np.random.default_rng(cfg.seed + 1)
    schedule = CosineSchedule(cfg.lr_max, cfg.lr_min, cfg.iters)
    opt = Adam(list(model.named_parameters()))
    first_loss = math.nan
    loss_val = math.nan

    def log(it: int, value: float, lr: float) -> None:
        if log_stream is not None:
            log_stream.write(json.dumps({"iter": it, "loss": value, "lr": lr}) + "\n")

    def save(iteration: int) -> None:
        if checkpoint_path is not None:
            save_checkpoint(model, checkpoint_path, iteration=iteration, seed=cfg.seed, optimizer=opt)

    for it in range(cfg.iters):
        lr_now = schedule.lr_at(it)
        lr_img, hr_img = pairs[int(pick.integers(0, len(pairs)))]
        lr_batch, hr_batch = sampler.sample(lr_img, hr_img, scale)
        model.zero_grad()
        out = model(lr_batch)
        loss_node = composite_loss(out, hr_batch, cfg.loss)
        loss_val = loss_node.item()
        try:
            if not math.isfinite(loss_val):
                raise TrainingError(f"non-finite loss {loss_val} at iteration {it}")
            loss_node.backward()
            opt.step(lr_now)
        except TrainingError:
            # Parameters still hold the last good step; keep them on disk.
            save(it)
            raise
        if it == 0:
            first_loss = loss_val
        if cfg.log_every and (it % cfg.log_every == 0 or it == cfg.iters - 1):
            log(it, loss_val, lr_now)
        if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
            save(it + 1)
    save(cfg.iters)
    return TrainResult(first_loss, loss_val, cfg.iters)

