"""Aligned LR/HR patch sampling with dihedral augmentation.

Each drawn patch pair is cropped at the same (scaled) location in the LR and
HR images and then transformed by one of the eight flip/rotation symmetries
of the square, chosen uniformly.  Everything is driven by a single seeded
generator, so a sampler replays identical batches across runs.
"""
from __future__ import annotations

import numpy as np

from ..errors import DataError, DimensionError
from ..tensor import Tensor


def dihedral_transform(planes: np.ndarray, index: int) -> np.ndarray:
    """Apply one of the 8 square symmetries over the last two axes.

    Index 0..3 rotate by 90 * index degrees; 4..7 flip horizontally first.
    """
    if not 0 <= index < 8:
        raise DimensionError(f"dihedral index {index} outside 0..7")
    out = planes
    if index >= 4:
        out = out[..., :, ::-1]
    k = index % 4
    if k:
        out = np.rot90(out, k=k, axes=(-2, -1))
    return np.ascontiguousarray(out)


class PatchSampler:
    """Seeded sampler of aligned LR/HR training patches."""

    def __init__(
        self,
        patch_size: int = 64,
        batch_size: int = 64,
        seed: int = 0,
        augment: bool = True,
    ):
        if patch_size < 1 or batch_size < 1:
            raise DataError(f"invalid sampler sizes patch={patch_size} batch={batch_size}")
        self.patch_size = patch_size
        self.batch_size = batch_size
        self.augment = augment
        self._rng = np.random.default_rng(seed)

    def sample(
        self, lr_planes: np.ndarray, hr_planes: np.ndarray, scale: int
    ) -> tuple[Tensor, Tensor]:
        """Draw one batch of (lr, hr) patch tensors from an image pair."""
        _, lh, lw = lr_planes.shape
        _, hh, hw = hr_planes.shape
        p = self.patch_size
        if (hh, hw) != (lh * scale, lw * scale):
            raise DataError(
                f"HR {hw}x{hh} is not exactly {scale}x the LR {lw}x{lh}"
            )
        if lh < p or lw < p:
            raise DataError(f"LR image {lw}x{lh} smaller than patch size {p}")
        lr_batch = np.empty((self.batch_size, 3, p, p), dtype=lr_planes.dtype)
        hr_batch = np.empty(
            (self.batch_size, 3, p * scale, p * scale), dtype=hr_planes.dtype
        )
        for b in range(self.batch_size):
            y = int(self._rng.integers(0, lh - p + 1))
            x = int(self._rng.integers(0, lw - p + 1))
            t = int(self._rng.integers(0, 8)) if self.augment else 0
            lr_patch = lr_planes[:, y : y + p, x : x + p]
            hr_patch = hr_planes[
                :, y * scale : (y + p) * scale, x * scale : (x + p) * scale
            ]
            lr_batch[b] = dihedral_transform(lr_patch, t)
            hr_batch[b] = dihedral_transform(hr_patch, t)
        return Tensor(lr_batch), Tensor(hr_batch)

