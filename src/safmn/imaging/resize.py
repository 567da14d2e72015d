"""Separable antialiased bicubic resampling.

Uses the Catmull-Rom-style cubic kernel with a = -0.5 and the center-aligned
coordinate mapping src = (dst + 0.5) / scale - 0.5.  When downscaling, the
kernel support widens by the inverse scale factor (the standard degradation
used to synthesize LR training data).  Source coordinates outside the image
clamp to the border, and each output row of weights is renormalized so
constants are preserved.
"""
from __future__ import annotations

import numpy as np

from ..errors import DataError, DimensionError

_CUBIC_A = -0.5


def cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Piecewise cubic with a = -0.5; support (-2, 2), kernel(0) = 1."""
    ax = np.abs(x)
    ax2 = ax * ax
    ax3 = ax2 * ax
    inner = (_CUBIC_A + 2.0) * ax3 - (_CUBIC_A + 3.0) * ax2 + 1.0
    outer = _CUBIC_A * (ax3 - 5.0 * ax2 + 8.0 * ax - 4.0)
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


def resize_weights(in_size: int, out_size: int) -> np.ndarray:
    """Dense (out_size, in_size) weight matrix for one separable axis."""
    if out_size < 1:
        raise DimensionError(f"resize target {out_size} must be >= 1")
    scale = out_size / in_size
    kscale = min(scale, 1.0)
    support = 2.0 / kscale
    centers = (np.arange(out_size, dtype=np.float64) + 0.5) / scale - 0.5
    left = np.floor(centers - support).astype(np.int64) + 1
    taps = int(np.ceil(2.0 * support)) + 2
    idx = left[:, None] + np.arange(taps)[None, :]
    weights = cubic_kernel((centers[:, None] - idx) * kscale)
    weights /= weights.sum(axis=1, keepdims=True)
    idx = np.clip(idx, 0, in_size - 1)
    mat = np.zeros((out_size, in_size), dtype=np.float64)
    np.add.at(mat, (np.repeat(np.arange(out_size), taps), idx.ravel()), weights.ravel())
    return mat


def bicubic_resize(planes: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize float planes over the last two axes to (out_h, out_w)."""
    planes = np.asarray(planes)
    if planes.ndim < 2:
        raise DimensionError(f"bicubic_resize needs at least 2 dims, got {planes.shape}")
    h, w = planes.shape[-2:]
    wr = resize_weights(h, out_h).astype(planes.dtype, copy=False)
    wc = resize_weights(w, out_w).astype(planes.dtype, copy=False)
    lead = planes.shape[:-2]
    flat = planes.reshape((-1, h, w))
    rows = np.matmul(wr[None], flat)
    out = np.matmul(rows, wc.T[None])
    return out.reshape(lead + (out_h, out_w))


def crop_to_scale(planes: np.ndarray, scale: int, name: str) -> np.ndarray:
    """Center-crop the last two axes down to multiples of ``scale``.

    Raises DataError, naming ``name``, when a side is shorter than ``scale``.
    """
    h, w = planes.shape[-2:]
    h2, w2 = (h // scale) * scale, (w // scale) * scale
    if h2 < scale or w2 < scale:
        raise DataError(f"{name}: {w}x{h} too small for scale {scale}")
    oy, ox = (h - h2) // 2, (w - w2) // 2
    return planes[..., oy : oy + h2, ox : ox + w2]
