"""Differentiable kernels over rank-4 tensors.

Everything the network needs: stride-1 convolution (dense, 1x1, depthwise),
adaptive pooling, nearest-neighbour resampling, pixel shuffle, activations,
channel-wise normalizations, and channel split/concat.  Each kernel is a pure
function; the backward closure captures only what the analytic
vector-Jacobian product needs.

Dense convolution runs as shifted GEMMs on the NCHW layout: every kernel tap
is one batched matrix product over the input channels, and the taps are
accumulated row-major into one output buffer.  A 1x1 kernel without padding
is a single such product on the input itself, with no copy.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, expit

from .errors import DimensionError
from .tensor import Tensor, make_result

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Abramowitz-Stegun 7.1.26 rational erf, max absolute error 1.5e-7 -- at the
# representation limit of float32, which is the only dtype routed through it.
_AS_P = 0.3275911
_AS_COEFFS = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)


def _erf_f32(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    t = 1.0 / (1.0 + _AS_P * ax)
    poly = _AS_COEFFS[4]
    for c in reversed(_AS_COEFFS[:4]):
        poly = poly * t + c
    y = 1.0 - poly * t * np.exp(-ax * ax)
    return np.copysign(y, x).astype(np.float32, copy=False)


def _erf(x: np.ndarray) -> np.ndarray:
    if x.dtype == np.float32:
        return _erf_f32(x)
    return erf(x)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """Stride-1 2-D cross-correlation with zero padding.

    ``groups`` is 1 (dense, weight (c_out, c_in, k, k)) or c_in == c_out
    (depthwise, weight (c, 1, k, k)); ``stride`` must be 1.  Accumulation runs
    in a fixed order, so the result is reproducible bit-for-bit across runs:
    each kernel tap is first reduced over the input channels (one batched
    GEMM per tap for dense kernels, one elementwise product for depthwise),
    then the taps are summed in row-major order.  A dense tap's weight
    gradient is reduced over pixels by a GEMM, then over the batch.
    """
    n, c_in, h, w = x.data.shape
    c_out, c_in_g, kh, kw = weight.data.shape
    if stride != 1:
        raise DimensionError(f"conv2d: only stride 1 is supported, got {stride}")
    depthwise = groups == c_in == c_out
    if not (groups == 1 or depthwise):
        raise DimensionError(
            f"conv2d: groups must be 1 or c_in == c_out, got {groups} for {c_in} -> {c_out} channels"
        )
    if c_in_g != c_in // groups:
        raise DimensionError(
            f"conv2d: weight expects {c_in_g} channels per group, input provides {c_in // groups}"
        )
    if bias is not None and bias.data.shape != (c_out,):
        raise DimensionError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")
    oh = h + 2 * padding - kh + 1
    ow = w + 2 * padding - kw + 1
    if oh <= 0 or ow <= 0:
        raise DimensionError(f"conv2d: output would be empty for input {h}x{w}")

    if depthwise:
        out, backward = _depthwise_conv(x, weight, padding, oh, ow)
    else:
        out, backward = _dense_conv(x, weight, padding, oh, ow)

    if bias is None:
        return make_result(out, (x, weight), backward)

    out += bias.data[None, :, None, None]

    def backward_with_bias(g):
        gx, gw = backward(g)
        return gx, gw, g.sum(axis=(0, 2, 3))

    return make_result(out, (x, weight, bias), backward_with_bias)


def _pad_input(x_data: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x_data
    n, c, h, w = x_data.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x_data.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = x_data
    return out


def _depthwise_conv(x, weight, padding, oh, ow):
    # One filter per channel: accumulate the k*k taps as shifted broadcasts.
    # Each tap product goes into one reused scratch buffer.
    n, c, h, w = x.data.shape
    _, _, kh, kw = weight.data.shape
    xp = _pad_input(x.data, padding)
    w_data = weight.data[:, 0]  # (c, kh, kw)
    out = np.zeros((n, c, oh, ow), dtype=x.data.dtype)
    prod = np.empty((n, c, oh, ow), dtype=np.result_type(xp, w_data))
    for di in range(kh):
        for dj in range(kw):
            tap = xp[:, :, di : di + oh, dj : dj + ow]
            out += np.multiply(tap, w_data[None, :, di, dj, None, None], out=prod)

    def backward(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(weight.data)
        gprod = np.empty(g.shape, dtype=np.result_type(g, xp, w_data))
        for di in range(kh):
            for dj in range(kw):
                tap = xp[:, :, di : di + oh, dj : dj + ow]
                dw[:, 0, di, dj] = np.multiply(g, tap, out=gprod).sum(axis=(0, 2, 3))
                dxp[:, :, di : di + oh, dj : dj + ow] += np.multiply(
                    g, w_data[None, :, di, dj, None, None], out=gprod
                )
        dx = dxp if padding == 0 else dxp[:, :, padding:-padding, padding:-padding]
        return dx, dw

    return out, backward


def _dense_conv(x, weight, padding, oh, ow):
    # The zero-padded input is flattened per channel to one row of hp*wp + kw - 1
    # values.  Output pixel (i, j) at padded width wp then reads tap (di, dj)
    # at flat index i*wp + j + di*wp + dj, so each tap is one batched GEMM over
    # a shifted window of oh*wp columns; the wp - ow columns per row that wrap
    # into the next row are cropped at the end.
    n, c_in, h, w = x.data.shape
    c_out, _, kh, kw = weight.data.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    span = oh * wp
    offsets = [di * wp + dj for di in range(kh) for dj in range(kw)]
    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(kh * kw, c_out, c_in)
    if padding == 0 and kw == 1:
        xp = x.data.reshape(n, c_in, h * w)  # already in the flattened layout
    else:
        xp = np.zeros((n, c_in, hp * wp + kw - 1), dtype=x.data.dtype)
        xp[:, :, : hp * wp].reshape(n, c_in, hp, wp)[
            :, :, padding : padding + h, padding : padding + w
        ] = x.data

    out = np.matmul(taps[0], xp[:, :, :span])
    prod = np.empty_like(out) if len(offsets) > 1 else None
    for t in range(1, len(offsets)):
        off = offsets[t]
        out += np.matmul(taps[t], xp[:, :, off : off + span], out=prod)
    out = out.reshape(n, c_out, oh, wp)[:, :, :, :ow]

    def backward(g):
        if wp == ow:
            gp = g.reshape(n, c_out, span)
        else:  # zero gradient on the wrapped columns
            gp = np.zeros((n, c_out, oh, wp), dtype=g.dtype)
            gp[:, :, :, :ow] = g
            gp = gp.reshape(n, c_out, span)
        dw = np.stack([
            np.matmul(gp, xp[:, :, off : off + span].transpose(0, 2, 1)).sum(axis=0)
            for off in offsets
        ])
        if len(offsets) == 1:
            dxp = np.matmul(taps[0].T, gp)
        else:
            dxp = np.zeros(xp.shape, dtype=np.result_type(taps, gp))
            prod = np.empty((n, c_in, span), dtype=dxp.dtype)
            for t, off in enumerate(offsets):
                dxp[:, :, off : off + span] += np.matmul(taps[t].T, gp, out=prod)
        dx = dxp[:, :, : hp * wp].reshape(n, c_in, hp, wp)
        dx = dx[:, :, padding : padding + h, padding : padding + w]
        return dx, dw.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1)

    return np.ascontiguousarray(out), backward


def _pool_bounds(in_size: int, out_size: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(out_size, dtype=np.int64)
    starts = (idx * in_size) // out_size
    ends = -(-((idx + 1) * in_size) // out_size)  # ceil division
    return starts, ends


def _check_pool_size(h, w, out_h, out_w, op):
    if not (1 <= out_h <= h and 1 <= out_w <= w):
        raise DimensionError(f"{op}: output {out_h}x{out_w} invalid for input {h}x{w}")


def adaptive_max_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive max pooling with floor-start / ceil-end regions.

    The gradient routes to the first maximal element of each region in
    row-major order.
    """
    n, c, h, w = x.data.shape
    _check_pool_size(h, w, out_h, out_w, "adaptive_max_pool")

    if h % out_h == 0 and w % out_w == 0:
        kh, kw = h // out_h, w // out_w
        blocks = x.data.reshape(n, c, out_h, kh, out_w, kw).transpose(0, 1, 2, 4, 3, 5)
        flat = np.ascontiguousarray(blocks).reshape(n, c, out_h, out_w, kh * kw)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

        def backward(g):
            dflat = np.zeros((n, c, out_h, out_w, kh * kw), dtype=g.dtype)
            np.put_along_axis(dflat, arg[..., None], g[..., None], axis=-1)
            d6 = dflat.reshape(n, c, out_h, out_w, kh, kw).transpose(0, 1, 2, 4, 3, 5)
            return (d6.reshape(n, c, h, w),)

        return make_result(out, (x,), backward)

    rs, re = _pool_bounds(h, out_h)
    cs, ce = _pool_bounds(w, out_w)
    out = np.empty((n, c, out_h, out_w), dtype=x.data.dtype)
    arg_r = np.empty((n, c, out_h, out_w), dtype=np.int64)
    arg_c = np.empty_like(arg_r)
    for i in range(out_h):
        for j in range(out_w):
            region = x.data[:, :, rs[i] : re[i], cs[j] : ce[j]]
            rw = region.shape[3]
            flat_idx = region.reshape(n, c, -1).argmax(axis=2)
            out[:, :, i, j] = region.reshape(n, c, -1)[
                np.arange(n)[:, None], np.arange(c)[None, :], flat_idx
            ]
            arg_r[:, :, i, j] = rs[i] + flat_idx // rw
            arg_c[:, :, i, j] = cs[j] + flat_idx % rw

    def backward(g):
        dx = np.zeros_like(x.data)
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(dx, (nn, cc, arg_r, arg_c), g)
        return (dx,)

    return make_result(out, (x,), backward)


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive average pooling over the same regions as the max variant."""
    n, c, h, w = x.data.shape
    _check_pool_size(h, w, out_h, out_w, "adaptive_avg_pool")

    if h % out_h == 0 and w % out_w == 0:
        kh, kw = h // out_h, w // out_w
        out = x.data.reshape(n, c, out_h, kh, out_w, kw).mean(axis=(3, 5))

        def backward(g):
            dx = np.broadcast_to(
                g[:, :, :, None, :, None] / (kh * kw), (n, c, out_h, kh, out_w, kw)
            )
            return (dx.reshape(n, c, h, w).copy(),)

        return make_result(out, (x,), backward)

    rs, re = _pool_bounds(h, out_h)
    cs, ce = _pool_bounds(w, out_w)
    out = np.empty((n, c, out_h, out_w), dtype=x.data.dtype)
    for i in range(out_h):
        for j in range(out_w):
            out[:, :, i, j] = x.data[:, :, rs[i] : re[i], cs[j] : ce[j]].mean(axis=(2, 3))

    def backward(g):
        dx = np.zeros_like(x.data)
        for i in range(out_h):
            for j in range(out_w):
                area = (re[i] - rs[i]) * (ce[j] - cs[j])
                dx[:, :, rs[i] : re[i], cs[j] : ce[j]] += (g[:, :, i, j] / area)[:, :, None, None]
        return (dx,)

    return make_result(out, (x,), backward)


def nearest_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbour resampling: output (i, j) copies input
    (floor(i*h/out_h), floor(j*w/out_w)).  Handles both up- and downsampling.
    """
    n, c, h, w = x.data.shape
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"nearest_resize: output {out_h}x{out_w} invalid")
    src_r = (np.arange(out_h, dtype=np.int64) * h) // out_h
    src_c = (np.arange(out_w, dtype=np.int64) * w) // out_w
    out = x.data[:, :, src_r[:, None], src_c[None, :]]

    def backward(g):
        if out_h >= h and out_w >= w:
            # Pre-images along each axis are contiguous runs; sum them.
            rb = (np.arange(h, dtype=np.int64) * out_h + h - 1) // h
            cb = (np.arange(w, dtype=np.int64) * out_w + w - 1) // w
            dx = np.add.reduceat(g, rb, axis=2)
            dx = np.add.reduceat(dx, cb, axis=3)
            return (np.ascontiguousarray(dx),)
        dx = np.zeros_like(x.data)
        flat_idx = (src_r[:, None] * w + src_c[None, :]).ravel()
        dx2 = dx.reshape(n * c, h * w)
        np.add.at(dx2, (slice(None), flat_idx), g.reshape(n * c, out_h * out_w))
        return (dx,)

    return make_result(np.ascontiguousarray(out), (x,), backward)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange r*r channel groups into an r-times larger spatial grid."""
    n, c, h, w = x.data.shape
    if r < 1 or c % (r * r):
        raise DimensionError(f"pixel_shuffle: {c} channels not divisible by r^2={r * r}")
    c2 = c // (r * r)
    out = (
        x.data.reshape(n, c2, r, r, h, w)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, c2, h * r, w * r)
    )

    def backward(g):
        dx = (
            g.reshape(n, c2, h, r, w, r)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(n, c, h, w)
        )
        return (np.ascontiguousarray(dx),)

    return make_result(np.ascontiguousarray(out), (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Erf-form GELU: x * Phi(x)."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    x_data = x.data

    def backward(g):
        pdf = np.exp(-0.5 * x_data * x_data) * _INV_SQRT2PI
        return (g * (cdf + x_data * pdf),)

    return make_result(x_data * cdf, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    s = expit(x.data)

    def backward(g):
        return (g * s * (1.0 - s),)

    return make_result(s, (x,), backward)


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """LayerNorm over the channel axis at every spatial position.

    Uses population variance; learned scale/shift are per channel.
    """
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(f"layer_norm_channels: affine params must have shape ({c},)")
    if eps <= 0:
        raise ValueError("layer_norm_channels: eps must be positive")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    g4 = gamma.data[None, :, None, None]
    out = g4 * xhat + beta.data[None, :, None, None]

    def backward(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * g4
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return make_result(out, (x, gamma, beta), backward)


def batch_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization with batch statistics (always batch-stat mode)."""
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(f"batch_norm_channels: affine params must have shape ({c},)")
    mu = x.data.mean(axis=(0, 2, 3), keepdims=True)
    var = x.data.var(axis=(0, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    g4 = gamma.data[None, :, None, None]
    out = g4 * xhat + beta.data[None, :, None, None]
    m = n * h * w

    def backward(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * g4
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True) / m
        s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True) / m
        dx = inv * (dxhat - s1 - xhat * s2)
        return dx, dgamma, dbeta

    return make_result(out, (x, gamma, beta), backward)


def frozen_batch_norm_channels(x: Tensor, eps: float = 1e-5) -> Tensor:
    """BatchNorm with frozen unit statistics and identity affine (no params)."""
    factor = 1.0 / math.sqrt(1.0 + eps)

    def backward(g):
        return (g * factor,)

    return make_result(x.data * factor, (x,), backward)


def l2_normalize_channels(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each channel vector to unit L2 norm at every spatial position."""
    sq = (x.data * x.data).sum(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(sq + eps)
    out = x.data * inv
    x_data = x.data

    def backward(g):
        dot = (g * x_data).sum(axis=1, keepdims=True)
        return (g * inv - x_data * (dot * inv**3),)

    return make_result(out, (x,), backward)


def split_channels(x: Tensor, parts: int) -> list[Tensor]:
    """Split into ``parts`` contiguous equal channel ranges."""
    n, c, h, w = x.data.shape
    if parts < 1 or c % parts:
        raise DimensionError(f"split_channels: {c} channels not divisible into {parts} parts")
    step = c // parts
    outs = []
    for p in range(parts):
        lo = p * step

        def backward(g, lo=lo):
            dx = np.zeros_like(x.data)
            dx[:, lo : lo + step] = g
            return (dx,)

        outs.append(make_result(x.data[:, lo : lo + step].copy(), (x,), backward))
    return outs


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis; exact inverse of split_channels."""
    if not parts:
        raise DimensionError("concat_channels: empty input list")
    n, _, h, w = parts[0].data.shape
    for p in parts[1:]:
        pn, _, ph, pw = p.data.shape
        if (pn, ph, pw) != (n, h, w):
            raise DimensionError("concat_channels: batch/spatial dims differ across parts")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(widths)))

    return make_result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes, keeping a (n, c, 1, 1) shape."""
    return adaptive_avg_pool(x, 1, 1)
