"""Differentiable kernels over rank-4 tensors.

Everything the network needs: stride-1 convolution (dense, 1x1, depthwise),
adaptive pooling, nearest-neighbour resampling, pixel shuffle, activations,
channel-wise normalizations, and channel split/concat.  Each kernel is a pure
function; the backward closure captures only what the analytic
vector-Jacobian product needs.

Both convolution kinds run on one shifted layout: the zero-padded input is
flattened per channel, every kernel tap reads a window of it at a fixed
offset, and the taps are accumulated row-major into one output buffer.  A
dense tap is one batched matrix product over the input channels, a depthwise
tap one per-channel multiply.  A 1x1 kernel without padding reads the input
itself, with no copy.  LayerNorm and BatchNorm share one standardization
kernel and differ only in the axes their statistics reduce over.  GELU's
elementwise chain runs in place over cache-sized blocks of the flattened
input: evaluated on whole planes, each of its ~20 steps would stream a
full-size temporary through main memory, which dominated its cost.

Resampling routes elements through flat indices: a forward is one gather
from each flattened (h*w) input plane, its backward one scatter-add into a
zeroed gradient, which sums the cells that share a source.  Nearest
resizing gathers output (i, j) from input (floor(i*h/oh), floor(j*w/ow)).
Adaptive pooling has one region layout for every input and output size:
output cell (i, j) covers rows floor(i*h/oh) to ceil((i+1)*h/oh) and the
matching columns.  Max pooling gathers each region into a row of length K,
the largest region area.  A shorter region is padded by repeating its last
row and column: a repeated element always comes after its original in
row-major order, so ``argmax`` still picks the first maximum of the real
region, which is where the gradient is scattered.  Average pooling is the
exception: it applies one averaging matrix per axis to the same regions,
since two small GEMMs beat gathering and summing K elements per cell.

``scipy.special`` is imported inside the two kernels that use it, float64
GELU and ``sigmoid``: loading it costs about 0.3 s, which every process
would otherwise pay whether or not it reaches either kernel.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, make_result

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Abramowitz-Stegun 7.1.26 rational erf, max absolute error 1.5e-7 -- at the
# representation limit of float32, which is the only dtype routed through it.
_AS_P = 0.3275911
_AS_COEFFS = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)

# Elements per block of GELU's elementwise chain: a block and its scratch
# buffers (256 KB each in float32) stay resident in a core's L2 cache.
_BLOCK = 65536

# Variance epsilons of the channel norms.
LN_EPS = 1e-6
BN_EPS = 1e-5


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

    out, backward = _shifted_conv(x, weight, padding, oh, ow, depthwise)
    if bias is None:
        return make_result(out, (x, weight), backward)

    out += bias.data[None, :, None, None]

    def backward_with_bias(g):
        gx, gw = backward(g)
        return gx, gw, g.sum(axis=(0, 2, 3))

    return make_result(out, (x, weight, bias), backward_with_bias)


def _shifted_conv(x, weight, padding, oh, ow, depthwise):
    # The zero-padded input is flattened per channel to one row of hp*wp + kw - 1
    # values.  Output pixel (i, j) at padded width wp then reads tap (di, dj)
    # at flat index i*wp + j + di*wp + dj, so each tap is one product over a
    # shifted window of oh*wp columns; the wp - ow columns per row that wrap
    # into the next row are cropped at the end.  A dense tap is a (c_out, c_in)
    # matrix applied by a batched GEMM, a depthwise tap a (c, 1) column applied
    # by a broadcast multiply, which is its own transpose.
    n, c_in, h, w = x.data.shape
    c_out, _, kh, kw = weight.data.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    span = oh * wp
    offsets = [di * wp + dj for di in range(kh) for dj in range(kw)]
    taps = np.ascontiguousarray(weight.data.transpose(2, 3, 0, 1)).reshape(kh * kw, c_out, -1)
    if depthwise:
        product, taps_t = np.multiply, taps

        def tap_grad(gp, xs):
            return np.multiply(gp, xs).sum(axis=(0, 2))[:, None]
    else:
        product, taps_t = np.matmul, taps.transpose(0, 2, 1)

        def tap_grad(gp, xs):
            return np.matmul(gp, xs.transpose(0, 2, 1)).sum(axis=0)

    if padding == 0 and kw == 1:
        xp = x.data.reshape(n, c_in, h * w)  # already in the flattened layout
    else:
        xp = np.zeros((n, c_in, hp * wp + kw - 1), dtype=x.data.dtype)
        xp[:, :, : hp * wp].reshape(n, c_in, hp, wp)[
            :, :, padding : padding + h, padding : padding + w
        ] = x.data

    out = product(taps[0], xp[:, :, :span])
    prod = np.empty_like(out) if len(offsets) > 1 else None
    for t in range(1, len(offsets)):
        off = offsets[t]
        out += product(taps[t], xp[:, :, off : off + span], out=prod)
    out = out.reshape(n, c_out, oh, wp)[:, :, :, :ow]

    def backward(g):
        if wp == ow:
            gp = g.reshape(n, c_out, span)
        else:  # zero gradient on the wrapped columns
            gp = np.zeros((n, c_out, oh, wp), dtype=g.dtype)
            gp[:, :, :, :ow] = g
            gp = gp.reshape(n, c_out, span)
        dw = np.stack([tap_grad(gp, xp[:, :, off : off + span]) for off in offsets])
        if len(offsets) == 1:
            dxp = product(taps_t[0], gp)
        else:
            dxp = np.zeros(xp.shape, dtype=np.result_type(taps, gp))
            prod = np.empty((n, c_in, span), dtype=dxp.dtype)
            for t, off in enumerate(offsets):
                dxp[:, :, off : off + span] += product(taps_t[t], gp, out=prod)
        dx = dxp[:, :, : hp * wp].reshape(n, c_in, hp, wp)
        dx = dx[:, :, padding : padding + h, padding : padding + w]
        return dx, dw.reshape(kh, kw, c_out, -1).transpose(2, 3, 0, 1)

    return np.ascontiguousarray(out), backward


def _gather(x, idx):
    # (n, c, *idx.shape): element k of each output plane is element idx[k]
    # of the matching flattened (h*w) input plane.
    n, c, h, w = x.shape
    return np.take(x.reshape(n, c, h * w), idx, axis=2)


def _scatter_add(g, src, shape):
    # The transpose of _gather: g[n, c, i, j] is added into dx at plane index
    # src[..., i, j].  ``src`` broadcasts to g's shape and is offset per
    # (n, c) plane, so one 1-D add.at sums colliding entries in row-major
    # order of g.
    n, c, h, w = shape
    plane = np.arange(n * c, dtype=np.int64).reshape(n, c, 1, 1) * (h * w)
    dx = np.zeros(n * c * h * w, dtype=g.dtype)
    np.add.at(dx, (plane + src).reshape(-1), g.reshape(-1))
    return dx.reshape(shape)


def _pool_regions(x, out_h, out_w, op):
    # Output cell (i, j) reduces rows [rs[i], re[i]) and columns [cs[j], ce[j])
    # of its input plane: floor start, ceil end, so when a size does not
    # divide, neighbouring regions overlap by at most one row or column.
    h, w = x.data.shape[2:]
    if not (1 <= out_h <= h and 1 <= out_w <= w):
        raise DimensionError(f"{op}: output {out_h}x{out_w} invalid for input {h}x{w}")

    def bounds(size, out):
        idx = np.arange(out, dtype=np.int64)
        return (idx * size) // out, -(-((idx + 1) * size) // out)

    return bounds(h, out_h), bounds(w, out_w)


def adaptive_max_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive max pooling with floor-start / ceil-end regions.

    The gradient routes to the first maximal element of each region in
    row-major order.
    """
    (rs, re), (cs, ce) = _pool_regions(x, out_h, out_w, "adaptive_max_pool")
    # Flat input index of every region element, (out_h, out_w, kh*kw); a
    # shorter region repeats its last row and column up to the largest one.
    kh, kw = int((re - rs).max()), int((ce - cs).max())
    rows = np.minimum(rs[:, None] + np.arange(kh), re[:, None] - 1)
    cols = np.minimum(cs[:, None] + np.arange(kw), ce[:, None] - 1)
    shape = x.data.shape
    idx = rows[:, None, :, None] * shape[3] + cols[None, :, None, :]
    idx = idx.reshape(out_h, out_w, kh * kw)
    windows = _gather(x.data, idx)
    arg = windows.argmax(axis=-1)[..., None]
    out = np.take_along_axis(windows, arg, axis=-1)[..., 0]

    def backward(g):
        # Each cell's gradient goes to the flat index of its maximum.
        src = np.take_along_axis(idx[None, None], arg, axis=-1)[..., 0]
        return (_scatter_add(g, src, shape),)

    return make_result(out, (x,), backward)


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive average pooling over the same regions as the max variant."""
    h, w = x.data.shape[2:]
    regions = _pool_regions(x, out_h, out_w, "adaptive_avg_pool")
    # One (out, size) averaging matrix per axis: row i holds 1/len over
    # region i, so the pool is m_h @ x @ m_w.T and its transpose the backward.
    def averaging(size, starts, ends):
        p = np.arange(size)
        inside = (p >= starts[:, None]) & (p < ends[:, None])
        return (inside / (ends - starts)[:, None]).astype(x.data.dtype)

    m_h, m_w = (averaging(size, *b) for size, b in zip((h, w), regions))
    out = m_h @ x.data @ m_w.T

    def backward(g):
        return (m_h.T @ g @ m_w,)

    return make_result(out, (x,), backward)


def nearest_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Nearest-neighbour resampling: output (i, j) copies input
    (floor(i*h/out_h), floor(j*w/out_w)).  Handles both up- and downsampling.
    """
    shape = x.data.shape
    h, w = shape[2:]
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"nearest_resize: output {out_h}x{out_w} invalid")
    src_r = (np.arange(out_h, dtype=np.int64) * h) // out_h
    src_c = (np.arange(out_w, dtype=np.int64) * w) // out_w
    idx = src_r[:, None] * w + src_c

    def backward(g):
        return (_scatter_add(g, idx, shape),)

    return make_result(_gather(x.data, idx), (x,), backward)


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
    """Erf-form GELU: x * Phi(x), with Phi(x) = (1 + erf(x / sqrt 2)) / 2.

    Forward and backward run over the flattened input in blocks of
    ``_BLOCK`` elements, in place through reused scratch buffers.  Only
    ``x`` and ``Phi(x)`` are kept for the backward pass.
    """
    x_data = x.data
    size = x_data.size
    xf = x_data.reshape(-1)
    out = np.empty(x_data.shape, dtype=x_data.dtype)
    cdf = np.empty(size, dtype=x_data.dtype)
    of = out.reshape(-1)
    z, a, t = (np.empty(min(size, _BLOCK), dtype=x_data.dtype) for _ in range(3))
    erf = None
    if x_data.dtype != np.float32:
        from scipy.special import erf
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        m = hi - lo
        _normal_cdf(xf[lo:hi], cdf[lo:hi], z[:m], a[:m], t[:m], erf)
        np.multiply(xf[lo:hi], cdf[lo:hi], out=of[lo:hi])

    def backward(g):
        gf = g.reshape(-1)
        dx = np.empty(g.shape, dtype=np.result_type(g, cdf))
        df = dx.reshape(-1)
        s = np.empty(min(size, _BLOCK), dtype=cdf.dtype)
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            xb, sb = xf[lo:hi], s[: hi - lo]
            # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi)
            np.multiply(-0.5, xb, out=sb)
            sb *= xb
            np.exp(sb, out=sb)
            sb *= _INV_SQRT2PI
            sb *= xb
            sb += cdf[lo:hi]
            np.multiply(gf[lo:hi], sb, out=df[lo:hi])
        return (dx,)

    return make_result(out, (x,), backward)


def _normal_cdf(x, y, z, a, t, erf):
    # y = Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) for one block, through the
    # block-sized scratch z, a, t.  float32 takes the Abramowitz-Stegun erf,
    # erf(z) = sign(z) * (1 - poly(u) * u * exp(-z^2)), u = 1 / (1 + p|z|);
    # float64 takes scipy's, which the caller passes in as ``erf``.
    np.multiply(x, _INV_SQRT2, out=z)
    if x.dtype == np.float32:
        np.abs(z, out=a)
        np.multiply(_AS_P, a, out=t)
        np.add(1.0, t, out=t)
        np.divide(1.0, t, out=t)
        y.fill(_AS_COEFFS[4])
        for c in reversed(_AS_COEFFS[:4]):
            y *= t
            y += c
        y *= t
        np.negative(a, out=t)
        t *= a
        np.exp(t, out=t)
        y *= t
        np.subtract(1.0, y, out=y)
        np.copysign(y, z, out=y)
    else:
        erf(z, out=y)
    y += 1.0
    y *= 0.5


def sigmoid(x: Tensor) -> Tensor:
    from scipy.special import expit

    s = expit(x.data)

    def backward(g):
        return (g * s * (1.0 - s),)

    return make_result(s, (x,), backward)


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LN_EPS) -> Tensor:
    """LayerNorm over the channel axis at every spatial position.

    Uses population variance; learned scale/shift are per channel.
    """
    return _standardize(x, gamma, beta, eps, (1,))


def batch_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = BN_EPS) -> Tensor:
    """Per-channel normalization with batch statistics (always batch-stat mode)."""
    return _standardize(x, gamma, beta, eps, (0, 2, 3))


def _standardize(x, gamma, beta, eps, axes):
    # Subtract the mean and divide by the population standard deviation over
    # ``axes``, then apply the per-channel affine gamma * xhat + beta.
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(f"channel norm: affine params must have shape ({c},)")
    if eps <= 0:
        raise ValueError("channel norm: eps must be positive")
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    g4 = gamma.data[None, :, None, None]
    out = g4 * xhat + beta.data[None, :, None, None]

    def backward(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * g4
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return make_result(out, (x, gamma, beta), backward)


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
    """Split into ``parts`` contiguous equal channel ranges.

    Each part is a view of ``x``; no kernel writes into its input.
    """
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

        outs.append(make_result(x.data[:, lo : lo + step], (x,), backward))
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

