"""Differentiable kernels over rank-4 tensors.

Everything the network needs: stride-1 convolution (dense, 1x1, depthwise),
adaptive pooling, nearest-neighbour resampling, pixel shuffle, activations,
channel-wise normalizations, and channel split/concat.  Each kernel is a pure
function; the backward closure captures only what the analytic
vector-Jacobian product needs.

Both convolution kinds run one strip loop over the output rows.  A strip's
zero-padded input rows are flattened per channel, so every kernel tap reads
a window of them at a fixed offset.  A dense strip copies its windows
tap-major into one workspace and reduces taps and input channels together in
a single GEMM; a depthwise strip sums per-channel multiplies tap by tap.
The cropped strip goes straight into the output, and every workspace lives
for one call only, so memory beyond the output is bounded by the strip, not
the image.  A 1x1 kernel without padding is a single strip that reads the
input itself, with no copy.  The input gradient is the same strip loop run
on the output gradient; the weight gradient is whole-image and per tap.

Kernels build state that only their backward pass reads (GELU's Phi(x),
LayerNorm's xhat next to its output) only when ``tensor.records`` says the
result will be recorded; otherwise they work in place or in block scratch.
LayerNorm and BatchNorm share one standardization kernel and differ only in
the axes their statistics reduce over.  GELU's elementwise chain runs in
place over cache-sized blocks of the flattened input: evaluated on whole
planes, each of its ~20 steps would stream a full-size temporary through
main memory, which dominated its cost.

Resampling routes elements through flat indices: a forward is one gather
from each flattened (h*w) input plane, its backward one scatter-add into a
zeroed gradient, which sums the cells that share a source.  Nearest
resizing gathers output (i, j) from input (floor(i*h/oh), floor(j*w/ow)).
Adaptive pooling has one region layout for every input and output size:
output cell (i, j) covers rows floor(i*h/oh) to ceil((i+1)*h/oh) and the
matching columns.  Max pooling gathers one plane per region offset, K
planes for the largest region area, and reduces them elementwise; a shorter
region repeats its last row and column, which changes no maximum.  Its
backward recomputes the windows and scatters each cell's gradient to the
lowest flat index holding the maximum, which is the first maximum in
row-major order.  Average pooling is the exception: it applies one
averaging matrix per axis to the same regions, since two small GEMMs beat
gathering and summing K elements per cell.

``scipy.special`` is imported inside float64 GELU, its only user: loading it
costs about 0.3 s, which every process would otherwise pay whether or not it
reaches that kernel.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, make_result, records

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Abramowitz-Stegun 7.1.26 rational erf, max absolute error 1.5e-7 -- at the
# representation limit of float32, which is the only dtype routed through it:
# erf(z) = 1 - poly(u) * u * exp(-z^2) for z >= 0, u = 1 / (1 + p z).  GELU
# evaluates it at z = |x| / sqrt 2 and wants (1 - erf(z)) / 2, so it takes p
# over sqrt 2 and the coefficients halved.
_AS_P = 0.3275911
_AS_COEFFS = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
_GELU_P = _AS_P * _INV_SQRT2
_GELU_COEFFS = tuple(0.5 * c for c in _AS_COEFFS)

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
    in a fixed order, so the result is reproducible bit-for-bit across runs.
    Output rows are computed strip by strip.  A dense strip is one GEMM over
    k*k*c_in products in tap-major order (all input channels of tap
    (0, 0), then of tap (0, 1), ...); a depthwise strip multiplies each tap
    per channel and sums the taps in row-major order.  The bias is added
    last.  The input gradient, computed only when the input requires one, is
    this convolution of the output gradient with the kernel rotated by 180
    degrees.  A dense tap's weight gradient is reduced over pixels by a GEMM,
    then over the batch; a depthwise tap's by one einsum over both.
    """
    n, c_in, h, w = x.data.shape
    c_out, c_in_g, kh, kw = weight.data.shape
    if stride != 1:
        raise DimensionError(f"conv2d: only stride 1 is supported, got {stride}")
    if kh != kw:
        raise DimensionError(f"conv2d: only square kernels are supported, got {kh}x{kw}")
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

    b = None if bias is None else bias.data
    out, backward = _shifted_conv(x.data, weight.data, b, padding, oh, ow, depthwise, x.requires_grad)
    return make_result(out, (x, weight) if bias is None else (x, weight, bias), backward)


def strip_rows(wp: int) -> int:
    """Rows per strip of a row-strip loop over planes ``wp`` values wide.

    At least 4096 values per strip keeps a strip's GEMM wide, and at least
    16 rows bounds the halo rows that neighbouring strips both read.
    """
    return max(16, -(-4096 // wp))


def padded_rows(x, padding, p0, p1, kw, buf=None):
    """Rows [p0, p1) of the zero-padded input, flattened per channel to
    (p1 - p0)*wp values plus kw - 1 trailing zeros for the wrapped windows
    of the last row.  Without padding and with kw == 1 this is a view of x;
    otherwise it is written into the leading columns of ``buf``, an
    (n, c, >= that many) workspace, or into a fresh array when None."""
    n, c, h, w = x.shape
    wp = w + 2 * padding
    m = (p1 - p0) * wp
    if padding == 0 and kw == 1:
        return x.reshape(n, c, h * w)[:, :, p0 * w : p0 * w + m]
    if buf is None:
        xp = np.zeros((n, c, m + kw - 1), dtype=x.dtype)
    else:
        xp = buf[:, :, : m + kw - 1]
        xp.fill(0)
    lo, hi = max(p0, padding), min(p1, padding + h)  # padded rows holding input rows
    rows = xp[:, :, :m].reshape(n, c, p1 - p0, wp)
    rows[:, :, lo - p0 : hi - p0, padding : padding + w] = x[:, :, lo - padding : hi - padding]
    return xp


def _shifted_conv(x, weight, bias, padding, oh, ow, depthwise, need_dx):
    # Output rows are computed in strips of R rows.  A strip's R + kh - 1
    # padded input rows are flattened per channel (padded_rows), so output
    # pixel (i, j) of the strip reads tap (di, dj) at flat index
    # i*wp + j + di*wp + dj: each tap is a window of R*wp columns at a fixed
    # offset, and the wp - ow columns per row that wrap into the next row are
    # cropped as the strip is stored, together with the bias.  A dense strip
    # copies its windows tap-major into a (kh*kw*c_in, R*wp) workspace for
    # one GEMM with the (c_out, kh*kw*c_in) weight; a depthwise strip
    # multiplies each window by its tap's (c, 1) column and sums the taps in
    # row-major order.  R is ``strip_rows(wp)``.
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    wp = w + 2 * padding
    ntaps = kh * kw
    offsets = [di * wp + dj for di in range(kh) for dj in range(kw)]
    dtype = np.result_type(x, weight)
    rows = oh if ntaps == 1 and padding == 0 else min(oh, strip_rows(wp))
    span = rows * wp
    out = np.empty((n, c_out, oh, ow), dtype=dtype)
    # Workspaces for one strip, reused by the next and released on return; a
    # shorter last strip uses their leading columns.
    strip = None
    if not (padding == 0 and kw == 1):
        strip = np.empty((n, c_in, span + (kh - 1) * wp + kw - 1), dtype=x.dtype)
    res = None if wp == ow else np.empty((n, c_out, span), dtype=dtype)
    if depthwise:
        taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(ntaps, c_out, 1)
        prod = np.empty((n, c_out, span), dtype=dtype) if ntaps > 1 else None
    else:
        wmat = np.ascontiguousarray(weight.transpose(0, 2, 3, 1)).reshape(c_out, -1)
        cols = np.empty((n, ntaps, c_in, span), dtype=x.dtype) if ntaps > 1 else None
    b = None if bias is None else bias[:, None, None]

    for r0 in range(0, oh, rows):
        r = min(rows, oh - r0)
        s = r * wp
        xs = padded_rows(x, padding, r0, r0 + r + kh - 1, kw, strip)
        rows_out = out[:, :, r0 : r0 + r]
        # Without wrapped columns the strip is computed in its output rows.
        dst = rows_out.reshape(n, c_out, s) if res is None else res[:, :, :s]
        if depthwise:
            np.multiply(taps[0], xs[:, :, :s], out=dst)
            for t in range(1, ntaps):
                off = offsets[t]
                dst += np.multiply(taps[t], xs[:, :, off : off + s], out=prod[:, :, :s])
        elif ntaps == 1:
            np.matmul(wmat, xs[:, :, :s], out=dst)
        else:
            ws = cols[..., :s]
            for t, off in enumerate(offsets):
                ws[:, t] = xs[:, :, off : off + s]
            np.matmul(wmat, ws.reshape(n, ntaps * c_in, s), out=dst)
        if res is not None:
            crop = dst.reshape(n, c_out, r, wp)[:, :, :, :ow]
            if b is None:
                rows_out[...] = crop
            else:
                np.add(crop, b, out=rows_out)
        elif b is not None:
            rows_out += b

    def tap_grad(gp, xs):
        if depthwise:
            return np.einsum("ncs,ncs->c", gp, xs)[:, None]
        return np.matmul(gp, xs.transpose(0, 2, 1)).sum(axis=0)

    def backward(g):
        # dx is this convolution of g with the kernel rotated by 180 degrees
        # (channel axes swapped when dense) and padding q = kh - 1 - padding;
        # for q < 0, g's outer -q rows and columns saw only padding and are
        # cropped.  A dense k x k kernel runs it one image at a time, so its
        # window workspace is one image large, not batch-sized.  dW is
        # whole-image and per tap, on a padded input rebuilt for the call.
        dx = None
        if need_dx:
            flipped = weight[:, :, ::-1, ::-1]
            if not depthwise:
                flipped = flipped.transpose(1, 0, 2, 3)
            q = kh - 1 - padding
            gq = g if q >= 0 else g[:, :, -q:q, -q:q]
            step = 1 if ntaps > 1 and not depthwise else n
            parts = [
                _shifted_conv(gq[i : i + step], flipped, None, max(q, 0), h, w, depthwise, False)[0]
                for i in range(0, n, step)
            ]
            dx = parts[0] if step == n else np.concatenate(parts)
        xp = padded_rows(x, padding, 0, h + 2 * padding, kw)
        span = oh * wp
        if wp == ow:
            gp = g.reshape(n, c_out, span)
        else:  # zero gradient on the wrapped columns
            gp = np.zeros((n, c_out, oh, wp), dtype=g.dtype)
            gp[:, :, :, :ow] = g
            gp = gp.reshape(n, c_out, span)
        dw = np.stack([tap_grad(gp, xp[:, :, off : off + span]) for off in offsets])
        dw = dw.reshape(kh, kw, c_out, -1).transpose(2, 3, 0, 1)
        return (dx, dw) if bias is None else (dx, dw, g.sum(axis=(0, 2, 3)))

    return out, backward


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
    row-major order, or to its first NaN where it holds one.  A tie between
    -0.0 and +0.0 may pool to either zero.
    """
    (rs, re), (cs, ce) = _pool_regions(x, out_h, out_w, "adaptive_max_pool")
    # Flat input index of every region element, offset-major (kh*kw, out_h,
    # out_w); a shorter region repeats its last row and column up to the
    # largest one.
    kh, kw = int((re - rs).max()), int((ce - cs).max())
    rows = np.minimum(rs + np.arange(kh)[:, None], re - 1)
    cols = np.minimum(cs + np.arange(kw)[:, None], ce - 1)
    shape = x.data.shape
    hw = shape[2] * shape[3]
    idx = (rows[:, None, :, None] * shape[3] + cols[None, :, None, :]).reshape(kh * kw, out_h, out_w)
    out = _gather(x.data, idx).max(axis=2)

    def backward(g):
        # Flat indices rise in row-major order, so a cell's first maximum is
        # the lowest index among its hits: the largest hw - index.
        windows = _gather(x.data, idx)
        hits = windows == out[:, :, None]
        if np.isnan(out).any():
            hits |= np.isnan(windows)
        rev = (hw - idx).astype(np.min_scalar_type(hw))
        src = hw - np.multiply(hits, rev).max(axis=2).astype(np.int64)
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
    ``_BLOCK`` elements, in place through reused scratch buffers.  Only when
    the result is recorded is ``Phi(x)`` kept, full size, for the backward
    pass; otherwise no state outlives its block.
    """
    x_data = x.data
    size = x_data.size
    xf = x_data.reshape(-1)
    out = np.empty(x_data.shape, dtype=x_data.dtype)
    of = out.reshape(-1)
    cdf = np.empty(size, dtype=x_data.dtype) if records((x,)) else None
    a, t, q = (np.empty(min(size, _BLOCK), dtype=x_data.dtype) for _ in range(3))
    erf = None
    if x_data.dtype != np.float32:
        from scipy.special import erf
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        m = hi - lo
        y = None if cdf is None else cdf[lo:hi]
        _gelu_block(xf[lo:hi], of[lo:hi], y, a[:m], t[:m], q[:m], erf)

    def backward(g):
        gf = g.reshape(-1)
        dx = np.empty(g.shape, dtype=np.result_type(g, cdf))
        df = dx.reshape(-1)
        s, c = (np.empty(min(size, _BLOCK), dtype=cdf.dtype) for _ in range(2))
        big = np.finfo(cdf.dtype).max
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            xb, sb, cb = xf[lo:hi], s[: hi - lo], c[: hi - lo]
            # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi).  x is
            # clamped to the finite range for the product, so that pdf * x
            # at x = +-inf is 0 * max = 0 rather than 0 * inf = NaN.
            np.multiply(-0.5, xb, out=sb)
            sb *= xb
            np.exp(sb, out=sb)
            sb *= _INV_SQRT2PI
            np.clip(xb, -big, big, out=cb)
            sb *= cb
            sb += cdf[lo:hi]
            np.multiply(gf[lo:hi], sb, out=df[lo:hi])
        return (dx,)

    return make_result(out, (x,), backward)


def _gelu_block(x, out, cdf, a, t, q, erf):
    # out = gelu(x) for one block, and cdf = Phi(x) unless it is None, through
    # the block-sized scratch a, t, q.  float64 takes scipy's erf, which the
    # caller passes in as ``erf``.  float32 takes the Abramowitz-Stegun erf at
    # |x| / sqrt 2, where 1 - Phi(|x|) = q = poly(u) * u * exp(-x^2 / 2) / 2
    # with u = 1 / (1 + p|x| / sqrt 2); so gelu(x) = max(x, 0) - |x| * q and
    # Phi(x) = 1/2 + copysign(1/2 - q, x).  |x| is clamped to the largest
    # finite value, where q is 0, so that |x| * q is 0 rather than inf * 0
    # at x = +-inf.  The float64 product x * Phi(x) likewise takes x raised
    # to -max, so that gelu(-inf) is -max * 0 = -0.0 rather than NaN.
    if erf is not None:
        y = q if cdf is None else cdf
        np.multiply(x, _INV_SQRT2, out=a)
        erf(a, out=y)
        y += 1.0
        y *= 0.5
        np.maximum(x, -np.finfo(a.dtype).max, out=a)
        np.multiply(a, y, out=out)
        return
    np.abs(x, out=a)
    np.minimum(a, np.finfo(a.dtype).max, out=a)
    np.multiply(a, _GELU_P, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    np.multiply(t, _GELU_COEFFS[4], out=q)
    for c in reversed(_GELU_COEFFS[:4]):
        q += c
        q *= t
    np.multiply(a, -0.5, out=t)
    t *= a
    np.exp(t, out=t)
    q *= t
    if cdf is not None:
        np.subtract(0.5, q, out=cdf)
        np.copysign(cdf, x, out=cdf)
        cdf += 0.5
    q *= a
    np.maximum(x, 0.0, out=out)
    out -= q


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)), from exp(-|x|) on both sides so that no exp overflows."""
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0, e) / (1.0 + e)

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
    # ``axes``, then apply the per-channel affine gamma * xhat + beta.  The
    # variance sums squares of the centred values (two passes), which keeps
    # float32 accurate where E[x^2] - mu^2 would cancel (|mu| >> sigma).  The
    # centred buffer is scaled in place into xhat; unless the result is
    # recorded, the affine runs in place too and xhat becomes the output.
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(f"channel norm: affine params must have shape ({c},)")
    if eps <= 0:
        raise ValueError("channel norm: eps must be positive")
    mu = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mu
    kept = "".join(d for i, d in enumerate("nchw") if i not in axes)
    sq = np.einsum(f"nchw,nchw->{kept}", xhat, xhat).reshape(mu.shape)
    inv = 1.0 / np.sqrt(sq / (x.data.size // mu.size) + eps)
    xhat *= inv
    g4 = gamma.data[None, :, None, None]
    b4 = beta.data[None, :, None, None]
    out = np.multiply(xhat, g4, out=None if records((x, gamma, beta)) else xhat)
    out += b4

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

