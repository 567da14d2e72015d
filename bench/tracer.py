"""Layer tracer for the benchmark: spans around public safmn entry points.

The tracer replaces public functions in the namespace where the program
calls them (``safmn.ops.conv2d``, ``safmn.model.add``,
``safmn.loss.fft2_batched``, ``safmn.train.save_checkpoint``, ...) and the
methods of the classes that own a layer (``Tensor.backward``, ``Adam.step``,
...).  A wrapped kernel also wraps the backward closure of the tensor it
returns, so a layer's time covers its forward and its backward pass.

Spans are (key, start, end, depth, row) tuples kept in memory; counters are
(key, time, value) tuples.  Both are attributed to benchmark operations by
time afterwards.  A span nested inside a span of the same key is not
recorded, so a key's total never counts the same interval twice.
"""
from __future__ import annotations

import bisect
import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import safmn
import safmn.checkpoint
import safmn.imaging.metrics
import safmn.imaging.png
import safmn.imaging.resize
import safmn.imaging.sampler
import safmn.loss
import safmn.model
import safmn.ops
import safmn.optim
import safmn.tensor

from inputs import png_row_filters

CONV_KINDS = ("dense3x3", "pointwise", "depthwise")


def conv_kind(weight_shape: tuple[int, ...], groups: int) -> str:
    _, c_in_g, kh, kw = weight_shape
    if groups > 1 and c_in_g == 1:
        return "depthwise"
    return "pointwise" if kh * kw == 1 else f"dense{kh}x{kw}"


class Tracer:
    """Records spans and counters while installed; restores everything on removal."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counters: list[tuple[str, float, float]] = []
        self.rows: dict[int, str] = {}  # id(weight or gamma tensor) -> profiler row name
        self._active: dict[str, int] = defaultdict(int)
        self._depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _timed(self, key: str, fn, args, kwargs, row: str | None = None):
        """Call ``fn`` inside a span unless a span of ``key`` is already open."""
        if self._active[key]:
            return fn(*args, **kwargs)
        self._active[key] += 1
        self._depth += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._depth -= 1
            self._active[key] -= 1
            self.spans.append((key, t0, t1, self._depth, row))

    def count(self, key: str, value: float) -> None:
        self.counters.append((key, perf_counter(), float(value)))

    def _wrap_backward(self, out, key: str, row: str | None = None, macs: int = 0) -> None:
        fn = getattr(out, "_backward", None)
        if fn is None:
            return
        tracer = self

        def timed_backward(g):
            if macs:
                tracer.count(f"conv.{key}.bwd_macs", 2 * macs)
            return tracer._timed(key, fn, (g,), {}, row and row + ".bwd")

        out._backward = timed_backward

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _kernel(self, owner, attr: str, key: str, row_arg: int | None = None) -> None:
        """Wrap a kernel returning one tensor or a list of tensors."""
        tracer = self

        def make(fn):
            def kernel(*args, **kwargs):
                row = tracer.rows.get(id(args[row_arg])) if row_arg is not None else None
                out = tracer._timed(key, fn, args, kwargs, row)
                for t in out if isinstance(out, list) else (out,):
                    tracer._wrap_backward(t, key, row)
                return out

            return kernel

        self._patch(owner, attr, make)

    def _plain(self, owner, attr: str, key: str, after=None) -> None:
        """Wrap a function or method; ``after(args, result)`` records counters."""
        tracer = self

        def make(fn):
            def plain(*args, **kwargs):
                out = tracer._timed(key, fn, args, kwargs)
                if after is not None:
                    after(args, out)
                return out

            return plain

        self._patch(owner, attr, make)

    def _conv(self) -> None:
        tracer = self

        def make(fn):
            def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
                kind = conv_kind(weight.data.shape, groups)
                key = f"ops.conv2d.{kind}"
                row = tracer.rows.get(id(weight))
                out = tracer._timed(key, fn, (x, weight, bias, stride, padding, groups), {}, row)
                _, c_in_g, kh, kw = weight.data.shape
                macs = out.data.size * c_in_g * kh * kw
                tracer.count(f"conv.{key}.fwd_macs", macs)
                if row is not None:
                    tracer.count(f"row.{row}.macs", macs)
                tracer._wrap_backward(out, key, row, macs)
                return out

            return conv2d

        self._patch(safmn.ops, "conv2d", make)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        ops, model, loss = safmn.ops, safmn.model, safmn.loss
        train = importlib.import_module("safmn.train")  # `safmn.train` is the function
        png, resize, metrics = safmn.imaging.png, safmn.imaging.resize, safmn.imaging.metrics
        self._conv()
        self._kernel(ops, "gelu", "ops.gelu")
        self._kernel(ops, "layer_norm_channels", "ops.layer_norm", row_arg=1)
        self._kernel(ops, "nearest_resize", "ops.nearest_resize")
        self._kernel(ops, "pixel_shuffle", "ops.pixel_shuffle")
        self._kernel(ops, "split_channels", "ops.split_concat")
        self._kernel(ops, "concat_channels", "ops.split_concat")
        self._kernel(ops, "adaptive_max_pool", "ops.max_pool")
        self._kernel(model, "add", "tensor.elementwise")
        self._kernel(model, "mul", "tensor.elementwise")
        for name in ("mean_abs_error", "frequency_l1", "add", "scale"):
            self._kernel(loss, name, "loss.composite")
        self._plain(loss, "fft2_batched", "fft.fft2")
        self._plain(loss, "ifft2_batched", "fft.ifft2")
        self._plain(train, "composite_loss", "loss.composite")
        self._plain(model.SafmnModel, "forward", "model.forward")
        self._plain(model.SafmnModel, "zero_grad", "model.zero_grad")
        self._plain(model.SAFM, "__call__", "model.safm")
        self._plain(model.ConvChannelMixer, "__call__", "model.mixer")
        self._plain(model.LayerNorm, "__call__", "model.norm")
        self._backward_pass()
        self._plain(safmn.optim.Adam, "step", "optim.adam_step")
        self._plain(safmn.imaging.sampler.PatchSampler, "sample", "sampler.sample")
        self._plain(train, "prepare_pairs", "train.prepare_pairs")
        self._plain(train, "bicubic_resize", "resize.bicubic")
        self._plain(train, "save_checkpoint", "checkpoint.save", self._count_checkpoint)
        self._plain(safmn.checkpoint, "load_checkpoint", "checkpoint.load")
        self._plain(png, "decode_png", "png.decode", self._count_decode)
        self._plain(png, "encode_png", "png.encode")
        self._plain(resize, "bicubic_resize", "resize.bicubic")
        self._plain(metrics, "psnr_y", "metrics.psnr_y")
        self._plain(metrics, "ssim_y", "metrics.ssim_y")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def register_model(self, model) -> None:
        """Key conv and norm calls by the profiler's layer names."""
        for name, p in model.named_parameters():
            prefix, _, leaf = name.rpartition(".")
            if leaf in ("weight", "gamma"):
                self.rows[id(p)] = prefix

    def _backward_pass(self) -> None:
        tracer = self

        def make(fn):
            def backward(root):
                # Counted before the pass, which releases the graph edges.
                tracer.count("tensor.graph_nodes", graph_size(root))
                return tracer._timed("tensor.backward", fn, (root,), {})

            return backward

        self._patch(safmn.tensor.Tensor, "backward", make)

    # -- counters recorded after a call ----------------------------------

    def _count_checkpoint(self, args, _out) -> None:
        self.count("checkpoint.save.bytes", os.path.getsize(args[1]))

    def _count_decode(self, args, _out) -> None:
        with open(args[0], "rb") as fh:
            filters, raw_bytes = png_row_filters(fh.read())
        self.count("png.decode.raw_bytes", raw_bytes)
        self.count("png.decode.rows", filters.size)
        self.count("png.decode.filtered_rows", int(np.count_nonzero(filters)))


def graph_size(root) -> int:
    """Nodes reachable from ``root`` through recorded graph edges."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Attribution:
    """Per-interval sums of span time and counter values."""

    def __init__(self, tracer: Tracer, intervals: list[tuple[float, float]]):
        self.intervals = sorted(intervals)
        self.n = len(self.intervals)
        self._starts = [a for a, _ in self.intervals]
        self.ms: dict[str, float] = defaultdict(float)
        self.row_ms: dict[str, float] = defaultdict(float)
        self.counts: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(self.n))
        self.top_level_ms = np.zeros(self.n)
        for key, t0, t1, depth, row in tracer.spans:
            i = self._index(t0)
            if i is None:
                continue
            self.ms[key] += (t1 - t0) * 1e3
            if row is not None:
                self.row_ms[row] += (t1 - t0) * 1e3
            if depth == 0:
                self.top_level_ms[i] += (t1 - t0) * 1e3
        for key, t, value in tracer.counters:
            i = self._index(t)
            if i is not None:
                self.counts[key][i] += value

    def _index(self, t: float) -> int | None:
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0 and t <= self.intervals[i][1]:
            return i
        return None

    def total(self, key: str) -> float:
        return float(self.counts[key].sum()) if key in self.counts else 0.0

    def per_op_ms(self, key: str) -> float:
        return self.ms.get(key, 0.0) / self.n if self.n else 0.0

    def per_op(self, key: str) -> float:
        return self.total(key) / self.n if self.n else 0.0
