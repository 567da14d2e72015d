"""Per-layer complexity accounting: #params, #FLOPs, #activations.

Counts follow the convention of common conv-net profiling tools: one FLOP is
one multiply-accumulate, only convolution layers contribute FLOPs and
activations (elementwise ops, pooling, interpolation, normalization, and
non-linearities are free), and activations are the output element count of
each convolution at its actual evaluation resolution (pyramid convolutions
run on the floor-divided pooled planes).  Parameter counts include every
trainable scalar, so normalization affine weights do appear in the params
column with zero FLOPs/acts.

The rows are read off the built model: one per convolution and one per
norm layer, named by its parameter prefix, in parameter order.  Only the
(zero-filled) parameters are allocated; no activation is.  A convolution runs
at the input size except a SAFM pyramid convolution at level ``l`` (pooled
planes of ``size // 2**l``, the forward's own ``pyramid_size``, so a size the
forward refuses is refused here too) and a squeeze-excite convolution (1x1).
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass

from .errors import ConfigError
from .model import SAFM, Conv2d, ModelConfig, Norm, SafmnModel, SqueezeExcite, pyramid_size

REPORT_COLUMNS = ("name", "kind", "params", "flops", "acts")


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    params: int
    flops: int
    acts: int


@dataclass
class ComplexityReport:
    layers: list[LayerCost]
    input_hw: tuple[int, int]
    batch: int = 1

    @property
    def total_params(self) -> int:
        return sum(rec.params for rec in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(rec.flops for rec in self.layers)

    @property
    def total_acts(self) -> int:
        return sum(rec.acts for rec in self.layers)


def _conv_cost(name: str, conv: Conv2d, out_h: int, out_w: int, batch: int) -> LayerCost:
    kind = f"{'dw' if conv.groups > 1 else ''}conv{conv.k}x{conv.k}"
    params = conv.weight.size + conv.bias.size
    out_elems = batch * conv.c_out * out_h * out_w
    flops = (conv.c_in // conv.groups) * conv.k * conv.k * out_elems
    return LayerCost(name, kind, params, flops, out_elems)


def profile_model(config: ModelConfig, in_h: int, in_w: int, batch: int = 1) -> ComplexityReport:
    """Per-layer complexity of the configured model at the given LR input size."""
    if in_h < 1 or in_w < 1 or batch < 1:
        raise ConfigError(f"invalid profile resolution {in_h}x{in_w} (batch {batch})")
    out_hw: dict[int, tuple[int, int]] = {}  # id(conv) -> output size where not the input's
    recs = []
    # Parents come before their children, so a conv's size is known when it is reached.
    for name, m in SafmnModel(config).named_modules():
        if isinstance(m, SAFM):
            for conv, level in zip(m.mfr, m.levels):
                out_hw[id(conv)] = pyramid_size(in_h, in_w, level)
        elif isinstance(m, SqueezeExcite):
            out_hw.update({id(m.reduce): (1, 1), id(m.expand): (1, 1)})
        elif isinstance(m, Conv2d):
            recs.append(_conv_cost(name, m, *out_hw.get(id(m), (in_h, in_w)), batch))
        elif isinstance(m, Norm):
            recs.append(LayerCost(name, m.kind, sum(p.size for _, p in m.named_parameters()), 0, 0))
    return ComplexityReport(recs, (in_h, in_w), batch)


def config_of(model_or_config: SafmnModel | ModelConfig) -> ModelConfig:
    return model_or_config.config if isinstance(model_or_config, SafmnModel) else model_or_config


def count_params(model_or_config: SafmnModel | ModelConfig) -> int:
    """Total trainable scalar count, read off an 8x8 profile, which every variant accepts."""
    return profile_model(config_of(model_or_config), 8, 8).total_params


def count_flops(model_or_config: SafmnModel | ModelConfig, in_h: int, in_w: int) -> int:
    """Multiply-accumulate count of the convolutions at the given input size."""
    return profile_model(config_of(model_or_config), in_h, in_w).total_flops


def count_acts(model_or_config: SafmnModel | ModelConfig, in_h: int, in_w: int) -> int:
    """Output element count of the convolutions at the given input size."""
    return profile_model(config_of(model_or_config), in_h, in_w).total_acts


def emit_report(report: ComplexityReport, fmt: str = "table") -> str:
    """Render a report as an aligned table, CSV, or JSON lines."""
    rows = [(rec.name, rec.kind, rec.params, rec.flops, rec.acts) for rec in report.layers]
    total = ("TOTAL", "", report.total_params, report.total_flops, report.total_acts)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows + [total]:
            buf.write(",".join(str(v) for v in row) + "\n")
        return buf.getvalue()
    if fmt == "json-lines":
        buf = io.StringIO()
        for row in rows + [total]:
            buf.write(json.dumps(dict(zip(REPORT_COLUMNS, row))) + "\n")
        return buf.getvalue()
    if fmt == "table":
        str_rows = [[str(v) for v in row] for row in [REPORT_COLUMNS] + rows + [total]]
        widths = [max(len(r[i]) for r in str_rows) for i in range(len(REPORT_COLUMNS))]
        lines = []
        for r in str_rows:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i]) if i < 2 else cell.rjust(widths[i])
                    for i, cell in enumerate(r)
                )
            )
        lines.insert(1, "  ".join("-" * wd for wd in widths))
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}; expected table, csv, or json-lines")
