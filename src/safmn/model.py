"""SAFMN model assembly: blocks, ablation variants, initialization.

The network is a 3x3 stem conv, a stack of feature mixing modules (each a
normalized SAFM with a residual followed by a normalized channel mixer with a
residual), a global residual around the stack, and a conv + pixel-shuffle
upsampler.  Every ablation axis from the variant registry is constructible;
parameter shapes are a pure function of the configuration.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .tensor import Tensor, add, channel_gate, default_dtype, mul

SAFM_MODES = (
    "full",
    "none",
    "no-fm",
    "no-mr",
    "no-fa",
    "no-fm-mr",
    "no-fm-fa",
    "no-fm-mr-fa",
)
POOL_MODES = ("max", "avg", "nearest")
ATTN_MODES = ("gelu", "sigmoid", "none")
MIXER_MODES = ("ccm", "ccm-se", "channel-mlp", "inverted-residual", "none")
NORM_MODES = ("layernorm", "none", "batchnorm", "frozen-batchnorm", "l2")

LN_EPS = 1e-6
SE_REDUCTION = 4
MIXER_EXPANSION = 2


@dataclass(frozen=True)
class VariantSpec:
    """Ablation switches; the default value on every axis is the full model."""

    safm: str = "full"
    pool: str = "max"
    attn: str = "gelu"
    mixer: str = "ccm"
    norm: str = "layernorm"
    drop_scales: tuple[int, ...] = ()

    def __post_init__(self):
        if self.safm not in SAFM_MODES:
            raise ConfigError(f"unknown safm mode {self.safm!r}; expected one of {SAFM_MODES}")
        if self.pool not in POOL_MODES:
            raise ConfigError(f"unknown pool mode {self.pool!r}; expected one of {POOL_MODES}")
        if self.attn not in ATTN_MODES:
            raise ConfigError(f"unknown attn mode {self.attn!r}; expected one of {ATTN_MODES}")
        if self.mixer not in MIXER_MODES:
            raise ConfigError(f"unknown mixer mode {self.mixer!r}; expected one of {MIXER_MODES}")
        if self.norm not in NORM_MODES:
            raise ConfigError(f"unknown norm mode {self.norm!r}; expected one of {NORM_MODES}")
        ds = tuple(sorted(set(self.drop_scales)))
        if any(s not in (2, 4, 8) for s in ds):
            raise ConfigError(f"drop_scales must be a subset of (2, 4, 8), got {self.drop_scales}")
        object.__setattr__(self, "drop_scales", ds)
        if ds and not self.uses_multi_scale:
            raise ConfigError("drop_scales requires a variant that keeps the multi-scale pyramid")

    @property
    def uses_multi_scale(self) -> bool:
        return self.safm not in ("none",) and "mr" not in self.safm.split("-")

    @property
    def uses_modulation(self) -> bool:
        return self.safm != "none" and "fm" not in self.safm.split("-")

    @property
    def uses_aggregation(self) -> bool:
        return self.safm != "none" and "fa" not in self.safm.split("-")

    def pyramid_levels(self) -> list[int]:
        """Active downsampling exponents: level i pools to floor(size / 2**i)."""
        if not self.uses_multi_scale:
            return [0]
        return [0] + [i for i in (1, 2, 3) if 2**i not in self.drop_scales]


# Registry keyed by the CLI-facing variant names.
VARIANTS: dict[str, VariantSpec] = {
    "baseline": VariantSpec(),
    "no-safm": VariantSpec(safm="none"),
    "no-ccm": VariantSpec(mixer="none"),
    "safm-no-fm": VariantSpec(safm="no-fm"),
    "safm-no-mr": VariantSpec(safm="no-mr"),
    "safm-no-fa": VariantSpec(safm="no-fa"),
    "safm-no-fm-mr": VariantSpec(safm="no-fm-mr"),
    "safm-no-fm-fa": VariantSpec(safm="no-fm-fa"),
    "safm-no-fm-mr-fa": VariantSpec(safm="no-fm-mr-fa"),
    "pool-avg": VariantSpec(pool="avg"),
    "pool-nearest": VariantSpec(pool="nearest"),
    "attn-none": VariantSpec(attn="none"),
    "attn-sigmoid": VariantSpec(attn="sigmoid"),
    "ccm-se": VariantSpec(mixer="ccm-se"),
    "ccm-channel-mlp": VariantSpec(mixer="channel-mlp"),
    "ccm-inverted-residual": VariantSpec(mixer="inverted-residual"),
    "no-ln": VariantSpec(norm="none"),
    "norm-bn": VariantSpec(norm="batchnorm"),
    "norm-fbn": VariantSpec(norm="frozen-batchnorm"),
    "norm-l2": VariantSpec(norm="l2"),
    "no-scale-8": VariantSpec(drop_scales=(8,)),
    "no-scale-8-4": VariantSpec(drop_scales=(4, 8)),
    "no-scale-8-4-2": VariantSpec(drop_scales=(2, 4, 8)),
}


def variant_by_name(name: str) -> VariantSpec:
    try:
        return VARIANTS[name]
    except KeyError:
        known = ", ".join(sorted(VARIANTS))
        raise ConfigError(f"unknown variant {name!r}; known variants: {known}") from None


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; determines every parameter shape."""

    num_blocks: int = 8
    channels: int = 36
    scale: int = 4
    variant: VariantSpec = field(default_factory=VariantSpec)

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        parts = len(self.variant.pyramid_levels())
        if self.variant.uses_multi_scale and self.channels % parts:
            raise ConfigError(
                f"channels={self.channels} not divisible by the {parts}-way pyramid split"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        v = d.get("variant", {})
        return cls(
            num_blocks=int(d["num_blocks"]),
            channels=int(d["channels"]),
            scale=int(d["scale"]),
            variant=VariantSpec(
                safm=v.get("safm", "full"),
                pool=v.get("pool", "max"),
                attn=v.get("attn", "gelu"),
                mixer=v.get("mixer", "ccm"),
                norm=v.get("norm", "layernorm"),
                drop_scales=tuple(v.get("drop_scales", ())),
            ),
        )


NamedParams = Iterator[tuple[str, Tensor]]


class Module:
    """A layer whose parameters and sub-layers are found from its attributes.

    Attributes are walked in assignment order: a trainable ``Tensor`` is a
    parameter, a ``Module`` is recursed into, and the i-th module of a list is
    named ``<attr>.<i>``.  Those names are the checkpoint's parameter names.
    """

    def _members(self, prefix: str) -> Iterator[tuple[str, object]]:
        for name, value in vars(self).items():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, list):
                yield from ((f"{path}.{i}", item) for i, item in enumerate(value))
            else:
                yield path, value

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """This module and every sub-module, parents before children."""
        yield prefix, self
        for path, value in self._members(prefix):
            if isinstance(value, Module):
                yield from value.named_modules(path)

    def named_parameters(self, prefix: str = "") -> NamedParams:
        for path, value in self._members(prefix):
            if isinstance(value, Module):
                yield from value.named_parameters(path)
            elif isinstance(value, Tensor) and value.requires_grad:
                yield path, value


class Conv2d(Module):
    """Convolution parameter holder (weights created zero, filled by init)."""

    def __init__(self, c_in: int, c_out: int, k: int, groups: int = 1):
        self.c_in, self.c_out, self.k, self.groups = c_in, c_out, k, groups
        self.padding = k // 2
        dt = default_dtype()
        self.weight = Tensor(np.zeros((c_out, c_in // groups, k, k), dtype=dt), requires_grad=True)
        self.bias = Tensor(np.zeros(c_out, dtype=dt), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, padding=self.padding, groups=self.groups)


class Norm(Module):
    """Channel normalization of one ``NORM_MODES`` kind other than "none".

    Only layernorm and batchnorm own an affine ``gamma``/``beta``.
    """

    def __init__(self, kind: str, c: int):
        if kind not in NORM_MODES or kind == "none":
            raise ConfigError(f"no norm layer for kind {kind!r}")
        self.kind = kind
        if kind in ("layernorm", "batchnorm"):
            dt = default_dtype()
            self.gamma = Tensor(np.ones(c, dtype=dt), requires_grad=True)
            self.beta = Tensor(np.zeros(c, dtype=dt), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if self.kind == "layernorm":
            return ops.layer_norm_channels(x, self.gamma, self.beta, LN_EPS)
        if self.kind == "batchnorm":
            return ops.batch_norm_channels(x, self.gamma, self.beta)
        if self.kind == "frozen-batchnorm":
            return ops.frozen_batch_norm_channels(x)
        return ops.l2_normalize_channels(x)


LayerNorm = Norm  # the name under which the benchmark tracer times norm calls


def _apply_attn(kind: str, x: Tensor) -> Tensor:
    if kind == "gelu":
        return ops.gelu(x)
    if kind == "sigmoid":
        return ops.sigmoid(x)
    return x


class SAFM(Module):
    """Spatially-adaptive feature modulation.

    Splits channels across a max-pooled pyramid of depthwise convolutions,
    re-assembles with nearest upsampling and a 1x1 aggregation, then gates the
    input with the activated map.  The variant switches prune or swap each
    stage.
    """

    def __init__(self, c: int, variant: VariantSpec):
        self.c = c
        self.variant = variant
        self.levels = variant.pyramid_levels()
        if variant.uses_multi_scale:
            part = c // len(self.levels)
            self.mfr = [Conv2d(part, part, 3, groups=part) for _ in self.levels]
        else:
            self.mfr = [Conv2d(c, c, 3, groups=c)]
        self.aggr = Conv2d(c, c, 1) if variant.uses_aggregation else None

    def _downsample(self, x: Tensor, ph: int, pw: int) -> Tensor:
        if self.variant.pool == "max":
            return ops.adaptive_max_pool(x, ph, pw)
        if self.variant.pool == "avg":
            return ops.adaptive_avg_pool(x, ph, pw)
        return ops.nearest_resize(x, ph, pw)

    def __call__(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.c:
            raise DimensionError(f"SAFM built for {self.c} channels, got {c}")
        if self.variant.uses_multi_scale:
            parts = ops.split_channels(x, len(self.levels))
            feats = []
            for conv, level, part in zip(self.mfr, self.levels, parts):
                if level == 0:
                    feats.append(conv(part))
                    continue
                ph, pw = h // 2**level, w // 2**level
                if ph < 1 or pw < 1:
                    raise DimensionError(
                        f"input {h}x{w} too small for a 1/{2**level} pyramid level"
                    )
                s = conv(self._downsample(part, ph, pw))
                feats.append(ops.nearest_resize(s, h, w))
            y = ops.concat_channels(feats)
        else:
            y = self.mfr[0](x)
        if self.aggr is not None:
            y = self.aggr(y)
        y = _apply_attn(self.variant.attn, y)
        return mul(y, x) if self.variant.uses_modulation else y


class SqueezeExcite(Module):
    """Channel gate: global average pool, bottleneck MLP, sigmoid scale."""

    def __init__(self, c: int, reduction: int = SE_REDUCTION):
        hidden = c // reduction
        self.reduce = Conv2d(c, hidden, 1)
        self.expand = Conv2d(hidden, c, 1)

    def __call__(self, x: Tensor) -> Tensor:
        g = ops.global_avg_pool(x)
        g = ops.gelu(self.reduce(g))
        g = ops.sigmoid(self.expand(g))
        return channel_gate(x, g)


class ConvChannelMixer(Module):
    """3x3 conv doubling the channels, GELU, 1x1 conv back down.

    Optional squeeze-and-excitation on the hidden features ("ccm-se") or a
    depthwise 3x3 on the hidden features ("inverted-residual")."""

    def __init__(self, c: int, mode: str):
        hidden = c * MIXER_EXPANSION
        self.mode = mode
        k1 = 1 if mode == "channel-mlp" else 3
        self.conv1 = Conv2d(c, hidden, k1)
        self.depthwise = Conv2d(hidden, hidden, 3, groups=hidden) if mode == "inverted-residual" else None
        self.se = SqueezeExcite(hidden) if mode == "ccm-se" else None
        self.conv2 = Conv2d(hidden, c, 1)

    def __call__(self, x: Tensor) -> Tensor:
        y = ops.gelu(self.conv1(x))
        if self.depthwise is not None:
            y = self.depthwise(y)
        if self.se is not None:
            y = self.se(y)
        return self.conv2(y)


class FMM(Module):
    """Feature mixing module: norm->SAFM residual, then norm->mixer residual."""

    def __init__(self, c: int, variant: VariantSpec):
        # Assignment order is parameter order: norm1, safm, norm2, mixer.
        has_safm, has_mixer = variant.safm != "none", variant.mixer != "none"
        normed = variant.norm != "none"
        self.norm1 = Norm(variant.norm, c) if has_safm and normed else None
        self.safm = SAFM(c, variant) if has_safm else None
        self.norm2 = Norm(variant.norm, c) if has_mixer and normed else None
        self.mixer = ConvChannelMixer(c, variant.mixer) if has_mixer else None

    def __call__(self, x: Tensor) -> Tensor:
        if self.safm is not None:
            y = self.norm1(x) if self.norm1 is not None else x
            x = add(self.safm(y), x)
        if self.mixer is not None:
            y = self.norm2(x) if self.norm2 is not None else x
            x = add(self.mixer(y), x)
        return x


class SafmnModel(Module):
    """Full network: stem conv, FMM stack with global residual, upsampler."""

    def __init__(self, config: ModelConfig):
        self.config = config
        c = config.channels
        self.first_conv = Conv2d(3, c, 3)
        self.blocks = [FMM(c, config.variant) for _ in range(config.num_blocks)]
        self.upsampler = Conv2d(c, 3 * config.scale**2, 3)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 3:
            raise DimensionError(f"expected (n, 3, h, w) input, got {x.shape}")
        shallow = self.first_conv(x)
        deep = shallow
        for block in self.blocks:
            deep = block(deep)
        deep = add(deep, shallow)
        return ops.pixel_shuffle(self.upsampler(deep), self.config.scale)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise ConfigError(f"state dict mismatch; missing {missing}, unexpected {extra}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise DimensionError(
                    f"parameter {name}: shape {arr.shape} != expected {p.data.shape}"
                )
            p.data = arr.copy()


def _conv_fan_in(shape: tuple[int, ...]) -> int:
    _, c_in_g, kh, kw = shape
    return c_in_g * kh * kw


def init_model(config: ModelConfig, seed: int) -> SafmnModel:
    """Build a model and fill its parameters deterministically from ``seed``.

    Conv weights are uniform in (-b, b) with b = sqrt(6 / fan_in); biases and
    norm shifts start at zero, norm scales at one.
    """
    model = SafmnModel(config)
    rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        if name.endswith(".weight"):
            bound = math.sqrt(6.0 / _conv_fan_in(p.data.shape))
            p.data = rng.uniform(-bound, bound, size=p.data.shape).astype(p.data.dtype)
        elif name.endswith(".gamma"):
            p.data = np.ones_like(p.data)
        else:  # biases and betas
            p.data = np.zeros_like(p.data)
    return model
