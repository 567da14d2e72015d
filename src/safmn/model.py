"""SAFMN model assembly: blocks, ablation variants, initialization.

The network is a 3x3 stem conv, a stack of feature mixing modules (each a
normalized SAFM with a residual followed by a normalized channel mixer with a
residual), a global residual around the stack, and a conv + pixel-shuffle
upsampler.  Every ablation axis from the variant registry is constructible;
parameter shapes are a pure function of the configuration.

Inference under ``no_grad`` keeps memory near the size of a few feature maps:
the forward calls each block's two residual halves separately, so the block
input is released once the SAFM half has used it, and the mixer half runs
over row strips, so its doubled-width hidden map exists one strip at a time.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from . import ops
from .errors import ConfigError, DimensionError
from .tensor import Tensor, add, default_dtype, make_result, mul, records, scale

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
        for axis, modes in (
            ("safm", SAFM_MODES),
            ("pool", POOL_MODES),
            ("attn", ATTN_MODES),
            ("mixer", MIXER_MODES),
            ("norm", NORM_MODES),
        ):
            value = getattr(self, axis)
            if value not in modes:
                raise ConfigError(f"unknown {axis} mode {value!r}; expected one of {modes}")
        if self.safm == "none" and self.mixer == "none":
            raise ConfigError("safm and mixer cannot both be 'none': every block would be empty")
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
        if self.channels % parts:
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
            variant=VariantSpec(**{**v, "drop_scales": tuple(v.get("drop_scales", ()))}),
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
            return ops.layer_norm_channels(x, self.gamma, self.beta)
        if self.kind == "batchnorm":
            return ops.batch_norm_channels(x, self.gamma, self.beta)
        if self.kind == "frozen-batchnorm":  # unit statistics, identity affine
            return scale(x, 1.0 / math.sqrt(1.0 + ops.BN_EPS))
        return ops.l2_normalize_channels(x)


LayerNorm = Norm  # the name under which the benchmark tracer times norm calls


def _apply_attn(kind: str, x: Tensor) -> Tensor:
    if kind == "gelu":
        return ops.gelu(x)
    if kind == "sigmoid":
        return ops.sigmoid(x)
    return x


def pyramid_size(h: int, w: int, level: int) -> tuple[int, int]:
    """Plane size of pyramid level ``level`` for an h x w input: floor(size / 2**level).

    Raises DimensionError when that is empty.
    """
    ph, pw = h // 2**level, w // 2**level
    if ph < 1 or pw < 1:
        raise DimensionError(f"input {h}x{w} too small for a 1/{2**level} pyramid level")
    return ph, pw


class SAFM(Module):
    """Spatially-adaptive feature modulation.

    Splits channels across a max-pooled pyramid of depthwise convolutions,
    re-assembles with nearest upsampling and a 1x1 aggregation, then gates the
    input with the activated map.  The variant switches prune or swap each
    stage; a single-scale variant is the pyramid's full-size level alone.
    """

    def __init__(self, c: int, variant: VariantSpec):
        self.c = c
        self.variant = variant
        self.levels = variant.pyramid_levels()
        part = c // len(self.levels)
        self.mfr = [Conv2d(part, part, 3, groups=part) for _ in self.levels]
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
        parts = ops.split_channels(x, len(self.levels))
        feats = []
        for conv, level, part in zip(self.mfr, self.levels, parts):
            if level == 0:
                feats.append(conv(part))
                continue
            s = conv(self._downsample(part, *pyramid_size(h, w, level)))
            feats.append(ops.nearest_resize(s, h, w))
        y = ops.concat_channels(feats)
        del feats  # dead once joined, unless the graph holds them
        if self.aggr is not None:
            y = self.aggr(y)
        y = _apply_attn(self.variant.attn, y)
        return mul(y, x) if self.variant.uses_modulation else y


class SqueezeExcite(Module):
    """Channel gate: global average pool, bottleneck MLP, sigmoid scale."""

    def __init__(self, c: int):
        hidden = c // SE_REDUCTION
        self.reduce = Conv2d(c, hidden, 1)
        self.expand = Conv2d(hidden, c, 1)

    def __call__(self, x: Tensor) -> Tensor:
        g = ops.adaptive_avg_pool(x, 1, 1)
        g = ops.gelu(self.reduce(g))
        g = ops.sigmoid(self.expand(g))
        return mul(x, g)


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

    def __call__(self, x: Tensor, bordered: bool = False) -> Tensor:
        """``bordered``: x already holds conv1's zero border, as the row strips
        of ``FMM.mixer_residual`` do, so conv1 runs unpadded."""
        c1 = self.conv1
        y = ops.gelu(ops.conv2d(x, c1.weight, c1.bias, padding=0 if bordered else c1.padding))
        if self.depthwise is not None:
            y = self.depthwise(y)
        if self.se is not None:
            y = self.se(y)
        return self.conv2(y)


class FMM(Module):
    """Feature mixing module: norm->SAFM residual, then norm->mixer residual.

    The two residual halves are separate methods, so a caller can drop the
    block input once the first half has consumed it.
    """

    def __init__(self, c: int, variant: VariantSpec):
        # Assignment order is parameter order: norm1, safm, norm2, mixer.
        has_safm, has_mixer = variant.safm != "none", variant.mixer != "none"
        normed = variant.norm != "none"
        self.norm1 = Norm(variant.norm, c) if has_safm and normed else None
        self.safm = SAFM(c, variant) if has_safm else None
        self.norm2 = Norm(variant.norm, c) if has_mixer and normed else None
        self.mixer = ConvChannelMixer(c, variant.mixer) if has_mixer else None

    def __call__(self, x: Tensor) -> Tensor:
        return self.mixer_residual(self.safm_residual(x))

    def safm_residual(self, x: Tensor) -> Tensor:
        """x + safm(norm1(x))."""
        if self.safm is None:
            return x
        y = self.norm1(x) if self.norm1 is not None else x
        return add(self.safm(y), x)

    def mixer_residual(self, x: Tensor) -> Tensor:
        """x + mixer(norm2(x)): whole-image when recorded, else row strips.

        Strips hold ``ops.strip_rows(w + 2p)`` output rows, p being conv1's
        padding.  A strip normalises its input rows and p halo rows above and
        below (zero rows beyond the image border) into a buffer with p zero
        columns on each side; conv1 runs unpadded on it, so it computes
        exactly the strip's rows, and the residual add writes straight into
        the output rows.  No full-size norm output, hidden map or conv2
        output exists.  Every layer of the half is per-pixel or row-local,
        so each output row goes through the same operations as on the whole
        image; only a GEMM of another width may round differently.
        """
        if self.mixer is None:
            return x
        if not self._streams(x):
            y = self.norm2(x) if self.norm2 is not None else x
            return add(self.mixer(y), x)
        n, c, h, w = x.shape
        p = self.mixer.conv1.padding
        rows = ops.strip_rows(w + 2 * p)
        xd = x.data
        out = np.empty_like(xd)
        # Zeroed, although padded_rows fills it: with np.empty the x4 infer
        # process peaked about 4.5 MB higher in most runs.
        buf = np.zeros((n, c, (min(rows, h) + 2 * p) * (w + 2 * p)), dtype=xd.dtype)
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            lo, m = max(r0 - p, 0), r1 - r0 + 2 * p
            y = Tensor(xd[:, :, lo : min(r1 + p, h)])
            if self.norm2 is not None:
                y = self.norm2(y)
            strip = ops.padded_rows(y.data, p, r0 - lo, r0 - lo + m, 1, buf).reshape(n, c, m, w + 2 * p)
            np.add(self.mixer(Tensor(strip), bordered=True).data, xd[:, :, r0:r1], out=out[:, :, r0:r1])
        return Tensor(out)

    def _streams(self, x: Tensor) -> bool:
        # Row strips apply only to an unrecorded half whose layers are all
        # per-pixel or row-local with one conv halo: batch statistics, the
        # squeeze-excite global pool and the inverted residual's second 3x3
        # (a halo of hidden rows) keep the whole image.
        mixer, norm = self.mixer, self.norm2
        return (
            not records([x, *(p for _, p in self.named_parameters())])
            and mixer.se is None
            and mixer.depthwise is None
            and (norm is None or norm.kind != "batchnorm")
        )


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

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, set by the precision mode the model was built in."""
        return self.first_conv.weight.data.dtype

    def forward(self, x: Tensor) -> Tensor:
        """Super-resolve a (n, 3, h, w) batch in the model's own dtype.

        An input of another dtype is cast once, through a recorded identity,
        so its gradient (if it requires one) comes back in its own dtype.
        """
        if x.ndim != 4 or x.shape[1] != 3:
            raise DimensionError(f"expected (n, 3, h, w) input, got {x.shape}")
        if x.dtype != self.dtype:
            x = make_result(x.data.astype(self.dtype), (x,), lambda g: (g,))
        shallow = self.first_conv(x)
        deep = shallow
        for block in self.blocks:
            # Rebinding ``deep`` between the halves releases the block input
            # (under no_grad nothing else holds it) before the mixer runs.
            deep = block.safm_residual(deep)
            deep = block.mixer_residual(deep)
        deep = add(deep, shallow)
        return ops.pixel_shuffle(self.upsampler(deep), self.config.scale)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

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


def init_model(config: ModelConfig, seed: int) -> SafmnModel:
    """Build a model and fill its conv weights deterministically from ``seed``.

    Each weight is uniform in (-b, b) with b = sqrt(6 / fan_in); biases and
    norm shifts keep the zeros, and norm scales the ones, they are built with.
    """
    model = SafmnModel(config)
    rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        if name.endswith(".weight"):
            _, c_in_g, kh, kw = p.data.shape
            bound = math.sqrt(6.0 / (c_in_g * kh * kw))
            p.data = rng.uniform(-bound, bound, size=p.data.shape).astype(p.data.dtype)
    return model
