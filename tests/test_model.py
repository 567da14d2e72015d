"""Model assembly: shapes, identities, variants, initialization, checkpoints."""
import numpy as np
import pytest

from malformed import DEFECTS, write_malformed_checkpoint
from safmn.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from safmn.errors import ConfigError, DimensionError, FormatError
from safmn.model import (
    VARIANTS,
    FMM,
    SAFM,
    ModelConfig,
    SafmnModel,
    VariantSpec,
    init_model,
    variant_by_name,
)
from safmn.optim import Adam
from safmn.tensor import Tensor


def _wb(prefix):
    return [f"{prefix}.weight", f"{prefix}.bias"]


_NORM1 = ["norm1.gamma", "norm1.beta"]
_NORM2 = ["norm2.gamma", "norm2.beta"]
_SAFM = [n for i in range(4) for n in _wb(f"safm.mfr.{i}")] + _wb("safm.aggr")
# Parameter names of one block, per variant.
BLOCK_PARAMS = {
    "baseline": _NORM1 + _SAFM + _NORM2 + _wb("mixer.conv1") + _wb("mixer.conv2"),
    "ccm-se": _NORM1 + _SAFM + _NORM2 + _wb("mixer.conv1") + _wb("mixer.se.reduce")
    + _wb("mixer.se.expand") + _wb("mixer.conv2"),
    "ccm-inverted-residual": _NORM1 + _SAFM + _NORM2 + _wb("mixer.conv1") + _wb("mixer.depthwise")
    + _wb("mixer.conv2"),
    "norm-bn": _NORM1 + _SAFM + _NORM2 + _wb("mixer.conv1") + _wb("mixer.conv2"),
    "norm-l2": _SAFM + _wb("mixer.conv1") + _wb("mixer.conv2"),
    "no-safm": _NORM2 + _wb("mixer.conv1") + _wb("mixer.conv2"),
}


class TestVariantSpec:
    def test_defaults_are_baseline(self):
        v = VariantSpec()
        assert v.safm == "full" and v.mixer == "ccm" and v.norm == "layernorm"
        assert v.pyramid_levels() == [0, 1, 2, 3]

    def test_unknown_axis_value(self):
        with pytest.raises(ConfigError):
            VariantSpec(pool="median")

    def test_drop_scales_needs_pyramid(self):
        with pytest.raises(ConfigError):
            VariantSpec(safm="no-mr", drop_scales=(8,))
        assert VariantSpec(drop_scales=(8,)).pyramid_levels() == [0, 1, 2]
        assert VariantSpec(drop_scales=(2, 4, 8)).pyramid_levels() == [0]

    def test_registry_lookup(self):
        assert variant_by_name("baseline") == VariantSpec()
        with pytest.raises(ConfigError, match="known variants"):
            variant_by_name("nope")


class TestModelConfig:
    def test_channels_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=10)  # not divisible by the 4-way split
        ModelConfig(channels=12, variant=VariantSpec(drop_scales=(8,)))  # 3-way split

    def test_round_trip_dict(self):
        cfg = ModelConfig(num_blocks=3, channels=8, scale=3, variant=VARIANTS["ccm-se"])
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestSafmForward:
    def test_zero_input_annihilates(self):
        rng = np.random.default_rng(0)
        safm = SAFM(8, VariantSpec())
        for _, p in safm.named_parameters("safm"):
            p.data = rng.standard_normal(p.data.shape)
        out = safm(Tensor(np.zeros((1, 8, 8, 8))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape_and_pyramid_sizes(self):
        cfg = ModelConfig()
        model = init_model(cfg, seed=0)
        safm = model.blocks[0].safm
        x = Tensor(np.random.default_rng(1).random((1, 36, 45, 80)))
        assert safm(x).shape == (1, 36, 45, 80)
        # floor arithmetic for the pooled planes
        h, w = 45, 80
        assert [(h // 2**i, w // 2**i) for i in range(4)] == [
            (45, 80),
            (22, 40),
            (11, 20),
            (5, 10),
        ]

    def test_attn_none_with_unit_map_is_identity(self):
        # With the aggregation forced to emit all-ones and no non-linearity,
        # modulation reduces to the identity on the input.
        safm = SAFM(8, VariantSpec(attn="none"))
        for name, p in safm.named_parameters("safm"):
            p.data = np.zeros_like(p.data)
        safm.aggr.bias.data = np.ones_like(safm.aggr.bias.data)
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 8, 8, 8)))
        np.testing.assert_allclose(safm(x).data, x.data, atol=1e-12)

    def test_too_small_input_raises(self):
        safm = SAFM(8, VariantSpec())
        with pytest.raises(DimensionError):
            safm(Tensor(np.zeros((1, 8, 4, 4))))  # 4 // 8 == 0

    def test_indivisible_channels_raise(self):
        safm = SAFM(8, VariantSpec())
        with pytest.raises(DimensionError):
            safm(Tensor(np.zeros((1, 6, 8, 8))))


class TestFmmForward:
    def test_zeroed_output_weights_give_identity(self):
        fmm = FMM(8, VariantSpec())  # freshly built layers are all-zero
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 8, 9, 9)))
        np.testing.assert_allclose(fmm(x).data, x.data, atol=1e-12)

    def test_shape_preserved_for_odd_sizes(self):
        fmm = FMM(8, VariantSpec())
        for h, w in [(8, 8), (9, 13), (21, 10)]:
            x = Tensor(np.random.default_rng(0).random((1, 8, h, w)))
            assert fmm(x).shape == (1, 8, h, w)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_every_variant_constructs_and_runs(self, name):
        channels = 36 if "scale" not in name else 36  # all variants keep C=36 valid
        cfg = ModelConfig(num_blocks=1, channels=channels, scale=2, variant=VARIANTS[name])
        model = init_model(cfg, seed=1)
        x = Tensor(np.random.default_rng(2).random((1, 3, 8, 8)))
        out = model(x)
        assert out.shape == (1, 3, 16, 16)
        assert np.all(np.isfinite(out.data))


class TestSafmnModel:
    def test_forward_shape_x4(self):
        model = SafmnModel(ModelConfig(num_blocks=1, channels=4, scale=4,
                                       variant=VariantSpec(drop_scales=(2, 4, 8))))
        x = Tensor(np.zeros((1, 3, 18, 32)))
        assert model(x).shape == (1, 3, 72, 128)

    def test_zero_parameters_zero_output(self):
        model = SafmnModel(ModelConfig(num_blocks=2, channels=8, scale=2))
        x = Tensor(np.random.default_rng(0).random((1, 3, 8, 8)))
        np.testing.assert_array_equal(model(x).data, 0.0)

    def test_wrong_channel_count_raises(self):
        model = SafmnModel(ModelConfig(num_blocks=1, channels=8, scale=2))
        with pytest.raises(DimensionError):
            model(Tensor(np.zeros((1, 4, 8, 8))))

    @pytest.mark.parametrize("scale,expected", [(2, 227820), (3, 232695), (4, 239520)])
    def test_default_parameter_counts(self, scale, expected):
        model = SafmnModel(ModelConfig(scale=scale))
        assert model.param_count() == expected

    def test_parameter_count_formula(self):
        for blocks in (1, 4, 8):
            for scale in (2, 3, 4):
                model = SafmnModel(ModelConfig(num_blocks=blocks, scale=scale))
                expected = 1008 + blocks * 27864 + (36 * 3 * scale**2 * 9 + 3 * scale**2)
                assert model.param_count() == expected

    def test_named_parameter_order_is_stable(self):
        model = SafmnModel(ModelConfig(num_blocks=2, channels=8, scale=2))
        names = [n for n, _ in model.named_parameters()]
        assert names[0] == "first_conv.weight"
        assert names[-1] == "upsampler.bias"
        assert names == [n for n, _ in model.named_parameters()]

    @pytest.mark.parametrize("name", sorted(BLOCK_PARAMS))
    def test_parameter_names_are_pinned(self, name):
        # The checkpoint format stores these names in this order.
        model = SafmnModel(ModelConfig(num_blocks=1, channels=8, scale=2, variant=VARIANTS[name]))
        expected = _wb("first_conv") + [f"blocks.0.{n}" for n in BLOCK_PARAMS[name]] + _wb("upsampler")
        assert [n for n, _ in model.named_parameters()] == expected

    def test_forward_is_pure(self):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=4)
        x = Tensor(np.random.default_rng(1).random((1, 3, 8, 8)))
        before = model.state_dict()
        a = model(x).data
        b = model(x).data
        np.testing.assert_array_equal(a, b)
        for name, arr in model.state_dict().items():
            np.testing.assert_array_equal(arr, before[name])


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(num_blocks=2, channels=8, scale=2)
        a = init_model(cfg, seed=9).state_dict()
        b = init_model(cfg, seed=9).state_dict()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        cfg = ModelConfig(num_blocks=1, channels=8, scale=2)
        a = init_model(cfg, seed=1).state_dict()
        b = init_model(cfg, seed=2).state_dict()
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_uniform_bounds_match_fan_in(self):
        model = init_model(ModelConfig(), seed=0)
        params = dict(model.named_parameters())
        w = params["blocks.0.safm.aggr.weight"].data  # 1x1 conv at C=36
        bound = np.sqrt(6.0 / 36.0)
        assert abs(bound - 0.408248) < 1e-5
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.8 * bound  # actually fills the range

    def test_norm_affine_and_biases(self):
        model = init_model(ModelConfig(num_blocks=1), seed=3)
        params = dict(model.named_parameters())
        np.testing.assert_array_equal(params["blocks.0.norm1.gamma"].data, 1.0)
        np.testing.assert_array_equal(params["blocks.0.norm1.beta"].data, 0.0)
        np.testing.assert_array_equal(params["first_conv.bias"].data, 0.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(ModelConfig(num_blocks=2, channels=8, scale=3), seed=7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, iteration=123, seed=7)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        ckpt = read_checkpoint(path)
        assert ckpt.iteration == 123 and ckpt.seed == 7

    def test_optimizer_state_round_trip(self, tmp_path):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=1)
        opt = Adam(list(model.named_parameters()))
        for _, p in model.named_parameters():
            p.grad = np.full_like(p.data, 0.5)
        opt.step(1e-3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, iteration=1, seed=1, optimizer=opt)
        ckpt = read_checkpoint(path)
        assert ckpt.opt_step == 1
        for name, (m, v) in ckpt.opt_moments.items():
            np.testing.assert_array_equal(m, opt.moments[name][0])
            np.testing.assert_array_equal(v, opt.moments[name][1])

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import builtins

        from safmn import checkpoint

        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, iteration=1)
        good = path.read_bytes()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        real_open = builtins.open

        def half_open(*args, **kwargs):
            return HalfWriter(real_open(*args, **kwargs))

        monkeypatch.setattr(checkpoint, "open", half_open, raising=False)
        other = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=1)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(other, path, iteration=2)
        monkeypatch.undo()

        assert path.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
        for (_, pa), (_, pb) in zip(model.named_parameters(), load_checkpoint(path).named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_corrupt_magic_names_offset_zero(self, tmp_path):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    def test_non_finite_parameter_rejected_at_load(self, tmp_path):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        model.upsampler.bias.data[0] = np.nan
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(FormatError, match="upsampler.bias data holds non-finite"):
            load_checkpoint(path)

    def test_non_finite_adam_moment_rejected(self, tmp_path):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        opt = Adam(list(model.named_parameters()))
        opt.moments["first_conv.weight"][1][0, 0, 0, 0] = np.inf
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, optimizer=opt)
        with pytest.raises(FormatError, match="first_conv.weight second moment holds non-finite"):
            read_checkpoint(path)

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_malformed_checkpoint_raises_format_error_at_offset(self, tmp_path, defect):
        path = tmp_path / "m.ckpt"
        offset = write_malformed_checkpoint(path, defect)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == offset

    def test_truncation_reports_offset(self, tmp_path):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_payload_size(self, tmp_path):
        model = init_model(ModelConfig(scale=4), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        size = path.stat().st_size
        assert size > 239520 * 8  # parameter payload plus headers
        assert size < 239520 * 8 + 20000

    def test_fast_mode_round_trip(self, tmp_path):
        from safmn import tensor as tmod

        tmod.set_mode("fast")
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for (_, pa), (_, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(pa.data.astype(np.float32), pb.data.astype(np.float32))
