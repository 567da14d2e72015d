"""Loss values against hand-derived oracles; optimizer, schedule and training-loop behavior."""
import io
import math
import tracemalloc

import numpy as np
import pytest

from chart import make_chart
from safmn.errors import ConfigError, DataError, TrainingError
from safmn.imaging.png import ImageBuffer
from safmn.loss import LossConfig, frequency_l1, loss_and_grad, mean_abs_error
from safmn.model import ModelConfig, SafmnModel, init_model
from safmn.optim import Adam, CosineSchedule
from safmn.tensor import Tensor
from safmn.train import TrainConfig, prepare_pairs, train


class TestLoss:
    def test_equal_inputs_zero(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 3, 4, 4))
        value, grad = loss_and_grad(x, x.copy())
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_lambda_zero_is_plain_mae(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((1, 3, 5, 5)), rng.random((1, 3, 5, 5))
        value, _ = loss_and_grad(a, b, LossConfig(lambda_weight=0.0))
        assert abs(value - np.abs(a - b).mean()) < 1e-12

    def test_documented_2x2_case(self):
        # Planes differing by +1 everywhere: MAE term 1; the spectral
        # difference is (4, 0, 0, 0), so mean(|re| + |im|) over 4 bins is 1.
        sr = np.ones((1, 1, 2, 2))
        hr = np.zeros((1, 1, 2, 2))
        value, _ = loss_and_grad(sr, hr, LossConfig())
        assert abs(value - 1.05) < 1e-9

    def test_default_lambda_from_config(self):
        assert LossConfig().lambda_weight == 0.05

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(lambda_weight=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, value):
        with pytest.raises(ConfigError):
            LossConfig(lambda_weight=value)

    def test_loss_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.random((1, 2, 3, 5))
            b = rng.random((1, 2, 3, 5))
            value, _ = loss_and_grad(a, b)
            assert value > 0.0
        value, _ = loss_and_grad(a, a.copy())
        assert value == 0.0

    def test_shape_mismatch(self):
        from safmn.errors import DimensionError

        with pytest.raises(DimensionError):
            loss_and_grad(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))

    def test_frequency_term_oracle(self):
        # Independent direct-DFT computation of the spectral L1.
        rng = np.random.default_rng(3)
        a = rng.random((1, 2, 3, 4))
        b = rng.random((1, 2, 3, 4))
        diff = a - b
        total = 0.0
        h, w = 3, 4
        for n in range(1):
            for c in range(2):
                for ku in range(h):
                    for kv in range(w):
                        acc = 0j
                        for u in range(h):
                            for v in range(w):
                                acc += diff[n, c, u, v] * np.exp(
                                    -2j * np.pi * (ku * u / h + kv * v / w)
                                )
                        total += abs(acc.real) + abs(acc.imag)
        expected = total / diff.size
        got = frequency_l1(Tensor(a), b).item()
        assert abs(got - expected) < 1e-9

    def test_magnitude_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        sr = rng.random((1, 1, 3, 5))
        hr = rng.random((1, 1, 3, 5))
        pred = Tensor(sr, requires_grad=True)
        out = frequency_l1(pred, hr)
        out.backward()
        step = 1e-6
        flat = sr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = frequency_l1(Tensor(sr), hr).item()
            flat[i] = orig - step
            minus = frequency_l1(Tensor(sr), hr).item()
            flat[i] = orig
            fd = (plus - minus) / (2 * step)
            assert abs(fd - pred.grad.reshape(-1)[i]) < 1e-6 + 1e-4 * abs(fd)

    def test_mae_subgradient_zero_at_kink(self):
        pred = Tensor(np.full((1, 1, 2, 2), 0.5), requires_grad=True)
        out = mean_abs_error(pred, np.full((1, 1, 2, 2), 0.5))
        out.backward()
        np.testing.assert_array_equal(pred.grad, 0.0)


class TestAdam:
    def _model(self):
        return init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)

    def test_first_step_is_signed_lr(self):
        model = self._model()
        opt = Adam(list(model.named_parameters()))
        before = model.state_dict()
        for _, p in model.named_parameters():
            p.grad = np.full_like(p.data, 3.7)
        opt.step(1e-3)
        for name, p in model.named_parameters():
            delta = p.data - before[name]
            np.testing.assert_allclose(delta, -1e-3, rtol=1e-6)

    def test_first_step_scale_invariant(self):
        # eps contributes |eps/g| relative error, so moderate magnitudes keep
        # the comparison inside the 1e-6 band.
        deltas = []
        for g in (0.1, 1.0, 1e4):
            model = self._model()
            opt = Adam(list(model.named_parameters()))
            before = model.state_dict()
            for _, p in model.named_parameters():
                p.grad = np.full_like(p.data, g)
            opt.step(1e-3)
            name, p = next(iter(model.named_parameters()))
            deltas.append((p.data - before[name]).ravel()[0])
        assert abs(deltas[0] - deltas[1]) <= 1e-6 * abs(deltas[1]) + 1e-9
        assert abs(deltas[2] - deltas[1]) <= 1e-6 * abs(deltas[1]) + 1e-9

    def test_zero_gradient_keeps_parameters(self):
        model = self._model()
        opt = Adam(list(model.named_parameters()))
        before = model.state_dict()
        for _ in range(5):
            for _, p in model.named_parameters():
                p.grad = np.zeros_like(p.data)
            opt.step(1e-3)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_non_finite_gradient_refused(self):
        model = self._model()
        opt = Adam(list(model.named_parameters()))
        before = model.state_dict()
        for _, p in model.named_parameters():
            p.grad = np.zeros_like(p.data)
        first = model.parameters()[0]
        first.grad = np.full_like(first.data, np.nan)
        with pytest.raises(TrainingError, match="non-finite"):
            opt.step(1e-3)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_deterministic_updates(self):
        runs = []
        for _ in range(2):
            model = self._model()
            opt = Adam(list(model.named_parameters()))
            rng = np.random.default_rng(7)
            for _ in range(10):
                for _, p in model.named_parameters():
                    p.grad = rng.standard_normal(p.data.shape)
                opt.step(5e-4)
            runs.append(model.state_dict())
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name])


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        sched = CosineSchedule(1e-3, 1e-5, 1000)
        assert sched.lr_at(0) == pytest.approx(1e-3)
        assert sched.lr_at(1000) == pytest.approx(1e-5)
        assert sched.lr_at(500) == pytest.approx(5.05e-4)

    def test_monotonically_nonincreasing(self):
        sched = CosineSchedule(1e-3, 1e-5, 333)
        values = [sched.lr_at(t) for t in range(334)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        sched = CosineSchedule(total=10)
        with pytest.raises(ConfigError):
            sched.lr_at(-1)
        with pytest.raises(ConfigError):
            sched.lr_at(11)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            CosineSchedule(total=0)
        with pytest.raises(ConfigError):
            CosineSchedule(lr_max=1e-5, lr_min=1e-3, total=10)

    @pytest.mark.parametrize(
        "lr_max, lr_min",
        [(math.nan, 1e-5), (math.inf, 1e-5), (-1e-3, -1e-2), (1e-3, math.nan), (1e-3, -math.inf), (1e-3, -1e-5)],
    )
    def test_non_finite_or_negative_rates_rejected(self, lr_max, lr_min):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            CosineSchedule(lr_max=lr_max, lr_min=lr_min, total=10)


class TestTrain:
    def _model(self):
        return init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)

    def test_undersized_image_refused_before_step_0(self, tmp_path, monkeypatch):
        # Seed 0 draws image 0 first, so a check left to the sampler would
        # run a step on it before it ever saw image 1.
        calls = []
        real_forward = SafmnModel.forward

        def forward(self, x):
            calls.append(x.shape)
            return real_forward(self, x)

        monkeypatch.setattr(SafmnModel, "forward", forward)
        images = [make_chart(48, seed=1), make_chart(20, seed=2)]  # LR 24 and 10 px
        cfg = TrainConfig(iters=3, batch_size=2, patch_size=16, seed=0, log_every=1)
        log, ckpt = io.StringIO(), tmp_path / "m.ckpt"
        with pytest.raises(DataError, match="image 1: LR 10x10 smaller than patch size 16"):
            train(self._model(), images, cfg, log, ckpt)
        assert calls == []
        assert log.getvalue() == ""
        assert not ckpt.exists()

    def test_one_shot_generator_matches_list(self, tmp_path):
        images = [make_chart(40, seed=3), make_chart(48, seed=4)]
        cfg = TrainConfig(iters=3, batch_size=2, patch_size=8, seed=2, log_every=1)
        outs = []
        for tag, source in (("list", images), ("generator", (im for im in images))):
            log, ckpt = io.StringIO(), tmp_path / f"{tag}.ckpt"
            train(self._model(), source, cfg, log, ckpt)
            outs.append((log.getvalue(), ckpt.read_bytes()))
        assert outs[0][0].count("\n") == 3
        assert outs[0] == outs[1]

    def test_prepare_pairs_keeps_the_crop_without_a_copy(self):
        # to_planes() is a transposed view, so a contiguous copy of the crop
        # would hold the image twice while the LR is made.  257x311 crops to
        # 256x310 at x2.
        u8 = np.random.default_rng(0).integers(0, 256, (257, 311, 3), dtype=np.uint8)
        planes = ImageBuffer(u8).to_planes()
        tracemalloc.start()
        try:
            prepare_pairs([planes], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * planes.nbytes, f"prepare_pairs peaked at {peak / planes.nbytes:.2f}x the planes"
