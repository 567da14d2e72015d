"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7 (the seed-fixed overfit run) takes ~13 minutes on one CPU core;
everything else finishes in well under three minutes combined.
"""
import math
import time

import numpy as np
import pytest

from chart import make_chart
from conftest import check_grads_against_fd, rand_tensor
from safmn import ops
from safmn.cli import main as cli_main
from safmn.imaging.metrics import psnr_from_y_planes, psnr_y, ssim_y
from safmn.imaging.png import ImageBuffer
from safmn.imaging.resize import bicubic_resize
from safmn.imaging.sampler import PatchSampler, dihedral_transform
from safmn.loss import LossConfig, composite_loss, fft2_batched, ifft2_batched, loss_and_grad
from safmn.model import FMM, SAFM, VARIANTS, ModelConfig, VariantSpec, init_model
from safmn.optim import Adam, CosineSchedule
from safmn.profiler import count_acts, count_flops, count_params
from safmn.tensor import Tensor, no_grad, set_mode


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}")


def test_criterion_01_exact_parameter_counts():
    start = time.perf_counter()
    expected = {2: 227_820, 3: 232_695, 4: 239_520}
    for scale, want in expected.items():
        got = count_params(ModelConfig(scale=scale))
        assert got == want, f"x{scale}: {got} != {want}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"params x2/x3/x4 = 227820/232695/239520 exactly ({elapsed * 1000:.0f} ms)")


def test_criterion_02_exact_activation_count():
    start = time.perf_counter()
    got = count_acts(ModelConfig(scale=4), 180, 320)
    assert got == 76_700_160
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"x4 acts @320x180 = 76700160 exactly ({elapsed * 1000:.0f} ms)")


def test_criterion_03_flops_within_half_percent():
    start = time.perf_counter()
    got = count_flops(ModelConfig(scale=4), 180, 320)
    assert got == 13_542_474_240  # the documented convolution-MAC total
    gap = abs(got - 13.56e9) / 13.56e9
    assert gap < 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"x4 flops @320x180 = 13542474240 MACs, {gap:.4%} from 13.56G ({elapsed * 1000:.0f} ms)")


def test_criterion_04_variant_parameter_ledger():
    start = time.perf_counter()
    ledger = {
        "no-safm": 225_408,
        "no-ccm": 30_720,
        "ccm-se": 260_976,
        "ccm-channel-mlp": 73_632,
        "ccm-inverted-residual": 245_280,
        "no-ln": 238_368,
        "pool-avg": 239_520,
        "pool-nearest": 239_520,
        "attn-none": 239_520,
        "attn-sigmoid": 239_520,
    }
    for name, want in ledger.items():
        got = count_params(ModelConfig(scale=4, variant=VARIANTS[name]))
        assert got == want, f"{name}: {got} != {want}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"all {len(ledger)} ablation parameter counts exact ({elapsed * 1000:.0f} ms)")


def test_criterion_05_gradient_suite():
    start = time.perf_counter()
    kernel_cases = {
        "conv2d": lambda rng: (
            lambda x, w, b: ops.conv2d(x, w, b, 1, 1, 1),
            [rand_tensor(rng, (2, 3, 5, 5)), rand_tensor(rng, (4, 3, 3, 3), 0.4), rand_tensor(rng, (4,), 0.2)],
        ),
        "depthwise": lambda rng: (
            lambda x, w, b: ops.conv2d(x, w, b, 1, 1, 4),
            [rand_tensor(rng, (1, 4, 6, 5)), rand_tensor(rng, (4, 1, 3, 3), 0.4), rand_tensor(rng, (4,), 0.2)],
        ),
        "max_pool": lambda rng: (
            lambda x: ops.adaptive_max_pool(x, 3, 2), [rand_tensor(rng, (2, 3, 7, 5))]),
        "avg_pool": lambda rng: (
            lambda x: ops.adaptive_avg_pool(x, 2, 3), [rand_tensor(rng, (2, 3, 6, 7))]),
        "nearest": lambda rng: (
            lambda x: ops.nearest_resize(x, 9, 7), [rand_tensor(rng, (2, 2, 4, 5))]),
        "pixel_shuffle": lambda rng: (
            lambda x: ops.pixel_shuffle(x, 2), [rand_tensor(rng, (1, 8, 3, 4))]),
        "gelu": lambda rng: (ops.gelu, [rand_tensor(rng, (2, 4, 4, 4), 2.0)]),
        "sigmoid": lambda rng: (ops.sigmoid, [rand_tensor(rng, (2, 4, 4, 4), 2.0)]),
        "layer_norm": lambda rng: (
            lambda x, g, b: ops.layer_norm_channels(x, g, b, 1e-6),
            [rand_tensor(rng, (2, 6, 3, 4)), rand_tensor(rng, (6,)), rand_tensor(rng, (6,))],
        ),
        "split_concat_mul_add": lambda rng: (
            lambda x: ops.concat_channels(list(reversed(ops.split_channels(x, 2)))),
            [rand_tensor(rng, (2, 4, 3, 3))],
        ),
    }
    for name, case in kernel_cases.items():
        for seed in range(20):
            rng = np.random.default_rng(hash(name) % 10_000 + seed)
            fn, tensors = case(rng)
            check_grads_against_fd(fn, tensors, rng)

    # end-to-end: 2-block C=8 model, full input gradient plus sampled params
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        model = init_model(ModelConfig(num_blocks=2, channels=8, scale=2), seed=seed)
        x = Tensor(rng.random((1, 3, 8, 8)), requires_grad=True)
        hr = rng.random((1, 3, 16, 16))
        model.zero_grad()
        loss_node = composite_loss(model(x), hr)
        loss_node.backward()

        def objective():
            return composite_loss(model(Tensor(x.data)), hr).item()

        step = 1e-6

        def fd_at(arr, i):
            flat = arr.reshape(-1)
            orig = flat[i]
            flat[i] = orig + step
            plus = objective()
            flat[i] = orig - step
            minus = objective()
            flat[i] = orig
            return (plus - minus) / (2 * step)

        for i in range(0, x.data.size, 4):
            fd = fd_at(x.data, i)
            an = x.grad.reshape(-1)[i]
            assert abs(fd - an) <= 1e-7 + 1e-4 * max(abs(fd), abs(an), 1e-3)
        named = list(model.named_parameters())
        for _ in range(12):
            _, p = named[int(rng.integers(0, len(named)))]
            i = int(rng.integers(0, p.data.size))
            fd = fd_at(p.data, i)
            an = p.grad.reshape(-1)[i]
            assert abs(fd - an) <= 1e-7 + 1e-4 * max(abs(fd), abs(an), 1e-3)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"kernel + end-to-end finite-difference checks, 20 seeds, rel tol 1e-4 ({elapsed:.0f} s)")


def test_criterion_06_invariant_suite():
    rng = np.random.default_rng(0)

    # pixel-shuffle bijection
    x = rng.standard_normal((2, 18, 5, 7))
    shuffled = ops.pixel_shuffle(Tensor(x), 3).data
    recovered = shuffled.reshape(2, 2, 5, 3, 7, 3).transpose(0, 1, 3, 5, 2, 4).reshape(2, 18, 5, 7)
    assert np.array_equal(recovered, x)

    # split/concat inverse
    y = Tensor(rng.standard_normal((1, 36, 4, 4)))
    assert np.array_equal(ops.concat_channels(ops.split_channels(y, 4)).data, y.data)

    # FFT round trip and Parseval at 1e-6
    for h, w in [(8, 8), (15, 7), (45, 80)]:
        z = rng.standard_normal((h, w))
        back = ifft2_batched(fft2_batched(z))
        assert np.max(np.abs(back.real - z)) < 1e-9
        spec = fft2_batched(z.astype(complex))
        assert abs(np.sum(z**2) - np.sum(np.abs(spec) ** 2) / (h * w)) <= 1e-6 * np.sum(z**2)

    # LayerNorm zero mean / unit variance
    xn = Tensor(rng.standard_normal((2, 8, 3, 3)) * 5 + 1)
    normed = ops.layer_norm_channels(xn, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    assert np.max(np.abs(normed.mean(axis=1))) < 1e-10
    assert np.max(np.abs(normed.var(axis=1) - 1.0)) < 1e-5

    # SAFM zero-input annihilation
    safm = SAFM(8, VariantSpec())
    for _, p in safm.named_parameters("s"):
        p.data = rng.standard_normal(p.data.shape)
    assert np.all(safm(Tensor(np.zeros((1, 8, 8, 8)))).data == 0.0)

    # FMM residual identity with zeroed weights
    fmm = FMM(8, VariantSpec())
    probe = Tensor(rng.standard_normal((1, 8, 9, 9)))
    assert np.allclose(fmm(probe).data, probe.data, atol=1e-12)

    # dihedral group closure
    base = np.arange(36, dtype=float).reshape(1, 6, 6)
    table = [dihedral_transform(base, t).tobytes() for t in range(8)]
    assert len(set(table)) == 8
    for a in range(8):
        for b in range(8):
            assert dihedral_transform(dihedral_transform(base, a), b).tobytes() in table

    _report(6, "bijection, inverses, FFT round trip/Parseval, LN stats, annihilation, residual identity, dihedral closure")


@pytest.fixture(scope="module")
def overfit_run():
    """Seed-fixed 2000-iteration overfit of the default x2 model (fast mode)."""
    start = time.perf_counter()
    hr = make_chart(256, seed=1)
    lr = bicubic_resize(hr, 128, 128)
    top = np.ascontiguousarray(hr[:, :128, :]).astype(np.float32)
    botleft = np.ascontiguousarray(hr[:, 128:, :128]).astype(np.float32)
    lr_top = bicubic_resize(top, 64, 128)
    lr_bl = bicubic_resize(botleft, 64, 64)

    set_mode("fast")
    try:
        model = init_model(ModelConfig(scale=2), seed=3)
        schedule = CosineSchedule(2e-3, 1e-5, 2000)
        opt = Adam(list(model.named_parameters()))
        sampler = PatchSampler(32, 4, seed=11, augment=True)
        pick = np.random.default_rng(12)
        pairs = [(lr_top, top), (lr_bl, botleft)]
        for it in range(2000):
            lr_img, hr_img = pairs[int(pick.integers(0, 2))]
            xb, yb = sampler.sample(lr_img, hr_img, 2)
            model.zero_grad()
            node = composite_loss(model(xb), yb)
            assert math.isfinite(node.item())
            node.backward()
            opt.step(schedule.lr_at(it))
        with no_grad():
            sr = model(Tensor(lr.astype(np.float32)[None])).data[0].astype(np.float64)
    finally:
        set_mode("test")
    return hr, lr, sr, time.perf_counter() - start


def test_criterion_07_overfit_beats_bicubic(overfit_run):
    hr, lr, sr, elapsed = overfit_run

    def quadrant_psnr(planes):
        return psnr_y(
            ImageBuffer.from_planes(np.clip(planes[:, 128:, 128:], 0, 1)),
            ImageBuffer.from_planes(hr[:, 128:, 128:]),
            border_crop=2,
        )

    bicubic_db = quadrant_psnr(bicubic_resize(lr, 256, 256))
    model_db = quadrant_psnr(sr)
    delta = model_db - bicubic_db
    assert elapsed < 1800.0, f"run took {elapsed:.0f}s, over the 30 min budget"
    assert delta >= 0.3, f"model {model_db:.3f} dB vs bicubic {bicubic_db:.3f} dB (delta {delta:+.3f})"
    _report(
        7,
        f"2000-iter x2 overfit: {model_db:.2f} dB vs bicubic {bicubic_db:.2f} dB on the "
        f"held-out quadrant ({delta:+.2f} dB >= +0.3 dB) in {elapsed / 60:.1f} min",
    )


def test_criterion_08_metric_validation():
    # Closed forms evaluated on Y planes directly.  Note: for a uniform
    # offset of 16 the closed form 10*log10(255^2/16^2) evaluates to
    # 24.0485 dB; a commonly quoted 24.03 figure misrounds the same formula
    # (the delta=1 anchor 48.1308 minus 10*log10(256) = 24.0824 fixes it).
    base = np.full((32, 32), 100.0)
    one = psnr_from_y_planes(base, base + 1.0)
    sixteen = psnr_from_y_planes(base, base + 16.0)
    assert abs(one - 10 * math.log10(255.0**2)) < 1e-12
    assert abs(one - 48.13) < 0.01
    assert abs(sixteen - 10 * math.log10(255.0**2 / 256.0)) < 1e-12
    assert abs(sixteen - 24.05) < 0.01

    rng = np.random.default_rng(1)
    img = ImageBuffer(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
    assert ssim_y(img, img) == 1.0
    _report(
        8,
        f"psnr closed forms: delta=1 -> {one:.4f} dB, delta=16 -> {sixteen:.4f} dB "
        "(exact by formula); ssim self-comparison = 1.0",
    )


def test_criterion_09_training_determinism(tmp_path):
    artifacts = []
    hr_dir = tmp_path / "hr"
    hr_dir.mkdir()
    from safmn.imaging.png import encode_png

    encode_png(ImageBuffer.from_planes(make_chart(64, seed=4)), hr_dir / "img.png")
    for tag in ("run1", "run2"):
        ckpt = tmp_path / f"{tag}.ckpt"
        log = tmp_path / f"{tag}.jsonl"
        rc = cli_main([
            "train", "--hr-dir", str(hr_dir), "--out", str(ckpt), "--log", str(log),
            "--iters", "6", "--scale", "2", "--batch-size", "2", "--patch-size", "16",
            "--seed", "9", "--log-every", "1", "--mode", "test",
        ])
        assert rc == 0
        artifacts.append((log.read_bytes(), ckpt.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "training logs differ between runs"
    assert artifacts[0][1] == artifacts[1][1], "checkpoints differ between runs"
    _report(9, "training log and checkpoint bit-identical across two seeded runs (test mode)")


def test_criterion_10_loss_contract():
    sr = np.ones((1, 1, 2, 2))
    hr = np.zeros((1, 1, 2, 2))
    value, _ = loss_and_grad(sr, hr, LossConfig())
    assert abs(value - 1.05) < 1e-9
    assert LossConfig().lambda_weight == 0.05
    _report(10, f"composite loss on the 2x2 case = {value!r} (1 + 0.05 * 1), lambda default 0.05")
