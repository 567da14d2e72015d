"""Precision-mode contract: dtypes per mode, fast-mode agreement with test mode."""
import numpy as np
import pytest

from chart import make_chart
from safmn import ops
from safmn import tensor as tmod
from safmn.imaging.metrics import psnr_y, ssim_y
from safmn.imaging.png import ImageBuffer
from safmn.loss import composite_loss
from safmn.model import ModelConfig, init_model
from safmn.tensor import Tensor, no_grad
from safmn.train import TrainConfig, train


def test_mode_selects_dtype():
    tmod.set_mode("test")
    assert Tensor([1, 2]).dtype == np.float64
    tmod.set_mode("fast")
    assert Tensor([1, 2]).dtype == np.float32


def test_fast_mode_tracks_test_mode_within_tolerance():
    # Same parameters, same input, both precisions: the relative L2 deviation
    # stays under 1e-5 for a realistic activation range.
    rng = np.random.default_rng(0)
    x64 = rng.random((1, 3, 16, 16))

    tmod.set_mode("test")
    model = init_model(ModelConfig(num_blocks=4, channels=12, scale=2), seed=2)
    with no_grad():
        ref = model(Tensor(x64)).data

    tmod.set_mode("fast")
    fast_model = init_model(ModelConfig(num_blocks=4, channels=12, scale=2), seed=2)
    state64 = {n: p.data for n, p in model.named_parameters()}
    for name, p in fast_model.named_parameters():
        p.data = state64[name].astype(np.float32)
    with no_grad():
        fast = fast_model(Tensor(x64.astype(np.float32))).data

    rel = np.linalg.norm(fast.astype(np.float64) - ref) / np.linalg.norm(ref)
    assert rel < 1e-5, f"fast-mode deviation {rel:.2e}"


def test_model_casts_a_mismatched_input_once():
    # A float64 batch into a float32 model runs in float32, exactly as the
    # cast batch does, and its gradient comes back in float64.
    tmod.set_mode("fast")
    model = init_model(ModelConfig(num_blocks=2, channels=12, scale=2), seed=4)
    assert model.dtype == np.float32
    rng = np.random.default_rng(4)
    x64 = rng.random((2, 3, 16, 16))
    target = rng.random((2, 3, 32, 32)).astype(np.float32)
    runs = []
    for x in (Tensor(x64, requires_grad=True), Tensor(x64.astype(np.float32), requires_grad=True)):
        out = model(x)
        composite_loss(out, target).backward()
        runs.append((out.data, x.grad))
    (out64, grad64), (out32, grad32) = runs
    assert out64.dtype == np.float32
    np.testing.assert_array_equal(out64, out32)
    assert grad64.dtype == np.float64
    np.testing.assert_array_equal(grad64, grad32.astype(np.float64))


def test_fast_train_casts_float64_images():
    # train() runs in the model's dtype whatever the images' dtype is.
    images = [make_chart(48, seed=1), make_chart(40, seed=2)]
    cfg = TrainConfig(iters=2, batch_size=2, patch_size=16, seed=5, log_every=0)
    tmod.set_mode("fast")
    params = []
    for imgs in (images, [im.astype(np.float32) for im in images]):
        model = init_model(ModelConfig(num_blocks=2, channels=12, scale=2), seed=5)
        train(model, imgs, cfg)
        params.append(model.parameters())
    for p64, p32 in zip(*params):
        assert p64.dtype == np.float32
        np.testing.assert_array_equal(p64.data, p32.data)


def test_metrics_do_not_depend_on_mode():
    a = ImageBuffer.from_planes(make_chart(64, seed=1))
    b = ImageBuffer.from_planes(make_chart(64, seed=2))
    scores, dtypes = [], []
    for mode in ("test", "fast"):
        tmod.set_mode(mode)
        scores.append((psnr_y(a, b), ssim_y(a, b), psnr_y(a, b, 4), ssim_y(a, b, 4)))
        dtypes.append(a.to_planes().dtype)
    assert scores[0] == scores[1]
    assert dtypes == [np.float64, np.float64]


def test_no_grad_skips_graph_recording():
    tmod.set_mode("test")
    model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
    with no_grad():
        out = model(Tensor(np.random.default_rng(0).random((1, 3, 8, 8))))
    assert out._backward is None and out._parents == ()
    assert not out.requires_grad


@pytest.mark.parametrize(
    "wshape,padding,groups",
    [((72, 36, 3, 3), 1, 1), ((72, 36, 1, 1), 0, 1), ((36, 1, 3, 3), 1, 36)],
    ids=["dense3x3", "pointwise", "depthwise"],
)
def test_fast_conv_tracks_float64(wshape, padding, groups):
    # Each conv kind at a model-like shape: the float32 forward and its
    # input, weight and bias gradients stay float32 and within 1e-5 relative
    # L2 of the float64 results.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 36, 20, 33))
    w = rng.standard_normal(wshape) / np.sqrt(np.prod(wshape[1:]))
    b = rng.standard_normal(wshape[0])
    proj = rng.standard_normal((2, wshape[0], 20, 33))

    def run(mode, dtype):
        tmod.set_mode(mode)
        args = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)]
        out = ops.conv2d(*args, 1, padding, groups)
        return (out.data, *out._backward(proj.astype(dtype)))

    ref = run("test", np.float64)
    fast = run("fast", np.float32)
    for name, f, r in zip(("out", "dx", "dw", "db"), fast, ref):
        assert f.dtype == np.float32, f"{name} is {f.dtype}"
        rel = np.linalg.norm(f.astype(np.float64) - r) / np.linalg.norm(r)
        assert rel < 1e-5, f"{name}: fast-mode deviation {rel:.2e}"


def test_fast_conv_tracks_float64_across_strips():
    # A dense 3x3 over 16-row strips (16, 16, 5): the float32 forward and its
    # input, weight and bias gradients stay within 1e-5 relative L2 of the
    # float64 results.
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 36, 37, 258))
    w = rng.standard_normal((72, 36, 3, 3)) / np.sqrt(36 * 9)
    b = rng.standard_normal(72)
    proj = rng.standard_normal((2, 72, 37, 258))

    def run(mode, dtype):
        tmod.set_mode(mode)
        args = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)]
        out = ops.conv2d(*args, 1, 1, 1)
        return (out.data, *out._backward(proj.astype(dtype)))

    ref = run("test", np.float64)
    fast = run("fast", np.float32)
    for name, f, r in zip(("out", "dx", "dw", "db"), fast, ref):
        assert f.dtype == np.float32, f"{name} is {f.dtype}"
        rel = np.linalg.norm(f.astype(np.float64) - r) / np.linalg.norm(r)
        assert rel < 1e-5, f"{name}: fast-mode deviation {rel:.2e}"


@pytest.mark.parametrize(
    "pool,shape,out_hw",
    [
        ("adaptive_max_pool", (2, 9, 45, 80), (22, 40)),
        ("adaptive_avg_pool", (2, 9, 45, 80), (22, 40)),
        ("adaptive_avg_pool", (2, 72, 20, 33), (1, 1)),
    ],
    ids=["max", "avg", "global"],
)
def test_fast_pool_tracks_float64(pool, shape, out_hw):
    # Each pool at a model-like shape, the pyramid's non-dividing 1/8 level
    # and squeeze-excite's global pool: the float32 forward and input
    # gradient stay float32 and within 1e-5 relative L2 of float64.
    rng = np.random.default_rng(12)
    x = rng.standard_normal(shape)
    proj = rng.standard_normal(shape[:2] + out_hw)

    def run(mode, dtype):
        tmod.set_mode(mode)
        out = getattr(ops, pool)(Tensor(x.astype(dtype), requires_grad=True), *out_hw)
        return (out.data, *out._backward(proj.astype(dtype)))

    ref = run("test", np.float64)
    fast = run("fast", np.float32)
    for name, f, r in zip(("out", "dx"), fast, ref):
        assert f.dtype == np.float32, f"{name} is {f.dtype}"
        rel = np.linalg.norm(f.astype(np.float64) - r) / np.linalg.norm(r)
        assert rel < 1e-5, f"{name}: fast-mode deviation {rel:.2e}"
