"""Precision-mode contract: dtypes per mode, fast-mode agreement with test mode."""
import numpy as np
import pytest

from safmn import ops
from safmn import tensor as tmod
from safmn.model import ModelConfig, init_model
from safmn.tensor import Tensor, no_grad


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
