"""Finite-difference validation of every kernel's vector-Jacobian product.

Each kernel is checked over 20 random seeds at 64-bit precision against
central differences of the forward pass (relative tolerance 1e-4).  The
end-to-end model check runs the full two-block network on a small input.
"""
import numpy as np
import pytest

from conftest import check_grads_against_fd, rand_tensor
from safmn import ops
from safmn.loss import LossConfig, composite_loss, loss_and_grad
from safmn.model import ModelConfig, init_model
from safmn.tensor import Tensor, add, channel_gate, mul, scale

SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_dense(seed):
    rng = np.random.default_rng(seed)
    x = rand_tensor(rng, (2, 3, 6, 5))
    w = rand_tensor(rng, (4, 3, 3, 3), scale=0.4)
    b = rand_tensor(rng, (4,), scale=0.2)
    check_grads_against_fd(lambda x, w, b: ops.conv2d(x, w, b, 1, 1, 1), [x, w, b], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_depthwise(seed):
    rng = np.random.default_rng(100 + seed)
    x = rand_tensor(rng, (2, 4, 5, 6))
    w = rand_tensor(rng, (4, 1, 3, 3), scale=0.4)
    b = rand_tensor(rng, (4,), scale=0.2)
    check_grads_against_fd(lambda x, w, b: ops.conv2d(x, w, b, 1, 1, 4), [x, w, b], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_1x1(seed):
    rng = np.random.default_rng(300 + seed)
    x = rand_tensor(rng, (2, 5, 4, 4))
    w = rand_tensor(rng, (3, 5, 1, 1), scale=0.5)
    b = rand_tensor(rng, (3,), scale=0.2)
    check_grads_against_fd(lambda x, w, b: ops.conv2d(x, w, b, 1, 0, 1), [x, w, b], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_dense_unpadded(seed):
    rng = np.random.default_rng(200 + seed)
    x = rand_tensor(rng, (2, 3, 6, 5))
    w = rand_tensor(rng, (4, 3, 3, 3), scale=0.4)
    b = rand_tensor(rng, (4,), scale=0.2)
    check_grads_against_fd(lambda x, w, b: ops.conv2d(x, w, b, 1, 0, 1), [x, w, b], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_1x1_batch3_nonsquare(seed):
    rng = np.random.default_rng(400 + seed)
    x = rand_tensor(rng, (3, 4, 3, 5))
    w = rand_tensor(rng, (2, 4, 1, 1), scale=0.5)
    b = rand_tensor(rng, (2,), scale=0.2)
    check_grads_against_fd(lambda x, w, b: ops.conv2d(x, w, b, 1, 0, 1), [x, w, b], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_max_pool(seed):
    rng = np.random.default_rng(400 + seed)
    x = rand_tensor(rng, (2, 3, 6, 6))
    check_grads_against_fd(lambda x: ops.adaptive_max_pool(x, 3, 2), [x], rng)
    y = rand_tensor(rng, (2, 2, 7, 5))
    check_grads_against_fd(lambda y: ops.adaptive_max_pool(y, 3, 4), [y], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_avg_pool(seed):
    rng = np.random.default_rng(500 + seed)
    x = rand_tensor(rng, (2, 3, 6, 6))
    check_grads_against_fd(lambda x: ops.adaptive_avg_pool(x, 2, 3), [x], rng)
    y = rand_tensor(rng, (1, 4, 7, 5))
    check_grads_against_fd(lambda y: ops.adaptive_avg_pool(y, 4, 2), [y], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_nearest_resize(seed):
    rng = np.random.default_rng(600 + seed)
    x = rand_tensor(rng, (2, 3, 4, 5))
    check_grads_against_fd(lambda x: ops.nearest_resize(x, 9, 10), [x], rng)
    check_grads_against_fd(lambda x: ops.nearest_resize(x, 2, 3), [x], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_pixel_shuffle(seed):
    rng = np.random.default_rng(700 + seed)
    x = rand_tensor(rng, (2, 8, 3, 4))
    check_grads_against_fd(lambda x: ops.pixel_shuffle(x, 2), [x], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_gelu(seed):
    rng = np.random.default_rng(800 + seed)
    x = rand_tensor(rng, (2, 4, 5, 5), scale=2.0)
    check_grads_against_fd(ops.gelu, [x], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_sigmoid(seed):
    rng = np.random.default_rng(900 + seed)
    x = rand_tensor(rng, (2, 4, 5, 5), scale=2.0)
    check_grads_against_fd(ops.sigmoid, [x], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm(seed):
    rng = np.random.default_rng(1000 + seed)
    x = rand_tensor(rng, (2, 6, 4, 3))
    gamma = rand_tensor(rng, (6,))
    beta = rand_tensor(rng, (6,))
    check_grads_against_fd(
        lambda x, g, b: ops.layer_norm_channels(x, g, b, 1e-6), [x, gamma, beta], rng
    )


@pytest.mark.parametrize("seed", range(10))
def test_batch_norm(seed):
    rng = np.random.default_rng(1100 + seed)
    x = rand_tensor(rng, (2, 5, 4, 4))
    gamma = rand_tensor(rng, (5,))
    beta = rand_tensor(rng, (5,))
    check_grads_against_fd(
        lambda x, g, b: ops.batch_norm_channels(x, g, b), [x, gamma, beta], rng
    )


@pytest.mark.parametrize("seed", range(10))
def test_l2_normalize(seed):
    rng = np.random.default_rng(1200 + seed)
    x = rand_tensor(rng, (2, 5, 3, 3))
    check_grads_against_fd(ops.l2_normalize_channels, [x], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_split_concat_elementwise(seed):
    rng = np.random.default_rng(1300 + seed)
    x = rand_tensor(rng, (2, 4, 3, 3))
    y = rand_tensor(rng, (2, 4, 3, 3))

    def fn(x, y):
        parts = ops.split_channels(x, 2)
        joined = ops.concat_channels([parts[1], parts[0]])
        return mul(add(joined, y), scale(y, 0.5))

    check_grads_against_fd(fn, [x, y], rng)


@pytest.mark.parametrize("seed", range(10))
def test_channel_gate(seed):
    rng = np.random.default_rng(1400 + seed)
    x = rand_tensor(rng, (2, 3, 4, 4))
    g = rand_tensor(rng, (2, 3, 1, 1))
    check_grads_against_fd(channel_gate, [x, g], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_loss_gradient(seed):
    rng = np.random.default_rng(1500 + seed)
    # Keep values away from exact |.| kinks (random reals are almost surely fine).
    sr = rng.standard_normal((1, 2, 4, 6)) * 0.3 + 0.5
    hr = rng.standard_normal((1, 2, 4, 6)) * 0.3 + 0.5
    value, grad = loss_and_grad(sr, hr, LossConfig())
    step = 1e-6
    flat = sr.reshape(-1)
    for i in range(0, flat.size, 3):
        orig = flat[i]
        flat[i] = orig + step
        plus = loss_and_grad(sr, hr, LossConfig())[0]
        flat[i] = orig - step
        minus = loss_and_grad(sr, hr, LossConfig())[0]
        flat[i] = orig
        fd = (plus - minus) / (2 * step)
        assert abs(fd - grad.reshape(-1)[i]) <= 1e-6 + 1e-4 * max(abs(fd), 1e-3)


@pytest.mark.parametrize("seed", SEEDS)
def test_end_to_end_model_gradients(seed):
    """Scalar loss through the full 2-block C=8 model vs finite differences."""
    rng = np.random.default_rng(1600 + seed)
    config = ModelConfig(num_blocks=2, channels=8, scale=2)
    model = init_model(config, seed=seed)
    x = Tensor(rng.random((1, 3, 8, 8)), requires_grad=True)
    hr = rng.random((1, 3, 16, 16))

    def objective():
        return composite_loss(model(Tensor(x.data)), hr).item()

    model.zero_grad()
    x.grad = None
    loss_node = composite_loss(model(x), hr)
    loss_node.backward()

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

    # full input gradient
    for i in range(x.data.size):
        fd = fd_at(x.data, i)
        an = x.grad.reshape(-1)[i]
        assert abs(fd - an) <= 1e-7 + 1e-4 * max(abs(fd), abs(an), 1e-3)

    # random subset of parameter coordinates (bounded runtime per seed)
    named = list(model.named_parameters())
    for _ in range(30):
        name, p = named[int(rng.integers(0, len(named)))]
        i = int(rng.integers(0, p.data.size))
        fd = fd_at(p.data, i)
        an = p.grad.reshape(-1)[i]
        assert abs(fd - an) <= 1e-7 + 1e-4 * max(abs(fd), abs(an), 1e-3), (
            f"{name}[{i}]: fd {fd} vs analytic {an}"
        )
