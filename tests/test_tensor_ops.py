"""Forward-value oracles and structural invariants for the tensor kernels."""
import numpy as np
import pytest

from safmn import ops
from safmn.errors import DimensionError
from safmn.tensor import Tensor, add, channel_gate, mul, scale


def conv_reference(x, w, b, stride, padding, groups):
    """Direct-summation convolution oracle: explicit loops over every tap."""
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    out = np.zeros((n, c_out, oh, ow))
    c_out_g = c_out // groups
    for ni in range(n):
        for co in range(c_out):
            g = co // c_out_g
            for yo in range(oh):
                for xo in range(ow):
                    acc = 0.0
                    for ci in range(c_in_g):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += (
                                    w[co, ci, dy, dx]
                                    * xp[ni, g * c_in_g + ci, yo * stride + dy, xo * stride + dx]
                                )
                    out[ni, co, yo, xo] = acc + (b[co] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 5, 6)))
        w = Tensor(np.eye(4).reshape(4, 4, 1, 1))
        out = ops.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_3x3(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w, padding=1)
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        np.testing.assert_allclose(out.data[0, 0], expected)

    @pytest.mark.parametrize(
        "shape,wshape,stride,padding,groups",
        [
            ((2, 3, 6, 5), (4, 3, 3, 3), 1, 1, 1),
            ((1, 4, 7, 7), (4, 1, 3, 3), 1, 1, 4),
            ((1, 3, 7, 6), (3, 1, 3, 3), 1, 0, 3),
            ((1, 2, 7, 6), (3, 2, 3, 3), 1, 0, 1),
            ((1, 3, 5, 5), (5, 3, 1, 1), 1, 0, 1),
            ((2, 5, 4, 9), (3, 5, 3, 3), 1, 1, 1),
            ((1, 3, 1, 5), (2, 3, 3, 3), 1, 1, 1),
            ((1, 3, 4, 5), (2, 3, 1, 1), 1, 1, 1),
            ((3, 4, 3, 7), (5, 4, 1, 1), 1, 0, 1),
        ],
    )
    def test_matches_direct_summation(self, shape, wshape, stride, padding, groups):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(wshape)
        b = rng.standard_normal(wshape[0])
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding, groups)
        ref = conv_reference(x, w, b, stride, padding, groups)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "wshape,stride,groups",
        [((4, 4, 3, 3), 2, 1), ((6, 2, 3, 3), 1, 2)],
        ids=["stride2", "groups2"],
    )
    def test_rejects_strided_and_grouped(self, wshape, stride, groups):
        x = Tensor(np.zeros((1, 4, 6, 6)))
        with pytest.raises(DimensionError):
            ops.conv2d(x, Tensor(np.zeros(wshape)), None, stride, 1, groups)

    def test_depthwise_shape_and_param_count(self):
        x = Tensor(np.zeros((1, 9, 45, 80)))
        w = Tensor(np.zeros((9, 1, 3, 3)))
        b = Tensor(np.zeros(9))
        out = ops.conv2d(x, w, b, padding=1, groups=9)
        assert out.shape == (1, 9, 45, 80)
        assert w.size + b.size == 90

    def test_depthwise_equals_per_channel_composition(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 8, 8))
        w = rng.standard_normal((4, 1, 3, 3))
        full = ops.conv2d(Tensor(x), Tensor(w), None, padding=1, groups=4)
        for c in range(4):
            single = ops.conv2d(
                Tensor(x[:, c : c + 1]), Tensor(w[c : c + 1]), None, padding=1, groups=1
            )
            np.testing.assert_allclose(full.data[:, c], single.data[:, 0], atol=1e-12)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(DimensionError):
            ops.conv2d(x, w, padding=1)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 8, 9, 9))
        w = rng.standard_normal((8, 8, 3, 3))
        a = ops.conv2d(Tensor(x), Tensor(w), padding=1).data
        b = ops.conv2d(Tensor(x.copy()), Tensor(w.copy()), padding=1).data
        assert np.array_equal(a, b)


class TestAdaptivePool:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 2, 5, 7)))
        out = ops.adaptive_max_pool(x, 5, 7)
        np.testing.assert_array_equal(out.data, x.data)

    def test_4x4_to_2x2(self):
        x = Tensor(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
        out = ops.adaptive_max_pool(x, 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[6.0, 8.0], [14.0, 16.0]])

    def test_region_formula_180_to_22(self):
        # first output row pools input rows [0, ceil(180/22)) = [0, 9)
        x = np.zeros((1, 1, 180, 4))
        x[0, 0, 8, :] = 5.0  # inside the first region
        x[0, 0, 9, :] = 9.0  # first row of the second region
        out = ops.adaptive_max_pool(Tensor(x), 22, 4)
        assert out.data[0, 0, 0, 0] == 5.0
        assert out.data[0, 0, 1, 0] == 9.0

    def test_region_oracle_random_sizes(self):
        rng = np.random.default_rng(5)
        for h, w, oh, ow in [(7, 5, 3, 2), (10, 10, 4, 7), (6, 9, 6, 4)]:
            x = rng.standard_normal((2, 3, h, w))
            out = ops.adaptive_max_pool(Tensor(x), oh, ow)
            for i in range(oh):
                for j in range(ow):
                    rs, re = (i * h) // oh, -(-((i + 1) * h) // oh)
                    cs, ce = (j * w) // ow, -(-((j + 1) * w) // ow)
                    ref = x[:, :, rs:re, cs:ce].max(axis=(2, 3))
                    np.testing.assert_array_equal(out.data[:, :, i, j], ref)

    def test_never_exceeds_global_max(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal((1, 2, 9, 11))
            out = ops.adaptive_max_pool(Tensor(x), 4, 5)
            assert out.data.max() <= x.max()

    def test_gradient_routes_one_unit_per_cell(self):
        # Regions may overlap for non-divisible sizes, so the check is per
        # pooled cell: a one-hot output gradient lands on exactly one input.
        rng = np.random.default_rng(2)
        for h, w, oh, ow in [(8, 8, 2, 2), (9, 7, 4, 3)]:
            x = Tensor(rng.standard_normal((1, 2, h, w)), requires_grad=True)
            out = ops.adaptive_max_pool(x, oh, ow)
            for ci, i, j in [(0, 0, 0), (1, oh - 1, ow - 1), (0, oh // 2, ow // 2)]:
                seed_grad = np.zeros_like(out.data)
                seed_grad[0, ci, i, j] = 1.0
                (grads,) = out._backward(seed_grad)
                assert grads.sum() == 1.0
                assert set(np.unique(grads)) <= {0.0, 1.0}
            # linearity: total mass is conserved for any output gradient
            g = rng.random(out.data.shape)
            (dx,) = out._backward(g)
            assert abs(dx.sum() - g.sum()) < 1e-12

    def test_tie_routes_to_first_row_major(self):
        x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        out = ops.adaptive_max_pool(x, 1, 1)
        (grads,) = out._backward(np.ones((1, 1, 1, 1)))
        assert grads[0, 0, 0, 0] == 1.0 and grads.sum() == 1.0

    def test_invalid_sizes(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(DimensionError):
            ops.adaptive_max_pool(x, 0, 2)
        with pytest.raises(DimensionError):
            ops.adaptive_max_pool(x, 5, 2)

    def test_avg_pool_matches_region_means(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 7, 6))
        out = ops.adaptive_avg_pool(Tensor(x), 3, 4)
        for i in range(3):
            for j in range(4):
                rs, re = (i * 7) // 3, -(-((i + 1) * 7) // 3)
                cs, ce = (j * 6) // 4, -(-((j + 1) * 6) // 4)
                np.testing.assert_allclose(
                    out.data[:, :, i, j], x[:, :, rs:re, cs:ce].mean(axis=(2, 3))
                )


class TestNearestResize:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 4, 6)))
        np.testing.assert_array_equal(ops.nearest_resize(x, 4, 6).data, x.data)

    def test_constant_broadcast(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.5))
        out = ops.nearest_resize(x, 5, 7)
        assert out.shape == (1, 1, 5, 7)
        assert np.all(out.data == 3.5)

    def test_2x2_to_4x4_index_map(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ops.nearest_resize(x, 4, 4)
        expected = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float
        )
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_floor_mapping_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 5, 9))
        out = ops.nearest_resize(Tensor(x), 11, 4)
        for i in range(11):
            for j in range(4):
                np.testing.assert_array_equal(
                    out.data[:, :, i, j], x[:, :, (i * 5) // 11, (j * 9) // 4]
                )


class TestPixelShuffle:
    def test_r1_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        np.testing.assert_array_equal(ops.pixel_shuffle(x, 1).data, x.data)

    def test_index_formula_2x2(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = ops.pixel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_shape_48ch_to_hd(self):
        x = Tensor(np.zeros((1, 48, 180, 320), dtype=np.float32))
        assert ops.pixel_shuffle(x, 4).shape == (1, 3, 720, 1280)

    def test_bijection(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 18, 5, 7))
        out = ops.pixel_shuffle(Tensor(x), 3)
        n, c2, oh, ow = out.shape
        recovered = (
            out.data.reshape(n, c2, 5, 3, 7, 3)
            .transpose(0, 1, 3, 5, 2, 4)
            .reshape(2, 18, 5, 7)
        )
        np.testing.assert_array_equal(recovered, x)
        assert sorted(out.data.ravel()) == sorted(x.ravel())

    def test_indivisible_raises(self):
        with pytest.raises(DimensionError):
            ops.pixel_shuffle(Tensor(np.zeros((1, 6, 2, 2))), 2)


class TestActivationsAndNorms:
    def test_gelu_values(self):
        x = Tensor(np.array([0.0, 10.0, 1.0]).reshape(1, 3, 1, 1))
        out = ops.gelu(x).data.ravel()
        assert out[0] == 0.0
        assert abs(out[1] - 10.0) < 1e-9
        assert abs(out[2] - 0.841345) < 1e-5

    def test_sigmoid_range(self):
        rng = np.random.default_rng(0)
        out = ops.sigmoid(Tensor(rng.standard_normal((1, 2, 3, 3)) * 10)).data
        assert np.all((out > 0) & (out < 1))

    def test_layer_norm_constant_vector_is_zero(self):
        x = Tensor(np.full((1, 4, 2, 2), 7.0))
        out = ops.layer_norm_channels(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_layer_norm_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 3, 2, 2)))
        beta = np.array([1.0, -2.0, 0.5])
        out = ops.layer_norm_channels(x, Tensor(np.zeros(3)), Tensor(beta))
        np.testing.assert_allclose(out.data, beta[None, :, None, None] * np.ones_like(x.data))

    def test_layer_norm_two_channel_case(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        out = ops.layer_norm_channels(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 8, 3, 5)) * 4 + 2)
        out = ops.layer_norm_channels(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-5)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 5, 2, 2)) + 0.5)
        out = ops.l2_normalize_channels(x)
        np.testing.assert_allclose((out.data**2).sum(axis=1), 1.0, atol=1e-9)


class TestSplitConcatElementwise:
    def test_split_concat_inverse(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        np.testing.assert_array_equal(
            ops.concat_channels(ops.split_channels(x, 4)).data, x.data
        )

    def test_split_36_into_4(self):
        x = Tensor(np.arange(36, dtype=float).repeat(4).reshape(1, 36, 2, 2))
        parts = ops.split_channels(x, 4)
        assert [p.shape[1] for p in parts] == [9, 9, 9, 9]
        for k, part in enumerate(parts):
            np.testing.assert_array_equal(part.data, x.data[:, 9 * k : 9 * (k + 1)])

    def test_split_indivisible_raises(self):
        with pytest.raises(DimensionError):
            ops.split_channels(Tensor(np.zeros((1, 7, 2, 2))), 4)

    def test_concat_mismatched_spatial_raises(self):
        a = Tensor(np.zeros((1, 2, 3, 3)))
        b = Tensor(np.zeros((1, 2, 4, 3)))
        with pytest.raises(DimensionError):
            ops.concat_channels([a, b])

    def test_elementwise(self):
        x = Tensor(np.array([[1.0, 2.0]]).reshape(1, 2, 1, 1))
        y = Tensor(np.array([[3.0, 4.0]]).reshape(1, 2, 1, 1))
        zeros = Tensor(np.zeros((1, 2, 1, 1)))
        np.testing.assert_array_equal(mul(x, zeros).data, 0.0)
        np.testing.assert_array_equal(add(x, zeros).data, x.data)
        np.testing.assert_array_equal(mul(x, y).data.ravel(), [3.0, 8.0])
        np.testing.assert_array_equal(scale(x, -2.0).data.ravel(), [-2.0, -4.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((1, 2, 1, 1))), Tensor(np.zeros((1, 3, 1, 1))))

    def test_channel_gate_shape_check(self):
        with pytest.raises(DimensionError):
            channel_gate(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((1, 3, 1, 1))))


class TestFiniteness:
    @pytest.mark.parametrize("seed", range(5))
    def test_kernels_finite_on_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)) * 100)
        w = Tensor(rng.standard_normal((8, 8, 3, 3)) * 100)
        results = [
            ops.conv2d(x, w, padding=1).data,
            ops.adaptive_max_pool(x, 3, 2).data,
            ops.adaptive_avg_pool(x, 4, 5).data,
            ops.nearest_resize(x, 9, 4).data,
            ops.gelu(x).data,
            ops.sigmoid(x).data,
            ops.layer_norm_channels(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data,
            ops.l2_normalize_channels(x).data,
            ops.pixel_shuffle(x, 2).data,
        ]
        for r in results:
            assert np.all(np.isfinite(r))
