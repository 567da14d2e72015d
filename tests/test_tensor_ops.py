"""Forward-value oracles and structural invariants for the tensor kernels."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf, expit

from safmn import ops
from safmn.errors import DimensionError
from safmn.tensor import Tensor, add, mul, no_grad, records, scale


def ulps(a, b):
    """Units in the last place between two float arrays of one dtype.

    Maps each float's bits onto a line of integers where neighbouring floats
    differ by 1 (+0 and -0 both at 0), so the distance counts the floats between.
    """
    bits = np.dtype(f"i{a.dtype.itemsize}")
    ia, ib = (v.view(bits).astype(np.int64) for v in (a, b))
    top = np.int64(np.iinfo(bits).min)
    ia, ib = (np.where(v < 0, top - v, v) for v in (ia, ib))
    return np.abs(ia - ib)


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


def conv_vjp_reference(x, w, g, padding, groups):
    """Direct-summation VJP oracle: explicit loops over every tap, each
    forward product w * x sending g * x to dw and g * w to dx."""
    n, c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.zeros((n, c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    c_out_g = c_out // groups
    for ni in range(n):
        for co in range(c_out):
            base = (co // c_out_g) * c_in_g
            for yo in range(oh):
                for xo in range(ow):
                    gv = g[ni, co, yo, xo]
                    for ci in range(c_in_g):
                        for dy in range(kh):
                            for dx in range(kw):
                                dw[co, ci, dy, dx] += gv * xp[ni, base + ci, yo + dy, xo + dx]
                                dxp[ni, base + ci, yo + dy, xo + dx] += gv * w[co, ci, dy, dx]
    return dxp[:, :, padding : padding + h, padding : padding + wd], dw


# Output rows are computed in strips of max(16, ceil(4096 / wp)) rows; each
# case spans several strips and ends in a partial one.
across_strips = pytest.mark.parametrize(
    "shape,wshape,padding,groups",
    [
        ((2, 3, 37, 258), (4, 3, 3, 3), 1, 1),
        ((1, 4, 36, 258), (3, 4, 3, 3), 0, 1),
        ((2, 3, 35, 256), (3, 1, 3, 3), 1, 3),
        ((1, 2, 20, 300), (2, 1, 3, 3), 0, 2),
        ((1, 3, 20, 260), (2, 3, 1, 1), 1, 1),
        ((1, 2, 500, 8), (2, 2, 3, 3), 1, 1),
    ],
    ids=["stem-pad1-batch2", "dense-pad0", "depthwise-batch2", "depthwise-pad0", "1x1-pad1", "narrow"],
)


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
            ((1, 3, 1, 5), (3, 1, 3, 3), 1, 1, 3),
            ((2, 5, 4, 9), (5, 1, 3, 3), 1, 1, 5),
            ((3, 4, 3, 7), (4, 1, 3, 3), 1, 0, 4),
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

    @across_strips
    def test_matches_direct_summation_across_strips(self, shape, wshape, padding, groups):
        oh = shape[2] + 2 * padding - wshape[2] + 1
        rows = max(16, -(-4096 // (shape[3] + 2 * padding)))
        assert oh > rows and oh % rows
        self.test_matches_direct_summation(shape, wshape, 1, padding, groups)

    @across_strips
    def test_vjp_matches_direct_summation_across_strips(self, shape, wshape, padding, groups):
        rng = np.random.default_rng(43)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(wshape)
        out = ops.conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), None, 1, padding, groups)
        g = rng.standard_normal(out.shape)
        dx, dw = out._backward(g)
        ref_dx, ref_dw = conv_vjp_reference(x, w, g, padding, groups)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("wshape,padding,groups", [((4, 3, 3, 3), 1, 1), ((3, 1, 3, 3), 1, 3)])
    def test_input_gradient_only_when_required(self, wshape, padding, groups):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((2, 3, 6, 5))
        w, b = rng.standard_normal(wshape), rng.standard_normal(wshape[0])
        g = rng.standard_normal((2, wshape[0], 6, 5))
        grads = {}
        for need in (True, False):
            out = ops.conv2d(
                Tensor(x, requires_grad=need), Tensor(w, requires_grad=True),
                Tensor(b, requires_grad=True), 1, padding, groups,
            )
            grads[need] = out._backward(g)
        assert grads[True][0].shape == x.shape and grads[False][0] is None
        for with_dx, without in zip(grads[True][1:], grads[False][1:]):
            assert np.array_equal(with_dx, without)

    @pytest.mark.parametrize(
        "wshape,stride,groups",
        [((4, 4, 3, 3), 2, 1), ((6, 2, 3, 3), 1, 2), ((4, 4, 3, 1), 1, 1)],
        ids=["stride2", "groups2", "non-square"],
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
        # Forward and backward of both pools against a per-region loop.
        rng = np.random.default_rng(5)
        cases = [(7, 5, 3, 2), (10, 10, 4, 7), (6, 9, 6, 4), (9, 7, 4, 3), (180, 4, 22, 4), (7, 5, 1, 1)]
        inputs = [rng.standard_normal((2, 3, h, w)) for h, w, _, _ in cases]
        cases.append((7, 5, 3, 2))  # ties on overlapping regions: top-left takes the gradient
        inputs.append(np.zeros((2, 3, 7, 5)))
        for (h, w, oh, ow), x in zip(cases, inputs):
            g = rng.standard_normal((2, 3, oh, ow))
            xt = Tensor(x, requires_grad=True)
            mx, avg = ops.adaptive_max_pool(xt, oh, ow), ops.adaptive_avg_pool(xt, oh, ow)
            (dmax,), (davg,) = mx._backward(g), avg._backward(g)
            ref_dmax, ref_davg = np.zeros_like(x), np.zeros_like(x)
            for i in range(oh):
                for j in range(ow):
                    rs, re = (i * h) // oh, -(-((i + 1) * h) // oh)
                    cs, ce = (j * w) // ow, -(-((j + 1) * w) // ow)
                    region = x[:, :, rs:re, cs:ce]
                    np.testing.assert_array_equal(mx.data[:, :, i, j], region.max(axis=(2, 3)))
                    np.testing.assert_allclose(avg.data[:, :, i, j], region.mean(axis=(2, 3)), rtol=1e-12)
                    # the first maximum in row-major order takes the gradient
                    flat = region.reshape(2, 3, -1).argmax(axis=2)
                    r, c = rs + flat // (ce - cs), cs + flat % (ce - cs)
                    for b in range(2):
                        for ch in range(3):
                            ref_dmax[b, ch, r[b, ch], c[b, ch]] += g[b, ch, i, j]
                    ref_davg[:, :, rs:re, cs:ce] += (g[:, :, i, j] / region[0, 0].size)[:, :, None, None]
            np.testing.assert_array_equal(dmax, ref_dmax)
            np.testing.assert_allclose(davg, ref_davg, rtol=1e-12, atol=1e-15)

    @staticmethod
    def _argmax_pool(x, oh, ow, g):
        # Reference kernel: each region gathered into a row of length K
        # (shorter regions repeat their last row and column), np.argmax for
        # the first maximum in row-major order (the first NaN if any), and
        # the gradient scattered to it.
        n, c, h, w = x.shape
        ri, ci = np.arange(oh), np.arange(ow)
        rs, re = ri * h // oh, -(-(ri + 1) * h // oh)
        cs, ce = ci * w // ow, -(-(ci + 1) * w // ow)
        kh, kw = (re - rs).max(), (ce - cs).max()
        rows = np.minimum(rs[:, None] + np.arange(kh), re[:, None] - 1)
        cols = np.minimum(cs[:, None] + np.arange(kw), ce[:, None] - 1)
        idx = (rows[:, None, :, None] * w + cols[None, :, None, :]).reshape(oh, ow, kh * kw)
        windows = x.reshape(n, c, h * w)[:, :, idx]
        arg = windows.argmax(axis=-1)[..., None]
        out = np.take_along_axis(windows, arg, axis=-1)[..., 0]
        src = np.take_along_axis(idx[None, None], arg, axis=-1)[..., 0]
        dx = np.zeros((n, c, h * w), dtype=g.dtype)
        for b in range(n):
            for ch in range(c):
                np.add.at(dx[b, ch], src[b, ch].reshape(-1), g[b, ch].reshape(-1))
        return out, dx.reshape(x.shape)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "case", ["random", "nan", "inf", "ties", "signed-zero", "180-to-22"]
    )
    def test_matches_argmax_kernel(self, case, dtype):
        # Values (equal_nan, and -0.0 == +0.0) and the gradient route of
        # the running maximum against the argmax kernel, at shapes with
        # overlapping regions.
        rng = np.random.default_rng(21)
        shapes = [((2, 3, 7, 5), (3, 2)), ((1, 2, 9, 11), (4, 5)), ((4, 9, 32, 32), (4, 4))]
        if case == "180-to-22":
            shapes = [((1, 9, 180, 320), (22, 40))]
        for shape, (oh, ow) in shapes:
            x = rng.standard_normal(shape)
            if case == "nan":
                x[rng.random(shape) < 0.15] = np.nan
            elif case == "inf":
                x[rng.random(shape) < 0.2] = np.inf
                x[rng.random(shape) < 0.3] = -np.inf
                x[..., :2, :2] = -np.inf  # a region of nothing but -inf
            elif case == "ties":
                x = rng.integers(0, 3, shape).astype(float)
            elif case == "signed-zero":
                x = rng.choice([-0.0, 0.0, -1.0], shape)
            x = x.astype(dtype)
            g = rng.standard_normal(shape[:2] + (oh, ow)).astype(dtype)
            out = ops.adaptive_max_pool(Tensor(x, requires_grad=True), oh, ow)
            (dx,) = out._backward(g)
            ref, ref_dx = self._argmax_pool(x, oh, ow, g)
            assert out.data.dtype == dtype and dx.dtype == dtype
            np.testing.assert_array_equal(out.data, ref)
            np.testing.assert_array_equal(dx, ref_dx)

    def test_first_nan_and_first_zero_take_the_gradient(self):
        x = np.array([[1.0, np.nan], [np.nan, 5.0]])[None, None]
        out = ops.adaptive_max_pool(Tensor(x, requires_grad=True), 1, 1)
        (dx,) = out._backward(np.ones((1, 1, 1, 1)))
        assert np.isnan(out.data[0, 0, 0, 0])
        np.testing.assert_array_equal(dx[0, 0], [[0.0, 1.0], [0.0, 0.0]])
        for a, b in ((-0.0, 0.0), (0.0, -0.0)):
            x = np.array([[-1.0, a], [b, -2.0]])[None, None]
            out = ops.adaptive_max_pool(Tensor(x, requires_grad=True), 1, 1)
            (dx,) = out._backward(np.ones((1, 1, 1, 1)))
            assert out.data[0, 0, 0, 0] == 0.0
            np.testing.assert_array_equal(dx[0, 0], [[0.0, 1.0], [0.0, 0.0]])

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

    @pytest.mark.parametrize("out_hw", [(11, 4), (3, 20)])
    def test_backward_scatter_oracle(self, out_hw):
        # Each output cell's gradient is added to the input it copies.
        oh, ow = out_hw
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 2, 5, 9)), requires_grad=True)
        g = rng.standard_normal((1, 2, oh, ow))
        (dx,) = ops.nearest_resize(x, oh, ow)._backward(g)
        ref = np.zeros_like(x.data)
        for i in range(oh):
            for j in range(ow):
                ref[:, :, (i * 5) // oh, (j * 9) // ow] += g[:, :, i, j]
        np.testing.assert_allclose(dx, ref, rtol=1e-12)


class TestLocality:
    @pytest.mark.parametrize(
        "op, h, w, oh, ow",
        [
            (ops.nearest_resize, 5, 9, 11, 4),
            (ops.nearest_resize, 7, 6, 3, 13),
            (ops.adaptive_max_pool, 9, 7, 4, 3),
            (ops.adaptive_max_pool, 8, 8, 2, 2),
        ],
    )
    def test_one_inf_pixel_reaches_only_its_cells(self, op, h, w, oh, ow):
        # Nearest copies from (floor(i*h/oh), floor(j*w/ow)); max pooling
        # reads rows floor(i*h/oh) to ceil((i+1)*h/oh) and likewise columns.
        pool = op is ops.adaptive_max_pool
        for r, c in [(0, 0), (h - 1, w - 1), (h // 2, w // 3)]:
            x = np.zeros((2, 3, h, w))
            x[1, 2, r, c] = np.inf
            out = op(Tensor(x), oh, ow).data
            expected = np.zeros((2, 3, oh, ow), dtype=bool)
            for i in range(oh):
                for j in range(ow):
                    if pool:
                        rows = range((i * h) // oh, -(-((i + 1) * h) // oh))
                        cols = range((j * w) // ow, -(-((j + 1) * w) // ow))
                        expected[1, 2, i, j] = r in rows and c in cols
                    else:
                        expected[1, 2, i, j] = ((i * h) // oh, (j * w) // ow) == (r, c)
            np.testing.assert_array_equal(np.isinf(out), expected)
            assert np.all(out[~expected] == 0.0)


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gelu_blocks_match_unblocked_chain(self, dtype):
        # 86,106 elements: two blocks, the second one partial.
        shape = (2, 3, 113, 127)
        size = math.prod(shape)
        assert ops._BLOCK < size < 2 * ops._BLOCK
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(shape) * 3).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        # The same expression over the whole array at once.
        if dtype == np.float32:
            ax = np.abs(x)
            u = 1.0 / (1.0 + ax * ops._GELU_P)
            q = u * ops._GELU_COEFFS[4]
            for c in reversed(ops._GELU_COEFFS[:4]):
                q = (q + c) * u
            q = q * np.exp((ax * -0.5) * ax)
            cdf = 0.5 + np.copysign(0.5 - q, x)
            expected = np.maximum(x, 0.0) - q * ax
        else:
            cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
            expected = x * cdf
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))

        y = ops.gelu(Tensor(x, requires_grad=True))
        (dx,) = y._backward(g)
        assert y.data.dtype == dx.dtype == dtype
        np.testing.assert_array_equal(y.data, expected)
        np.testing.assert_array_equal(dx, g * (cdf + x * pdf))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_matches_expit(self, dtype):
        # Below -log(max float) expit's exp(-x) overflows and it returns 0;
        # the exp(-|x|) form keeps the subnormal value there, so the grid stops short.
        edge = math.floor(math.log(np.finfo(dtype).max)) - 1
        x = np.concatenate([np.linspace(-edge, edge, 700_001), np.linspace(-20, 20, 400_001),
                            [0.0, -0.0, np.inf, -np.inf]]).astype(dtype)
        with np.errstate(over="ignore"):
            ref = expit(x)
        s = ops.sigmoid(Tensor(x.reshape(1, 1, 1, -1))).data.ravel()
        assert s.dtype == dtype
        assert ulps(s, ref).max() <= 4
        inside = (ref > 0) & (ref < 1)
        assert inside.sum() > 400_000
        assert np.all((s[inside] > 0) & (s[inside] < 1))
        assert np.isnan(ops.sigmoid(Tensor(np.full((1, 1, 1, 1), np.nan, dtype))).data).all()

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


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gelu_keeps_positive_infinity(self, dtype):
        # +inf stays inf, and -inf gives 0 in both dtypes, not NaN from -inf * Phi(-inf).
        # The derivative's limits are 1 and 0, not NaN from x * pdf(x) = inf * 0.
        # NaN stays NaN both ways.
        x = np.array([np.inf, 1e30, -1e30, 0.0, -np.inf, np.nan], dtype=dtype).reshape(1, 6, 1, 1)
        with np.errstate(over="ignore"):
            y = ops.gelu(Tensor(x, requires_grad=True))
            (dx,) = y._backward(np.ones_like(x))
        np.testing.assert_array_equal(y.data.ravel(), np.array([np.inf, 1e30, 0.0, 0.0, 0.0, np.nan], dtype=dtype))
        np.testing.assert_array_equal(dx.ravel(), np.array([1.0, 1.0, 0.0, 0.5, 0.0, np.nan], dtype=dtype))

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_float32_gelu_tracks_float64_erf(self, sigma):
        # Max abs error of float32 GELU and its gradient against float64 erf
        # GELU, next to the chain that computed erf(x / sqrt 2) first and
        # Phi = (1 + erf) / 2 from it.  The forward is no worse; the gradient
        # reuses Phi, and stays within one float32 ulp of Phi(0) = 1/2.
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((1, 8, 64, 64)) * sigma).astype(np.float32)
        x64 = x.astype(np.float64)
        cdf64 = 0.5 * (1.0 + erf(x64 / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        z = x * (1.0 / math.sqrt(2.0))
        az = np.abs(z)
        t = 1.0 / (1.0 + ops._AS_P * az)
        poly = ops._AS_COEFFS[4]
        for c in reversed(ops._AS_COEFFS[:4]):
            poly = poly * t + c
        chain = 0.5 * (1.0 + np.copysign(1.0 - poly * t * np.exp(-az * az), z))

        y = ops.gelu(Tensor(x, requires_grad=True))
        (dx,) = y._backward(np.ones_like(x))

        def err(a, ref):
            return np.abs(a.astype(np.float64) - ref).max()

        ref, dref = x64 * cdf64, cdf64 + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
        assert err(y.data, ref) <= err(x * chain, ref)
        assert err(dx, dref) <= err(chain + x * pdf, dref) + 2.0**-24

    def test_layer_norm_variance_is_centred(self):
        # |mu| >> sigma in float32: E[x^2] - mu^2 loses every digit of the
        # variance, the variance of the centred values keeps it.
        rng = np.random.default_rng(6)
        x = (rng.standard_normal((2, 36, 24, 40)) * 0.1 + 1e3).astype(np.float32)
        one, zero = Tensor(np.ones(36, np.float32)), Tensor(np.zeros(36, np.float32))
        eps = ops.LN_EPS
        x64 = x.astype(np.float64)
        ref = (x64 - x64.mean(axis=1, keepdims=True)) / np.sqrt(x64.var(axis=1, keepdims=True) + eps)
        mu = x.mean(axis=1, keepdims=True)
        var_pass = (x - mu) * (1.0 / np.sqrt(x.var(axis=1, keepdims=True) + eps))
        one_pass_var = np.maximum((x * x).mean(axis=1, keepdims=True) - mu * mu, 0.0)
        one_pass = (x - mu) * (1.0 / np.sqrt(one_pass_var + eps))

        def rel(a):
            return np.linalg.norm(a - ref) / np.linalg.norm(ref)

        out = ops.layer_norm_channels(Tensor(x), one, zero).data
        assert rel(out) <= rel(var_pass) * (1 + 1e-3)
        assert rel(one_pass) > 100 * rel(var_pass)


class TestRecordingRule:
    def _inputs(self, rng, shape, requires_grad):
        # float32 input x, dense and depthwise 3x3 weights, and a (c,) vector.
        c = shape[1]
        arrays = (
            rng.standard_normal(shape),
            rng.standard_normal((c, c, 3, 3)) / 10,
            rng.standard_normal((c, 1, 3, 3)),
            rng.standard_normal(c),
        )
        return tuple(Tensor(a.astype(np.float32), requires_grad=requires_grad) for a in arrays)

    def test_records_rule(self):
        live, frozen = Tensor(np.zeros(1), requires_grad=True), Tensor(np.zeros(1))
        assert records((frozen, live)) and not records((frozen,)) and not records(())
        with no_grad():
            assert not records((live,))

    def test_no_grad_results_hold_no_graph(self):
        x, w, wd, b = self._inputs(np.random.default_rng(0), (1, 4, 9, 11), True)
        with no_grad():
            results = [
                ops.conv2d(x, w, b, padding=1),
                ops.conv2d(x, wd, b, padding=1, groups=4),
                ops.conv2d(x, w),
                ops.layer_norm_channels(x, b, b),
                ops.gelu(x),
            ]
        for r in results:
            assert r._parents == () and r._backward is None and not r.requires_grad

    @staticmethod
    def _traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kernel", ["gelu", "layer_norm", "dense3x3"])
    def test_no_grad_peak_memory(self, kernel):
        # float32 under no_grad at (1, 36, 96, 160): no full-size state beyond
        # the output.  A dense conv may hold its strip workspace (the tap-major
        # windows, the padded input rows and the strip's product), two
        # re-laid copies of its weight and the ufunc buffers of the bias add.
        n, c, h, w = 1, 36, 96, 160
        x, wt, _, b = self._inputs(np.random.default_rng(1), (n, c, h, w), False)
        fns = {
            "gelu": (lambda: ops.gelu(x), 2 << 20),
            "layer_norm": (lambda: ops.layer_norm_channels(x, b, b), 1 << 20),
            "dense3x3": (lambda: ops.conv2d(x, wt, b, padding=1), None),
        }
        fn, extra = fns[kernel]
        if extra is None:
            wp = w + 2
            rows = max(16, -(-4096 // wp))
            workspace = 4 * (9 * c * rows * wp + c * ((rows + 2) * wp + 2) + c * rows * wp)
            extra = workspace + 2 * wt.data.nbytes + (128 << 10)
        with no_grad():
            out, peak = self._traced_peak(fn)
        assert peak <= out.data.nbytes + extra, f"peak {peak} > {out.data.nbytes} + {extra}"

    def test_layer_norm_output_is_not_its_saved_state(self):
        # With gradients on, the output is a new array next to xhat: writing
        # into it leaves the backward pass unchanged.
        rng = np.random.default_rng(2)
        x, _, _, b = self._inputs(rng, (2, 4, 5, 6), True)
        g = rng.standard_normal((2, 4, 5, 6)).astype(np.float32)
        y = ops.layer_norm_channels(x, b, b)
        before = [a.copy() for a in y._backward(g)]
        y.data[...] = 7.0
        for a, ref in zip(y._backward(g), before):
            np.testing.assert_array_equal(a, ref)


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
            assert np.shares_memory(part.data, x.data)

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
        # mul's second operand must broadcast to the first's shape, and no further.
        for a, b in (((1, 2, 3, 3), (1, 3, 1, 1)), ((1, 2, 1, 1), (1, 2, 3, 3)),
                     ((2, 3), (1, 2, 3))):
            with pytest.raises(DimensionError, match="does not broadcast"):
                mul(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


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
