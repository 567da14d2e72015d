"""FFT oracles for the spectral loss transforms: direct O(N^2) DFT
comparison, round trips, Parseval."""
import numpy as np
import pytest

from safmn.loss import fft2_batched, ifft2_batched


def dft2_reference(z: np.ndarray) -> np.ndarray:
    """Direct double-loop 2-D DFT, the independent oracle."""
    h, w = z.shape
    out = np.zeros((h, w), dtype=complex)
    for ku in range(h):
        for kv in range(w):
            acc = 0.0 + 0.0j
            for u in range(h):
                for v in range(w):
                    acc += z[u, v] * np.exp(-2j * np.pi * (ku * u / h + kv * v / w))
            out[ku, kv] = acc
    return out


def test_constant_plane_is_delta_spectrum():
    for h, w in [(3, 5), (4, 4), (7, 2)]:
        spec = fft2_batched(np.full((h, w), 2.5))
        assert abs(spec.real[0, 0] - 2.5 * h * w) < 1e-9
        rest = spec.real.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-9
        assert np.max(np.abs(spec.imag)) < 1e-9


def test_2x2_known_bins():
    spec = fft2_batched(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(spec.real, [[10.0, -2.0], [-4.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(spec.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("h,w", [(2, 2), (4, 4), (3, 5), (7, 6), (13, 13), (8, 12), (16, 9)])
def test_matches_direct_dft(h, w):
    rng = np.random.default_rng(h * 100 + w)
    z = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    ours = fft2_batched(z)
    np.testing.assert_allclose(ours, dft2_reference(z), atol=1e-9)


@pytest.mark.parametrize("h,w", [(4, 6), (5, 5), (64, 64), (45, 80)])
def test_round_trip(h, w):
    rng = np.random.default_rng(9)
    z = rng.standard_normal((h, w))
    back = ifft2_batched(fft2_batched(z))
    np.testing.assert_allclose(back.real, z, atol=1e-9)
    np.testing.assert_allclose(back.imag, 0.0, atol=1e-9)


def test_forward_inverse_scaling():
    # ifft2_batched applies the 1/(h*w) normalization; composing without it scales by h*w.
    rng = np.random.default_rng(2)
    z = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    double_forward = fft2_batched(ifft2_batched(z) * 60)
    np.testing.assert_allclose(double_forward, z * 60 / 60 * 60, atol=1e-9 * 60)


@pytest.mark.parametrize("h,w", [(8, 8), (5, 12), (31, 17)])
def test_parseval(h, w):
    rng = np.random.default_rng(h + w)
    z = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    spec = fft2_batched(z)
    spatial = np.sum(np.abs(z) ** 2)
    spectral = np.sum(np.abs(spec) ** 2) / (h * w)
    assert abs(spatial - spectral) <= 1e-6 * spatial


def test_batched_leading_axes():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2, 3, 6, 7)) + 1j * rng.standard_normal((2, 3, 6, 7))
    ours = fft2_batched(z)
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(ours[i, j], np.fft.fft2(z[i, j]), atol=1e-9)

