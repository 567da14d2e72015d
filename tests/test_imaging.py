"""PNG codec, bicubic resampling, color transform, metrics, and sampling."""
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from safmn.cli import main
from safmn.errors import DataError, DecodeError, DimensionError, UnsupportedFormatError
from safmn.imaging.metrics import psnr_y, rgb_to_y, ssim_y
from safmn.imaging.png import ImageBuffer, decode_png, encode_png
from safmn.imaging.resize import bicubic_resize, cubic_kernel, resize_weights
from safmn.imaging.sampler import PatchSampler, dihedral_transform


def _write_reference_png(path, pixels, color_type, bit_depth=8, interlace=0):
    """Independent PNG writer used as a decode oracle (filter 0 rows)."""
    h, w = pixels.shape[:2]
    channels = pixels.shape[2] if pixels.ndim == 3 else 1
    body = bytearray()
    flat = pixels.reshape(h, -1)
    for row in range(h):
        body.append(0)
        body.extend(flat[row].tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, interlace)
    path.write_bytes(_png_bytes(ihdr, zlib.compress(bytes(body))))


def _png_bytes(ihdr: bytes, *idats: bytes) -> bytes:
    """A PNG file of one IHDR, one IDAT chunk per body in ``idats`` and IEND."""
    def chunk(ctype, data):
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(
            ">I", zlib.crc32(ctype + data) & 0xFFFFFFFF
        )
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + b"".join(chunk(b"IDAT", idat) for idat in idats) + chunk(b"IEND", b""))


def _ihdr(width, height, color_type=2):
    return struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)


_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _unfilter_oracle(raw, width, height, channels):
    """Per-byte PNG unfiltering (PNG spec section 9) in int32, one pixel at a time."""
    stride = width * channels
    out = np.zeros((height, stride), dtype=np.int32)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1).astype(np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    for row in range(height):
        ftype = rows[row, 0]
        line = rows[row, 1:].copy()
        for x in range(stride):
            left = int(line[x - channels]) if x >= channels else 0
            up = int(prev[x])
            ul = int(prev[x - channels]) if x >= channels else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = left
            elif ftype == 2:
                pred = up
            elif ftype == 3:
                pred = (left + up) // 2
            else:
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
            line[x] = (line[x] + pred) & 0xFF
        out[row] = line
        prev = line
    return out.astype(np.uint8).reshape(height, width, channels)


def _filter_rows(pixels, filters):
    """Filtered image data of (h, w, c) uint8 pixels, row r filtered with filters[r]."""
    h, w, c = pixels.shape
    x = pixels.reshape(h, w * c).astype(np.int32)
    up = np.vstack([np.zeros((1, w * c), dtype=np.int32), x[:-1]])
    left = np.pad(x, ((0, 0), (c, 0)))[:, : w * c]
    ul = np.pad(up, ((0, 0), (c, 0)))[:, : w * c]
    p = left + up - ul
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - ul)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, ul))
    preds = (np.zeros_like(x), left, up, (left + up) // 2, paeth)
    rows = [bytes([f]) + ((x[r] - preds[f][r]) % 256).astype(np.uint8).tobytes()
            for r, f in enumerate(filters)]
    return b"".join(rows)


def _encoded_rows(path):
    """Inflated image data of an RGB PNG file: per image row, the filter type
    byte and then the filtered bytes.

    Reads the chunks and inflates the IDAT with ``zlib.decompress`` alone, so
    it checks ``encode_png`` independently of ``decode_png``.
    """
    blob = path.read_bytes()
    pos, idat, ihdr = 8, b"", None
    while pos < len(blob):
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        body = blob[pos + 8 : pos + 8 + length]
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat += body
        pos += 12 + length
    width, height = ihdr[:2]
    return np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(height, width * 3 + 1)


def _min_signed_sum_filters(pixels):
    """Per-row filter among None, Sub and Up with the least sum of min(b, 256 - b)."""
    h, w, _ = pixels.shape
    stride = w * 3 + 1
    filtered = [_filter_rows(pixels, [f] * h) for f in range(3)]
    chosen = []
    for r in range(h):
        costs = [sum(min(b, 256 - b) for b in rows[r * stride + 1 : (r + 1) * stride])
                 for rows in filtered]
        chosen.append(costs.index(min(costs)))  # the first minimum: ties go low
    return chosen


def _ramp(h, w):
    """(h, w, 1) ramp rising 5 per pixel along each row and 37 per row, mod 256."""
    return (5 * np.arange(w)[None, :, None] + 37 * np.arange(h)[:, None, None]) % 256


def _write_zero_bomb(path, megabytes=64):
    """A 2x2 RGB header over an IDAT that inflates to ``megabytes`` MB of zeros."""
    comp = zlib.compressobj(9)
    block = bytes(1 << 20)
    idat = b"".join(comp.compress(block) for _ in range(megabytes)) + comp.flush()
    path.write_bytes(_png_bytes(_ihdr(2, 2), idat))


class TestPng:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = ImageBuffer(rng.integers(0, 256, (13, 17, 3), dtype=np.uint8))
        p = tmp_path / "x.png"
        encode_png(img, p)
        back = decode_png(p)
        np.testing.assert_array_equal(back.data, img.data)

    def test_reencode_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(1)
        img = ImageBuffer(rng.integers(0, 256, (8, 9, 3), dtype=np.uint8))
        p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
        encode_png(img, p1)
        encode_png(decode_png(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("content", ["random", "repeated-rows", "ramp", "signed-noise", "all-0x80"])
    def test_encoded_rows_follow_min_signed_sum_rule(self, tmp_path, content):
        rng = np.random.default_rng(5)
        h, w = 6, 11
        pixels = {
            "random": lambda: rng.integers(0, 256, (h, w, 3)),
            "repeated-rows": lambda: np.repeat(rng.integers(0, 256, (1, w, 3)), h, axis=0),
            "ramp": lambda: np.broadcast_to(_ramp(h, w), (h, w, 3)),
            "signed-noise": lambda: rng.integers(-16, 17, (h, w, 3)) % 256,
            "all-0x80": lambda: np.full((h, w, 3), 0x80),
        }[content]().astype(np.uint8)
        p = tmp_path / "x.png"
        encode_png(ImageBuffer(pixels), p)
        rows = _encoded_rows(p)
        filters = rows[:, 0].tolist()
        assert set(filters) <= {0, 1, 2}
        assert filters == _min_signed_sum_filters(pixels)
        assert rows.tobytes() == _filter_rows(pixels, filters)
        np.testing.assert_array_equal(decode_png(p).data, pixels)

    def test_repeated_rows_choose_up(self, tmp_path):
        row = np.random.default_rng(6).integers(0, 256, (1, 20, 3), dtype=np.uint8)
        p = tmp_path / "x.png"
        encode_png(ImageBuffer(np.repeat(row, 5, axis=0)), p)
        assert _encoded_rows(p)[1:, 0].tolist() == [2] * 4

    def test_horizontal_ramp_chooses_sub(self, tmp_path):
        p = tmp_path / "x.png"
        encode_png(ImageBuffer(np.repeat(_ramp(5, 40).astype(np.uint8), 3, axis=2)), p)
        assert _encoded_rows(p)[:, 0].tolist() == [1] * 5

    def test_zero_centred_noise_chooses_none(self, tmp_path):
        # Independent bytes spread evenly over -16..16 (mod 256): the
        # difference of two of them spreads twice as wide, so None wins every
        # row.  Full-range uniform bytes cannot show this: the difference of
        # two independent uniform bytes is uniform as well, so all three
        # filters cost the same in expectation and each row's pick is chance.
        noise = np.random.default_rng(7).integers(-16, 17, (8, 64, 3)) % 256
        p = tmp_path / "x.png"
        encode_png(ImageBuffer(noise.astype(np.uint8)), p)
        assert _encoded_rows(p)[:, 0].tolist() == [0] * 8

    def test_0x80_rows_score_as_128(self, tmp_path):
        # 0x80 costs 128 whether read as +128 or -128; an int8 abs would
        # score it -128 and pick None on row 1, whose Up row is all zeros.
        p = tmp_path / "x.png"
        encode_png(ImageBuffer(np.full((2, 9, 3), 0x80, dtype=np.uint8)), p)
        assert _encoded_rows(p)[:, 0].tolist() == [1, 2]

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 7), (7, 1)], ids=["1x1", "1xW", "Hx1"])
    def test_thin_images_round_trip_and_reencode_identically(self, tmp_path, h, w):
        pixels = np.random.default_rng(8).integers(0, 256, (h, w, 3), dtype=np.uint8)
        p1, p2 = tmp_path / "a.png", tmp_path / "b.png"
        encode_png(ImageBuffer(pixels), p1)
        back = decode_png(p1)
        np.testing.assert_array_equal(back.data, pixels)
        encode_png(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert _encoded_rows(p1)[:, 0].tolist() == _min_signed_sum_filters(pixels)

    def test_1x1_white(self, tmp_path):
        p = tmp_path / "w.png"
        _write_reference_png(p, np.full((1, 1, 3), 255, dtype=np.uint8), color_type=2)
        img = decode_png(p)
        assert tuple(img.data[0, 0]) == (255, 255, 255)

    def test_grayscale_replicates(self, tmp_path):
        p = tmp_path / "g.png"
        _write_reference_png(p, np.arange(6, dtype=np.uint8).reshape(2, 3), color_type=0)
        img = decode_png(p)
        assert img.data.shape == (2, 3, 3)
        np.testing.assert_array_equal(img.data[:, :, 0], img.data[:, :, 1])
        np.testing.assert_array_equal(img.data[:, :, 0], [[0, 1, 2], [3, 4, 5]])

    def test_alpha_dropped(self, tmp_path):
        rng = np.random.default_rng(2)
        rgba = rng.integers(0, 256, (4, 5, 4), dtype=np.uint8)
        p = tmp_path / "a.png"
        _write_reference_png(p, rgba, color_type=6)
        img = decode_png(p)
        np.testing.assert_array_equal(img.data, rgba[:, :, :3])

    def test_16bit_unsupported(self, tmp_path):
        p = tmp_path / "deep.png"
        pixels = np.zeros((2, 2, 6), dtype=np.uint8)  # fake 16-bit RGB payload
        _write_reference_png(p, pixels, color_type=2, bit_depth=16)
        with pytest.raises(UnsupportedFormatError, match="16-bit"):
            decode_png(p)

    def test_palette_unsupported(self, tmp_path):
        p = tmp_path / "pal.png"
        _write_reference_png(p, np.zeros((2, 2), dtype=np.uint8), color_type=3)
        with pytest.raises(UnsupportedFormatError):
            decode_png(p)

    def test_crc_corruption_detected(self, tmp_path):
        img = ImageBuffer(np.zeros((3, 3, 3), dtype=np.uint8))
        p = tmp_path / "c.png"
        encode_png(img, p)
        blob = bytearray(p.read_bytes())
        blob[40] ^= 0xFF  # inside IDAT
        p.write_bytes(bytes(blob))
        with pytest.raises(DecodeError):
            decode_png(p)

    def test_not_a_png(self, tmp_path):
        p = tmp_path / "nope.png"
        p.write_bytes(b"JPEG" * 10)
        with pytest.raises(DecodeError, match="signature"):
            decode_png(p)

    def test_filtered_rows_decode(self, tmp_path):
        # Exercise Sub/Up/Average/Paeth unfiltering against known pixels.
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8).astype(np.int32)
        raw = bytearray()
        for row in range(5):
            ftype = row % 5
            raw.append(ftype)
            line = pixels[row].reshape(-1)
            prev = pixels[row - 1].reshape(-1) if row else np.zeros(12, dtype=np.int32)
            enc = np.zeros(12, dtype=np.int32)
            for x in range(12):
                left = line[x - 3] if x >= 3 else 0
                up = prev[x]
                ul = prev[x - 3] if x >= 3 else 0
                if ftype == 0:
                    pred = 0
                elif ftype == 1:
                    pred = left
                elif ftype == 2:
                    pred = up
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    p_ = left + up - ul
                    pa, pb, pc = abs(p_ - left), abs(p_ - up), abs(p_ - ul)
                    pred = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
                enc[x] = (line[x] - pred) % 256
            raw.extend(enc.astype(np.uint8).tobytes())
        p = tmp_path / "f.png"
        p.write_bytes(_png_bytes(_ihdr(4, 5), zlib.compress(bytes(raw))))
        img = decode_png(p)
        np.testing.assert_array_equal(img.data, pixels.astype(np.uint8))

    @pytest.mark.parametrize("content", ["random", "all-0", "all-255", "paeth-ties"])
    @pytest.mark.parametrize("color_type", [0, 2, 4, 6])
    def test_unfilter_matches_per_byte_oracle(self, tmp_path, color_type, content):
        # Five images of five rows, row r of image s filtered with (r + s) % 5,
        # so every filter type runs on every row, first and last included.
        rng = np.random.default_rng(color_type)
        channels = _CHANNELS[color_type]
        for width in (1, 2, 7):
            shape = (5, width, channels)
            pixels = {
                "random": lambda: rng.integers(0, 256, shape, dtype=np.uint8),
                "all-0": lambda: np.zeros(shape, dtype=np.uint8),
                "all-255": lambda: np.full(shape, 255, dtype=np.uint8),
                # few levels, so Paeth's three distances tie often
                "paeth-ties": lambda: rng.integers(0, 8, shape, dtype=np.uint8),
            }[content]()
            for shift in range(5):
                raw = _filter_rows(pixels, [(r + shift) % 5 for r in range(5)])
                p = tmp_path / f"w{width}s{shift}.png"
                p.write_bytes(_png_bytes(_ihdr(width, 5, color_type), zlib.compress(raw)))
                want = _unfilter_oracle(raw, width, 5, channels)
                np.testing.assert_array_equal(want, pixels)
                got = decode_png(p).data
                rgb = want[:, :, :3] if channels >= 3 else np.repeat(want[:, :, :1], 3, axis=2)
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, rgb, err_msg=f"width {width} shift {shift}")

    @pytest.mark.parametrize("row", [0, 3])
    def test_unknown_filter_names_row_and_file(self, tmp_path, row):
        raw = bytearray(_filter_rows(np.zeros((5, 3, 3), dtype=np.uint8), [2] * 5))
        raw[row * 10] = 5
        raw[4 * 10] = 255  # a later bad row is not the one named
        p = tmp_path / "bad.png"
        p.write_bytes(_png_bytes(_ihdr(3, 5), zlib.compress(bytes(raw))))
        with pytest.raises(DecodeError, match=rf"bad\.png: unknown filter type 5 on row {row}$"):
            decode_png(p)

    @pytest.mark.parametrize("size, message", [
        (4 * 10 - 1, r"short\.png: decompressed size 39 != expected 40$"),
        (4 * 10 + 1, r"short\.png: decompressed size exceeds expected 40$"),
    ], ids=["short", "long"])
    def test_payload_size_must_match_header(self, tmp_path, size, message):
        p = tmp_path / "short.png"
        p.write_bytes(_png_bytes(_ihdr(3, 4), zlib.compress(bytes(size))))
        with pytest.raises(DecodeError, match=message):
            decode_png(p)

    def test_trailing_bytes_after_zlib_stream_accepted(self, tmp_path):
        p = tmp_path / "t.png"
        p.write_bytes(_png_bytes(_ihdr(3, 4), zlib.compress(bytes(40)) + b"junk"))
        np.testing.assert_array_equal(decode_png(p).data, 0)

    def test_zlib_bomb_decodes_in_bounded_memory(self, tmp_path):
        p = tmp_path / "bomb.png"
        _write_zero_bomb(p)
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="decompressed size exceeds"):
                decode_png(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"decode_png peaked at {peak} bytes"

    def test_bomb_peak_stays_within_file_size(self, tmp_path):
        # The stream is held once, as the file's bytes; the inflater sees it
        # in bounded slices, so what it sets aside stays small.
        p = tmp_path / "bomb200.png"
        _write_zero_bomb(p, megabytes=200)
        size = p.stat().st_size
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="decompressed size exceeds"):
                decode_png(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size + (128 << 10), f"decode_png peaked at {peak} bytes for a {size}-byte file"

    def test_stream_split_across_idat_chunks(self, tmp_path):
        rng = np.random.default_rng(12)
        pixels = rng.integers(0, 256, (150, 170, 3), dtype=np.uint8)
        rows = np.zeros((150, 170 * 3 + 1), dtype=np.uint8)
        rows[:, 1:] = pixels.reshape(150, -1)
        stream = zlib.compress(rows.tobytes())
        assert len(stream) > 70_000  # spans more than one inflater slice
        cuts = [0, 0, 1, 65_536, 65_537, 70_000, 70_000, len(stream)]
        idats = [stream[a:b] for a, b in zip(cuts, cuts[1:])]
        p = tmp_path / "split.png"
        p.write_bytes(_png_bytes(_ihdr(170, 150), *idats))
        np.testing.assert_array_equal(decode_png(p).data, pixels)
        p.write_bytes(_png_bytes(_ihdr(170, 150), *idats[:-1]))
        with pytest.raises(DecodeError, match="incomplete or truncated stream"):
            decode_png(p)

    def test_quantization_convention(self):
        planes = np.array([[[0.0]], [[0.4]], [[1.0]]])
        img = ImageBuffer.from_planes(planes)
        assert tuple(img.data[0, 0]) == (0, 102, 255)
        over = ImageBuffer.from_planes(np.array([[[-0.2]], [[0.5]], [[1.7]]]))
        # ties round half-to-even: 0.5 * 255 = 127.5 -> 128
        assert tuple(over.data[0, 0]) == (0, 128, 255)



class TestMalformedPngThroughEval:
    """`safmn eval` exits 2 with an ``error:`` line on each malformed HR file."""

    @pytest.fixture()
    def dirs(self, tmp_path):
        sr, hr = tmp_path / "sr", tmp_path / "hr"
        sr.mkdir()
        hr.mkdir()
        encode_png(ImageBuffer(np.zeros((2, 2, 3), dtype=np.uint8)), sr / "a.png")
        return sr, hr

    def _eval(self, dirs, capsys):
        sr, hr = dirs
        rc = main(["eval", "--sr-dir", str(sr), "--hr-dir", str(hr)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "a.png" in err
        return err

    def test_short_ihdr(self, dirs, capsys):
        (dirs[1] / "a.png").write_bytes(_png_bytes(_ihdr(2, 2)[:5], zlib.compress(bytes(14))))
        assert "a.png: IHDR chunk has 5 bytes, expected 13" in self._eval(dirs, capsys)

    def test_zlib_bomb(self, dirs, capsys):
        _write_zero_bomb(dirs[1] / "a.png")
        assert "a.png: decompressed size exceeds expected 14" in self._eval(dirs, capsys)

    @pytest.mark.parametrize("cut", [12, 2], ids=["half-the-pixels", "checksum"])
    def test_truncated_idat(self, dirs, capsys, cut):
        # Cutting the 4-byte Adler-32 trailer leaves every pixel byte in place.
        idat = zlib.compress(np.random.default_rng(0).integers(0, 256, 14, dtype=np.uint8).tobytes())
        (dirs[1] / "a.png").write_bytes(_png_bytes(_ihdr(2, 2), idat[:-cut]))
        assert "a.png: corrupt image data (incomplete or truncated stream)" in self._eval(dirs, capsys)

    def test_header_larger_than_any_buffer(self, dirs, capsys):
        (dirs[1] / "a.png").write_bytes(_png_bytes(_ihdr(0xFFFFFFFF, 0xFFFFFFFF, 6), zlib.compress(bytes(14))))
        assert "a.png: decompressed size 14 != expected" in self._eval(dirs, capsys)


class TestBicubic:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 7, 9))
        out = bicubic_resize(x, 7, 9)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_constant_preserved(self):
        x = np.full((3, 8, 10), 0.37)
        for oh, ow in [(4, 5), (16, 20), (3, 7)]:
            out = bicubic_resize(x, oh, ow)
            np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_downscale_matches_direct_kernel_oracle(self):
        # Direct per-output-pixel summation of the widened, normalized kernel
        # with clamped source coordinates.
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = bicubic_resize(x, 2, 2)

        def oracle_1d(in_size, out_size):
            scale = out_size / in_size
            support = 2.0 / scale
            centers = (np.arange(out_size) + 0.5) / scale - 0.5
            rows = np.zeros((out_size, in_size))
            for i, c in enumerate(centers):
                left = int(np.floor(c - support)) + 1
                taps = int(np.ceil(2 * support)) + 2
                idx = np.arange(left, left + taps)
                w = cubic_kernel((c - idx) * scale)
                w = w / w.sum()
                for j, wt in zip(np.clip(idx, 0, in_size - 1), w):
                    rows[i, j] += wt
            return rows

        wr = oracle_1d(4, 2)
        ref = wr @ x[0] @ wr.T
        np.testing.assert_allclose(out[0], ref, atol=1e-9)

    def test_upscale_matches_weights_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.random((1, 5, 6))
        out = bicubic_resize(x, 10, 12)
        wr = resize_weights(5, 10)
        wc = resize_weights(6, 12)
        np.testing.assert_allclose(out[0], wr @ x[0] @ wc.T, atol=1e-12)

    def test_overshoot_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.random((1, 12, 12))
            lo, hi = x.min(), x.max()
            span = hi - lo
            out = bicubic_resize(x, 30, 30)
            assert out.min() >= lo - 0.25 * span - 1e-9
            assert out.max() <= hi + 0.25 * span + 1e-9


class TestColorAndMetrics:
    def test_rgb_to_y_anchors(self):
        black = rgb_to_y(np.zeros((3, 1, 1)))
        white = rgb_to_y(np.ones((3, 1, 1)))
        green = rgb_to_y(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        assert abs(black[0, 0] - 16.0) < 1e-12
        assert abs(white[0, 0] - 235.0) < 1e-12
        assert abs(green[0, 0] - 144.553) < 1e-12

    def test_psnr_identical_is_inf(self):
        rng = np.random.default_rng(0)
        img = ImageBuffer(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8))
        assert math.isinf(psnr_y(img, img, border_crop=2))

    def test_psnr_uniform_offset_closed_form(self):
        # Gray ramp offset by exactly 1 or 16 luma steps.
        base = np.full((32, 32, 3), 100, dtype=np.uint8)
        for delta, expected in [(1, 48.1308), (16, 24.0484)]:
            shifted = (base + delta).astype(np.uint8)
            got = psnr_y(ImageBuffer(base), ImageBuffer(shifted), border_crop=0)
            # Y offset equals the gray-level offset times the coefficient sum (219/255).
            y_delta = delta * (65.481 + 128.553 + 24.966) / 255.0
            closed = 10 * math.log10(255.0**2 / y_delta**2)
            assert abs(got - closed) < 1e-9
        # direct Y-plane check of the canonical figures
        assert abs(10 * math.log10(255.0**2) - 48.1308) < 1e-4
        assert abs(10 * math.log10(255.0**2 / 256.0) - 24.0484) < 1e-4

    def test_psnr_symmetric_and_monotonic(self):
        rng = np.random.default_rng(3)
        a = ImageBuffer(rng.integers(0, 200, (16, 16, 3), dtype=np.uint8))
        b = ImageBuffer((a.data + 10).astype(np.uint8))
        c = ImageBuffer((a.data + 30).astype(np.uint8))
        assert psnr_y(a, b) == psnr_y(b, a)
        assert psnr_y(a, b) > psnr_y(a, c)

    def test_psnr_dimension_mismatch(self):
        a = ImageBuffer(np.zeros((4, 4, 3), dtype=np.uint8))
        b = ImageBuffer(np.zeros((4, 5, 3), dtype=np.uint8))
        with pytest.raises(DimensionError):
            psnr_y(a, b)

    def test_ssim_self_is_one(self):
        rng = np.random.default_rng(1)
        img = ImageBuffer(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
        assert ssim_y(img, img) == 1.0

    def test_ssim_inverted_below_half(self):
        rng = np.random.default_rng(2)
        data = rng.integers(40, 216, (32, 32, 3), dtype=np.uint8)
        img = ImageBuffer(data)
        inv = ImageBuffer((255 - data).astype(np.uint8))
        assert ssim_y(img, inv) < 0.5

    def test_ssim_constant_offset_closed_form(self):
        base = np.full((20, 20, 3), 90, dtype=np.uint8)
        off = np.full((20, 20, 3), 100, dtype=np.uint8)
        got = ssim_y(ImageBuffer(base), ImageBuffer(off))
        y1 = rgb_to_y((base.astype(np.float64) / 255).transpose(2, 0, 1))[0, 0]
        y2 = rgb_to_y((off.astype(np.float64) / 255).transpose(2, 0, 1))[0, 0]
        c1 = (0.01 * 255) ** 2
        lum = (2 * y1 * y2 + c1) / (y1 * y1 + y2 * y2 + c1)
        assert abs(got - lum) < 1e-9

    def test_ssim_bounded(self):
        rng = np.random.default_rng(4)
        a = ImageBuffer(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
        b = ImageBuffer(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
        assert -1.0 <= ssim_y(a, b) <= 1.0

    def test_ssim_matches_naive_window_oracle(self):
        # Literal per-window implementation of the reference formula.
        rng = np.random.default_rng(7)
        a = ImageBuffer(rng.integers(0, 256, (14, 15, 3), dtype=np.uint8))
        b = ImageBuffer(
            np.clip(a.data.astype(int) + rng.integers(-25, 26, a.data.shape), 0, 255).astype(np.uint8)
        )
        ya = rgb_to_y(a.to_planes())
        yb = rgb_to_y(b.to_planes())
        half = np.arange(11) - 5.0
        g1 = np.exp(-(half**2) / (2 * 1.5**2))
        window = np.outer(g1, g1)
        window /= window.sum()
        c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
        values = []
        for i in range(ya.shape[0] - 10):
            for j in range(ya.shape[1] - 10):
                wa = ya[i : i + 11, j : j + 11]
                wb = yb[i : i + 11, j : j + 11]
                mu_a = (window * wa).sum()
                mu_b = (window * wb).sum()
                var_a = (window * wa * wa).sum() - mu_a**2
                var_b = (window * wb * wb).sum() - mu_b**2
                cov = (window * wa * wb).sum() - mu_a * mu_b
                values.append(
                    ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
                )
        assert abs(ssim_y(a, b) - np.mean(values)) < 1e-12

    def test_border_crop_changes_only_the_scored_region(self):
        rng = np.random.default_rng(8)
        data = rng.integers(0, 256, (20, 20, 3), dtype=np.uint8)
        damaged = data.copy()
        damaged[0, :, :] = 255 - damaged[0, :, :]  # corrupt the top border row
        a, b = ImageBuffer(data), ImageBuffer(damaged)
        assert psnr_y(a, b, border_crop=0) < 40
        assert math.isinf(psnr_y(a, b, border_crop=1))
        with pytest.raises(DimensionError):
            psnr_y(a, b, border_crop=10)

    def test_ssim_too_small(self):
        img = ImageBuffer(np.zeros((10, 10, 3), dtype=np.uint8))
        with pytest.raises(DimensionError):
            ssim_y(img, img)


class TestSamplerAndDihedral:
    def test_deterministic_batches(self):
        rng = np.random.default_rng(0)
        hr = rng.random((3, 64, 64))
        lr = bicubic_resize(hr, 32, 32)
        a = PatchSampler(16, 4, seed=5).sample(lr, hr, 2)
        b = PatchSampler(16, 4, seed=5).sample(lr, hr, 2)
        np.testing.assert_array_equal(a[0].data, b[0].data)
        np.testing.assert_array_equal(a[1].data, b[1].data)

    def test_alignment_without_augmentation(self):
        rng = np.random.default_rng(1)
        hr = rng.random((3, 48, 48))
        from safmn.imaging.resize import bicubic_resize

        lr = bicubic_resize(hr, 24, 24)
        sampler = PatchSampler(8, 16, seed=3, augment=False)
        lr_b, hr_b = sampler.sample(lr, hr, 2)
        # every LR patch appears verbatim in the LR image at some (y, x), and
        # the HR patch is the 2x-scaled crop at the same coordinates
        for k in range(16):
            found = False
            for y in range(17):
                for x in range(17):
                    if np.array_equal(lr_b.data[k], lr[:, y : y + 8, x : x + 8]):
                        np.testing.assert_array_equal(
                            hr_b.data[k], hr[:, 2 * y : 2 * y + 16, 2 * x : 2 * x + 16]
                        )
                        found = True
                        break
                if found:
                    break
            assert found

    def test_flip_twice_recovers(self):
        rng = np.random.default_rng(2)
        patch = rng.random((3, 6, 6))
        flipped = dihedral_transform(dihedral_transform(patch, 4), 4)
        np.testing.assert_array_equal(flipped, patch)

    def test_dihedral_group_closure(self):
        # composing any two of the 8 transforms lands back in the set
        probe = np.arange(36, dtype=float).reshape(1, 6, 6)
        variants = [dihedral_transform(probe, t).tobytes() for t in range(8)]
        assert len(set(variants)) == 8
        for a in range(8):
            for b in range(8):
                composed = dihedral_transform(dihedral_transform(probe, a), b)
                assert composed.tobytes() in variants

    def test_small_image_rejected(self):
        hr = np.zeros((3, 8, 8))
        lr = bicubic_resize(hr, 4, 4)
        with pytest.raises(DataError, match="smaller than patch"):
            PatchSampler(16, 2, seed=0).sample(lr, hr, 2)

    def test_hr_not_divisible_rejected(self):
        hr = np.zeros((3, 9, 8))
        lr = bicubic_resize(hr, 4, 4)
        with pytest.raises(DataError, match="not exactly 2x"):
            PatchSampler(4, 2, seed=0).sample(lr, hr, 2)
