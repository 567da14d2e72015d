"""Seeded benchmark inputs: chart-like images and an adaptive-filter PNG writer.

Image sizes are fixed by the workloads; the seed only changes content, so
every seed costs the program the same amount of work.  The writer picks a
PNG filter per row by the minimum-sum-of-absolute-differences rule that
common encoders (libpng, zlib-based tools) use, so decoding these files
exercises the Sub/Up/Average/Paeth paths the way real-world PNGs do.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")


CHART_CELL = 16


def chart_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """A (h, w, 3) uint8 chart of 16 px cells plus sensor grain.

    Each cell holds a grating, a ramp, a disc or a flat patch in two random
    colours.  The seed places the cells; the share of each kind and the
    spread of grating angles and periods are fixed, so the PNG filter mix
    and the decode cost stay nearly the same from seed to seed.
    """
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    ci, cj = (yy // CHART_CELL).astype(np.intp), (xx // CHART_CELL).astype(np.intp)
    cells = (-(-h // CHART_CELL), -(-w // CHART_CELL))
    n = cells[0] * cells[1]

    def stratified(lo: float, hi: float) -> np.ndarray:
        return (lo + (hi - lo) * (rng.permutation(n) + rng.uniform(0, 1, n)) / n).reshape(cells)

    kind = rng.permutation(np.arange(n) % 4).reshape(cells)[ci, cj]
    theta = stratified(0, np.pi)[ci, cj]
    period = stratified(3, 9)[ci, cj]
    lo = rng.uniform(0.0, 0.5, cells + (3,))[ci, cj]
    hi = rng.uniform(0.5, 1.0, cells + (3,))[ci, cj]
    u, v = yy % CHART_CELL - CHART_CELL / 2, xx % CHART_CELL - CHART_CELL / 2
    grating = np.sin(2 * np.pi * (xx * np.cos(theta) + yy * np.sin(theta)) / period) > 0
    ramp = (u + v) / (2 * CHART_CELL) + 0.5
    disc = u * u + v * v < (CHART_CELL / 3) ** 2
    mix = np.choose(kind, [grating.astype(np.float64), ramp, disc.astype(np.float64), 0.5])
    img = lo + (hi - lo) * mix[..., None] + rng.normal(0.0, 0.015, (h, w, 3))
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def _chunk(ctype: bytes, body: bytes) -> bytes:
    crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)


def encode_png_adaptive(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode (h, w, 3) uint8 pixels as an RGB PNG with per-row filters.

    Returns the file bytes and the per-row filter types (0..4).
    """
    h, w, _ = pixels.shape
    x = pixels.reshape(h, w * 3).astype(np.int32)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, 3:] = x[:, :-3]
    upleft = np.zeros_like(x)
    upleft[:, 3:] = up[:, :-3]
    preds = (np.zeros_like(x), left, up, (left + up) // 2, _paeth(left, up, upleft))
    cand = np.stack([(x - p) & 0xFF for p in preds])  # (5, h, stride)
    signed = np.where(cand > 127, 256 - cand, cand)
    filters = signed.sum(axis=2).argmin(axis=0)
    rows = np.empty((h, w * 3 + 1), dtype=np.uint8)
    rows[:, 0] = filters
    rows[:, 1:] = cand[filters, np.arange(h)]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (
        PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(rows.tobytes(), 6))
        + _chunk(b"IEND", b"")
    )
    return blob, filters


def png_row_filters(blob: bytes) -> tuple[np.ndarray, int]:
    """Filter type of every row of an 8-bit, non-interlaced PNG file.

    Also returns the size of the decompressed (still filtered) image data.
    """
    pos, idat, ihdr = 8, bytearray(), None
    while pos < len(blob):
        length, ctype = struct.unpack(">I4s", blob[pos : pos + 8])
        body = blob[pos + 8 : pos + 8 + length]
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    width, height, _, color_type = ihdr[:4]
    channels = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    return raw.reshape(height, width * channels + 1)[:, 0], raw.size


def filter_mix(filters: np.ndarray) -> dict[str, int]:
    """Row count per filter name."""
    counts = np.bincount(np.asarray(filters, dtype=np.int64), minlength=5)
    return {name: int(n) for name, n in zip(FILTER_NAMES, counts)}
