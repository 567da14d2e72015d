"""Minimal PNG codec for 8-bit images, built directly on zlib.

Decoding accepts 8-bit grayscale (replicated to 3 channels), RGB, and their
alpha variants (alpha dropped); palette, interlaced, and non-8-bit files are
rejected.  Encoding writes truecolor rows, each filtered with None, Sub or
Up, whichever gives the smallest sum of its bytes read as signed
(``min(b, 256 - b)``; ties go to the lower type), and deflates them with
zlib's ``Z_RLE`` strategy.  Nothing but the pixels picks a filter, so
re-encoding the same pixels is byte-identical.  Average and Paeth are never
written, because decoding them runs the per-byte Python loops below.

Decoding inflates at most one byte more than the header implies, then
undoes each row's filter (PNG spec section 9) in uint8, where every
predictor sum wraps mod 256 as the spec defines:

- None copies the row; Up adds the row above with one ``np.add``.
- Sub adds the byte one pixel to the left, which is a running sum per
  channel: one ``np.cumsum`` over the (width, channels) row.
- Average and Paeth predict from the byte to the left *after* decoding, and
  their predictor is not a sum, so no cumulative NumPy operation expresses
  them.  They run as one Python loop per channel over ``bytes`` ints, which
  keeps the left neighbour in a local and touches no NumPy scalar.
"""
from __future__ import annotations

import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import DecodeError, DimensionError, UnsupportedFormatError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6
_ZLIB_STRATEGY = zlib.Z_RLE
# Largest slice of the compressed stream handed to the inflater at once.
_INFLATE_PIECE = 1 << 16


@dataclass
class ImageBuffer:
    """8-bit RGB raster stored as a (h, w, 3) uint8 array."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
            raise DimensionError(f"ImageBuffer needs (h, w, 3) uint8 data, got {arr.shape} {arr.dtype}")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def to_planes(self) -> np.ndarray:
        """Float64 planes in [0, 1], channel-first (3, h, w), in either precision mode.

        A model casts them to its own dtype; float32 ``x / 255`` equals this
        float64 ``x / 255`` rounded to float32 for every byte value ``x``.
        """
        return (self.data / 255.0).transpose(2, 0, 1)

    @classmethod
    def from_planes(cls, planes: np.ndarray) -> "ImageBuffer":
        """Quantize channel-first float planes to 8-bit; values outside [0, 1] saturate."""
        planes = np.asarray(planes)
        if planes.ndim != 3 or planes.shape[0] != 3:
            raise DimensionError(f"expected (3, h, w) planes, got {planes.shape}")
        quant = np.clip(np.rint(planes * 255.0), 0, 255).astype(np.uint8)
        return cls(quant.transpose(1, 2, 0))


def _average_channel(line: bytes, up: bytes) -> bytearray:
    # Adds floor((left + up) / 2) to each byte; ``left`` is the byte just
    # decoded, and 0 before the first pixel, where the prediction is up >> 1.
    out = bytearray()
    append = out.append
    a = 0
    for d, b in zip(line, up):
        a = (d + ((a + b) >> 1)) & 0xFF
        append(a)
    return out


def _paeth_channel(line: bytes, up: bytes) -> bytearray:
    # Paeth picks whichever of left (a), up (b) and upper-left (c) lies
    # nearest to p = a + b - c, preferring a, then b.  With p expanded,
    # |p - a| = |b - c| (the previous row alone), |p - b| = |a - c| and
    # |p - c| = |(a - c) + (b - c)|.  a = c = 0 before the first pixel, where
    # the prediction is therefore up.
    out = bytearray()
    append = out.append
    a = c = 0
    for d, b in zip(line, up):
        sa, sb = a - c, b - c
        pa = sb if sb >= 0 else -sb
        pb = sa if sa >= 0 else -sa
        pc = sa + sb if sa + sb >= 0 else -(sa + sb)
        if pa <= pb and pa <= pc:
            a = (d + a) & 0xFF
        elif pb <= pc:
            a = (d + b) & 0xFF
        else:
            a = (d + c) & 0xFF
        append(a)
        c = b
    return out


def _inflate(pieces: list, expected: int, path) -> bytearray:
    # Never inflates more than one byte past the size the header implies, so
    # a small file cannot expand into a large allocation.  The compressed
    # stream is fed in slices of at most _INFLATE_PIECE bytes, so what the
    # inflater copies aside when it stops early is one slice, not the file.
    limit = min(expected + 1, sys.maxsize)
    inflater = zlib.decompressobj()
    raw = bytearray()
    slices = (p[lo : lo + _INFLATE_PIECE] for p in pieces for lo in range(0, len(p), _INFLATE_PIECE))
    try:
        for piece in slices:
            raw += inflater.decompress(piece, limit - len(raw))
            if len(raw) >= limit or inflater.eof:
                break
    except zlib.error as exc:
        raise DecodeError(f"{path}: corrupt image data ({exc})") from exc
    if len(raw) > expected:
        raise DecodeError(f"{path}: decompressed size exceeds expected {expected}")
    if not inflater.eof:
        raise DecodeError(f"{path}: corrupt image data (incomplete or truncated stream)")
    if len(raw) != expected:
        raise DecodeError(f"{path}: decompressed size {len(raw)} != expected {expected}")
    return raw


def _unfilter(raw: bytearray, width: int, height: int, channels: int, path) -> np.ndarray:
    stride = width * channels
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    bad = np.flatnonzero(rows[:, 0] > 4)
    if bad.size:
        raise DecodeError(f"{path}: unknown filter type {rows[bad[0], 0]} on row {bad[0]}")
    # Row 0 of ``buf`` is the zero row above the image, so every row has one
    # above it; ``out`` views the same bytes.
    buf = bytearray((height + 1) * stride)
    out = np.frombuffer(buf, dtype=np.uint8).reshape(height + 1, stride)
    for y, ftype in enumerate(rows[:, 0].tolist(), 1):
        line, row = rows[y - 1, 1:], out[y]
        if ftype == 0:  # None
            row[:] = line
        elif ftype == 1:  # Sub
            np.cumsum(line.reshape(width, channels), axis=0, dtype=np.uint8,
                      out=row.reshape(width, channels))
        elif ftype == 2:  # Up
            np.add(line, out[y - 1], out=row)
        else:  # Average or Paeth, one channel at a time
            unfilter = _average_channel if ftype == 3 else _paeth_channel
            src, dst = (y - 1) * (stride + 1) + 1, y * stride
            for k in range(channels):
                buf[dst + k : dst + stride : channels] = unfilter(
                    raw[src + k : src + stride : channels], buf[dst - stride + k : dst : channels]
                )
    return out[1:].reshape(height, width, channels)


def decode_png(path) -> ImageBuffer:
    """Decode an 8-bit PNG file into an RGB buffer."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _SIGNATURE:
        raise DecodeError(f"{path}: not a PNG file (bad signature)")
    # Chunk bodies are views into ``blob``: the compressed stream is held
    # once, however many IDAT chunks carry it.
    view = memoryview(blob)
    pos = 8
    ihdr = None
    idat = []
    seen_iend = False
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise DecodeError(f"{path}: truncated chunk header")
        length, ctype = struct.unpack_from(">I4s", blob, pos)
        if pos + 12 + length > len(blob):
            raise DecodeError(f"{path}: truncated {ctype.decode(errors='replace')} chunk")
        body = view[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack_from(">I", blob, pos + 8 + length)
        if zlib.crc32(body, zlib.crc32(ctype)) != crc:
            raise DecodeError(f"{path}: CRC mismatch in {ctype.decode(errors='replace')} chunk")
        if ctype == b"IHDR":
            if length != 13:
                raise DecodeError(f"{path}: IHDR chunk has {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            seen_iend = True
            break
        pos += 12 + length
    if ihdr is None:
        raise DecodeError(f"{path}: missing IHDR chunk")
    if not seen_iend:
        raise DecodeError(f"{path}: missing IEND chunk")
    width, height, bit_depth, color_type, compression, filter_method, interlace = ihdr
    if bit_depth != 8:
        raise UnsupportedFormatError(f"{path}: {bit_depth}-bit PNG not supported (8-bit only)")
    if color_type not in (0, 2, 4, 6):
        raise UnsupportedFormatError(f"{path}: color type {color_type} not supported")
    if compression != 0 or filter_method != 0:
        raise DecodeError(f"{path}: nonstandard compression/filter method")
    if interlace != 0:
        raise UnsupportedFormatError(f"{path}: interlaced PNG not supported")
    if width < 1 or height < 1:
        raise DecodeError(f"{path}: empty image {width}x{height}")
    channels = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
    raw = _inflate(idat, height * (width * channels + 1), path)
    pixels = _unfilter(raw, width, height, channels, path)
    if color_type == 0:
        rgb = np.repeat(pixels, 3, axis=2)
    elif color_type == 2:
        rgb = pixels
    elif color_type == 4:
        rgb = np.repeat(pixels[:, :, :1], 3, axis=2)
    else:
        rgb = pixels[:, :, :3]
    return ImageBuffer(np.ascontiguousarray(rgb))


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + ctype
        + body
        + struct.pack(">I", zlib.crc32(body, zlib.crc32(ctype)))
    )


def encode_png(img: ImageBuffer, path) -> None:
    """Write an RGB buffer as a truecolor PNG (lossless round trip)."""
    h, w = img.height, img.width
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # One candidate row set per filter type, None (0), Sub (1) and Up (2);
    # the byte before the first pixel and the row above row 0 are 0.
    x = img.data.reshape(h, w * 3)
    cand = np.empty((3, h, w * 3), dtype=np.uint8)
    cand[0] = x
    cand[1, :, :3] = x[:, :3]
    np.subtract(x[:, 3:], x[:, :-3], out=cand[1, :, 3:])
    cand[2, :1] = x[:1]
    np.subtract(x[1:], x[:-1], out=cand[2, 1:])
    # In uint8, -b wraps to 256 - b, so min(b, -b) is |b| read as signed
    # without int8's -128.  argmin breaks ties toward the lower type.
    cost = [np.minimum(c, -c).sum(axis=1, dtype=np.int64) for c in cand]
    filters = np.argmin(cost, axis=0)
    rows = np.empty((h, w * 3 + 1), dtype=np.uint8)
    rows[:, 0] = filters
    rows[:, 1:] = cand[filters, np.arange(h)]
    deflater = zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, 15, 8, _ZLIB_STRATEGY)
    payload = deflater.compress(rows) + deflater.flush()
    blob = _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", payload) + _chunk(b"IEND", b"")
    with open(path, "wb") as fh:
        fh.write(blob)
