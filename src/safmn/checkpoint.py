"""Binary checkpoint serialization.

Layout (all integers little-endian):

    magic      4 bytes  b"SAFM"
    version    u16      currently 1
    config     u32 length + UTF-8 JSON of the model configuration
    iteration  u64
    seed       u64
    n_params   u32
    records    per parameter, in model iteration order:
                 u16 name length + name bytes
                 u8 ndim + u32 per dimension
                 u64 payload byte length + float64 raw data
    has_opt    u8 (0 or 1)
    opt state  if present: u64 step count, then per parameter two payloads
               (first and second moment), each u64 length + float64 raw data

Parameters are stored as 64-bit floats regardless of the active precision
mode, so save/load round trips are bit-exact.  Reading raises ``FormatError``
at the failing byte offset for any malformed field, including a parameter or
Adam moment that holds NaN or infinity or whose size does not match its shape.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .model import ModelConfig, SafmnModel

MAGIC = b"SAFM"
VERSION = 1


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    iteration: int
    seed: int
    opt_step: int | None = None
    opt_moments: dict[str, tuple[np.ndarray, np.ndarray]] | None = None


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated checkpoint while reading {what}", self.pos)
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def _pack_array(arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return struct.pack("<Q", len(payload)) + payload


def _read_array(r: _Reader, what: str, shape: tuple[int, ...]) -> np.ndarray:
    nbytes = r.u64(f"{what} length")
    if nbytes % 8:
        raise FormatError(f"{what} payload length {nbytes} is not a multiple of 8", r.pos - 8)
    raw = r.take(nbytes, what)
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if arr.size != math.prod(shape):
        raise FormatError(
            f"{what}: payload holds {arr.size} values, shape {shape} needs {math.prod(shape)}",
            r.pos,
        )
    if not np.isfinite(arr).all():
        raise FormatError(f"{what} holds non-finite values", r.pos - nbytes)
    return arr.reshape(shape)


def save_checkpoint(
    model: SafmnModel,
    path,
    *,
    iteration: int = 0,
    seed: int = 0,
    optimizer=None,
) -> None:
    """Write model (and optionally Adam state) to ``path``.

    The bytes go to a temporary file in the same directory, which is synced
    and then renamed over ``path``; a failed write leaves ``path`` untouched.
    """
    parts = [MAGIC, struct.pack("<H", VERSION)]
    cfg = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    parts.append(struct.pack("<I", len(cfg)) + cfg)
    parts.append(struct.pack("<QQ", iteration, seed))
    named = list(model.named_parameters())
    parts.append(struct.pack("<I", len(named)))
    for name, p in named:
        nb = name.encode()
        parts.append(struct.pack("<H", len(nb)) + nb)
        parts.append(struct.pack("<B", p.data.ndim))
        parts.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        parts.append(_pack_array(p.data))
    if optimizer is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(struct.pack("<Q", optimizer.t))
        for name, _ in named:
            m, v = optimizer.moments[name]
            parts.append(_pack_array(m))
            parts.append(_pack_array(v))
    data = b"".join(parts)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file into its raw contents."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = r.u16("version")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", 4)
    cfg_len = r.u32("config length")
    cfg_start = r.pos
    cfg = r.take(cfg_len, "config")
    try:
        config = ModelConfig.from_dict(json.loads(cfg))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise FormatError(f"invalid embedded config: {exc}", cfg_start) from exc
    iteration = r.u64("iteration")
    seed = r.u64("seed")
    n_params = r.u32("parameter count")
    params: dict[str, np.ndarray] = {}
    order: list[str] = []
    for _ in range(n_params):
        name_len = r.u16("parameter name length")
        try:
            name = r.take(name_len, "parameter name").decode()
        except UnicodeDecodeError:
            raise FormatError("parameter name is not UTF-8", r.pos - name_len) from None
        ndim = r.u8(f"{name} ndim")
        dims = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"{name} dims"))
        params[name] = _read_array(r, f"{name} data", dims)
        order.append(name)
    opt_step = None
    opt_moments = None
    if r.u8("optimizer flag"):
        opt_step = r.u64("optimizer step")
        opt_moments = {}
        for name in order:
            shape = params[name].shape
            opt_moments[name] = (
                _read_array(r, f"{name} first moment", shape),
                _read_array(r, f"{name} second moment", shape),
            )
    return Checkpoint(config, params, iteration, seed, opt_step, opt_moments)


def load_checkpoint(path) -> SafmnModel:
    """Rebuild a model from a checkpoint file."""
    ckpt = read_checkpoint(path)
    model = SafmnModel(ckpt.config)
    model.load_state_dict(ckpt.params)
    return model
