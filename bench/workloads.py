"""The three benchmark workloads.

Each workload makes its inputs from a seed (``generate``), times the
program's own set-up (``setup``), runs operations through the public
functions of ``safmn`` until a deadline (``run``) and checks the outputs
outside the timed spans.  Sizes are fixed per workload; ``smoke`` sizes
exist only so the benchmark's own tests run in seconds.
"""
from __future__ import annotations

import importlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import safmn
import safmn.checkpoint as checkpoint
import safmn.imaging.metrics as metrics
import safmn.imaging.png as png
import safmn.imaging.resize as resize
import safmn.model as model_mod
import safmn.tensor as tensor
from safmn.errors import TrainingError
from safmn.profiler import profile_model

from inputs import chart_image, encode_png_adaptive, filter_mix, png_row_filters

train_mod = importlib.import_module("safmn.train")  # `safmn.train` is the function

# The README's fast/test contract: fast mode tracks test mode within 1e-5 relative.
FAST_VS_TEST_RTOL = 1e-5


@dataclass
class Op:
    """One timed operation and what it produced."""

    start: float
    end: float
    sr_pixels: int  # upscaled output pixels
    lr_inputs: int  # LR images or training patches consumed
    hr_pixels: int  # HR-resolution pixels handled

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Checks:
    """Outcome of the output checks of one run."""

    failed_ops: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed_ops += 1
        self.notes.append(note)


def _divisibility(h: int, w: int, scale: int) -> dict:
    return {"size": [h, w], "div8": h % 8 == 0 and w % 8 == 0,
            "div_scale": h % scale == 0 and w % scale == 0}


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    b = b.astype(np.float64)
    return float(np.linalg.norm(a.astype(np.float64) - b) / np.linalg.norm(b))


class InferWorkload:
    """x4 inference on 320x180 LR PNGs, the call sequence of ``safmn infer``."""

    name = "infer-x4-720p"

    def __init__(self, workdir: Path, smoke: bool = False):
        self.workdir = workdir
        self.lr_hw = (20, 36) if smoke else (180, 320)
        self.n_images = 2 if smoke else 3
        self.config = model_mod.ModelConfig(scale=4)
        self.ckpt = workdir / "infer.ckpt"
        self.out = workdir / "sr.png"
        self.first_sr: tuple[Path, np.ndarray] | None = None

    def profile(self):
        return profile_model(self.config, *self.lr_hw)

    def generate(self, rng: np.random.Generator) -> dict:
        # `safmn infer` never calls set_mode, so it runs float64; this
        # workload measures fast mode, the engine's throughput path.
        tensor.set_mode("fast")
        model = model_mod.init_model(self.config, seed=int(rng.integers(2**31)))
        checkpoint.save_checkpoint(model, self.ckpt)
        self.paths = []
        filters = []
        for i in range(self.n_images):
            path = self.workdir / f"lr{i}.png"
            img = png.ImageBuffer(chart_image(rng, *self.lr_hw))
            png.encode_png(img, path)
            filters.append(png_row_filters(path.read_bytes())[0])
            self.paths.append(path)
        return {"lr_images": [_divisibility(*self.lr_hw, 4)] * self.n_images,
                "scale": 4, "mode": "fast", "png_filter_mix": filter_mix(np.concatenate(filters))}

    def setup(self) -> None:
        self.model = checkpoint.load_checkpoint(self.ckpt)

    def register(self, tracer) -> None:
        tracer.register_model(self.model)

    def run(self, seconds: float, checks: Checks) -> list[Op]:
        ops: list[Op] = []
        self.first_sr = None
        deadline = time.perf_counter() + seconds
        scale = self.config.scale
        h, w = self.lr_hw
        while not ops or time.perf_counter() < deadline:
            path = self.paths[len(ops) % len(self.paths)]
            t0 = time.perf_counter()
            img = png.decode_png(path)
            planes = img.to_planes().astype(tensor.default_dtype())
            with safmn.no_grad():
                sr = self.model(safmn.Tensor(planes[None])).data[0]
            png.encode_png(png.ImageBuffer.from_planes(np.clip(sr, 0.0, 1.0)), self.out)
            t1 = time.perf_counter()
            if sr.shape != (3, h * scale, w * scale) or not np.isfinite(sr).all():
                checks.fail(f"op {len(ops)}: output {sr.shape} not finite 3x{h * scale}x{w * scale}")
            if self.first_sr is None:
                self.first_sr = (path, sr)
            ops.append(Op(t0, t1, h * w * scale * scale, 1, h * w * scale * scale))
        return ops

    def final_check(self, checks: Checks) -> dict:
        path, sr = self.first_sr
        tensor.set_mode("test")
        try:
            ref_model = checkpoint.load_checkpoint(self.ckpt)
            planes = png.decode_png(path).to_planes()
            t0 = time.perf_counter()
            with safmn.no_grad():
                ref = ref_model(safmn.Tensor(planes[None])).data[0]
            test_mode_forward_s = time.perf_counter() - t0
        finally:
            tensor.set_mode("fast")
        rel = _rel_l2(sr, ref)
        if not rel <= FAST_VS_TEST_RTOL:
            checks.fail(f"fast output differs from float64 test mode by {rel:.3e} relative L2")
        return {"fast_vs_test_rel_l2": rel, "test_mode_forward_s": test_mode_forward_s}


class StepLog:
    """Log stream for ``safmn.train.train``: each write marks a step boundary."""

    def __init__(self):
        self.times: list[float] = []
        self.lines: list[str] = []

    def write(self, line: str) -> None:
        self.times.append(time.perf_counter())
        self.lines.append(line)


class TrainWorkload:
    """Training steps at the acceptance configuration: x2, batch 4, 32 px patches."""

    name = "train-x2-b4-p32"
    checkpoint_every = 5

    def __init__(self, workdir: Path, smoke: bool = False):
        self.workdir = workdir
        self.config = model_mod.ModelConfig(scale=2)
        self.batch, self.patch = (1, 16) if smoke else (4, 32)
        self.hr_sizes = [(64, 64), (72, 56)] if smoke else [(192, 192), (160, 224), (224, 160), (200, 200)]
        self.ckpt = workdir / "train.ckpt"
        self.step_ms = None

    def profile(self):
        return profile_model(self.config, self.patch, self.patch, batch=self.batch)

    def generate(self, rng: np.random.Generator) -> dict:
        tensor.set_mode("fast")
        self.seed = int(rng.integers(2**31))
        self.hr_images = [
            (chart_image(rng, h, w).transpose(2, 0, 1) / 255.0).astype(np.float32)
            for h, w in self.hr_sizes
        ]
        return {"hr_images": [_divisibility(h, w, 2) for h, w in self.hr_sizes], "scale": 2,
                "batch": self.batch, "patch": self.patch, "mode": "fast",
                "checkpoint_every": self.checkpoint_every}

    def setup(self) -> None:
        self.model = model_mod.init_model(self.config, seed=self.seed)
        train_mod.prepare_pairs(self.hr_images, self.config.scale)

    def register(self, tracer) -> None:
        tracer.register_model(self.model)

    def _train(self, iters: int, checks: Checks) -> StepLog:
        cfg = train_mod.TrainConfig(
            iters=iters, batch_size=self.batch, patch_size=self.patch, seed=self.seed,
            log_every=1, checkpoint_every=self.checkpoint_every,
        )
        log = StepLog()
        try:
            train_mod.train(self.model, self.hr_images, cfg, log, self.ckpt)
        except TrainingError as exc:
            checks.fail(f"training stopped: {exc}")
        return log

    def run(self, seconds: float, checks: Checks) -> list[Op]:
        if self.step_ms is None:  # calibrate the step count on a short run
            log = self._train(6, checks)
            self.step_ms = float(np.median(np.diff(log.times))) * 1e3
        iters = max(3, math.ceil(seconds * 1e3 / self.step_ms) + 1)
        log = self._train(iters, checks)
        lr_pixels = self.batch * self.patch * self.patch
        hr_pixels = lr_pixels * self.config.scale**2
        ops = []
        # The first write follows step 0, which also covers the loop's set-up.
        for t0, t1, line in zip(log.times, log.times[1:], log.lines[1:]):
            if not math.isfinite(json.loads(line)["loss"]):
                checks.fail(f"non-finite loss logged: {line.strip()}")
            ops.append(Op(t0, t1, hr_pixels, self.batch, hr_pixels))
        return ops

    def final_check(self, checks: Checks) -> dict:
        saved = checkpoint.read_checkpoint(self.ckpt).params
        state = self.model.state_dict()
        same = set(saved) == set(state) and all(
            np.array_equal(saved[k], state[k].astype(np.float64)) for k in state
        )
        if not same:
            checks.fail("final checkpoint does not read back bit-exactly")
        return {"checkpoint_roundtrip": same}


class PngWorkload:
    """PNG decode, bicubic x4 degrade and upsample, Y-channel PSNR/SSIM."""

    name = "png-bicubic-eval"
    scale = 4

    def __init__(self, workdir: Path, smoke: bool = False):
        self.workdir = workdir
        # Fixed sizes (h, w) of about 50k pixels each, so every operation costs
        # about the same and the percentiles measure time, not which image
        # an operation drew; 201x243 is divisible by neither 8 nor the scale.
        self.sizes = [(48, 64), (37, 50)] if smoke else [
            (192, 256), (256, 192), (160, 320), (224, 224),
            (201, 243), (176, 288), (240, 208), (128, 384),
        ]
        self.lr_path = workdir / "lr.png"
        self.psnr_tol = 1e-9

    def profile(self):
        return None

    def generate(self, rng: np.random.Generator) -> dict:
        tensor.set_mode("test")  # as `safmn degrade` and `safmn eval` run
        self.images = []
        mixes = []
        for i, (h, w) in enumerate(self.sizes):
            pixels = chart_image(rng, h, w)
            blob, filters = encode_png_adaptive(pixels)
            path = self.workdir / f"hr{i}.png"
            path.write_bytes(blob)
            self.images.append((path, pixels))
            mixes.append(filters)
        return {"hr_images": [_divisibility(h, w, self.scale) for h, w in self.sizes],
                "scale": self.scale, "mode": tensor.get_mode(),
                "png_filter_mix": filter_mix(np.concatenate(mixes))}

    def setup(self) -> None:
        pass

    def register(self, tracer) -> None:
        pass

    def run(self, seconds: float, checks: Checks) -> list[Op]:
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        s = self.scale
        while not ops or time.perf_counter() < deadline:
            path, pixels = self.images[len(ops) % len(self.images)]
            t0 = time.perf_counter()
            hr = png.decode_png(path)
            h2, w2 = (hr.height // s) * s, (hr.width // s) * s
            oy, ox = (hr.height - h2) // 2, (hr.width - w2) // 2
            hr_c = png.ImageBuffer(hr.data[oy : oy + h2, ox : ox + w2])
            lr = resize.bicubic_resize(hr_c.to_planes().astype(np.float64), h2 // s, w2 // s)
            lr_img = png.ImageBuffer.from_planes(np.clip(lr, 0.0, 1.0))
            png.encode_png(lr_img, self.lr_path)
            lr_back = png.decode_png(self.lr_path)
            up = resize.bicubic_resize(lr_back.to_planes().astype(np.float64), h2, w2)
            sr = png.ImageBuffer.from_planes(np.clip(up, 0.0, 1.0))
            p = metrics.psnr_y(sr, hr_c)
            ssim = metrics.ssim_y(sr, hr_c)
            t1 = time.perf_counter()
            self._check(len(ops), hr, pixels, lr_img, lr_back, sr, hr_c, p, ssim, checks)
            ops.append(Op(t0, t1, h2 * w2, 1, hr.height * hr.width))
        return ops

    def _check(self, i, hr, pixels, lr_img, lr_back, sr, hr_c, p, ssim, checks) -> None:
        if not np.array_equal(hr.data, pixels):
            return checks.fail(f"op {i}: decoded HR pixels differ from the generated ones")
        if not np.array_equal(lr_back.data, lr_img.data):
            return checks.fail(f"op {i}: LR PNG round trip is not lossless")
        coef = np.array([65.481, 128.553, 24.966]) / 255.0
        ya = 16.0 + sr.data.astype(np.float64) @ coef
        yb = 16.0 + hr_c.data.astype(np.float64) @ coef
        want = 10.0 * math.log10(255.0**2 / np.mean((ya - yb) ** 2))
        if not abs(p - want) <= self.psnr_tol * abs(want):
            return checks.fail(f"op {i}: psnr_y {p!r} != independent formula {want!r}")
        if not -1.0 <= ssim <= 1.0:
            return checks.fail(f"op {i}: ssim_y {ssim!r} outside [-1, 1]")

    def final_check(self, checks: Checks) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (InferWorkload, TrainWorkload, PngWorkload)}
