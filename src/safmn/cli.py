"""Command-line interface: profile, degrade, train, infer, eval.

Exit codes: 0 success, 2 usage/config/data errors, 3 runtime or numerical
failures during training/inference.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import tensor
from .checkpoint import load_checkpoint
from .errors import ConfigError, DataError, SafmnError, TrainingError
from .imaging.metrics import psnr_y, ssim_y
from .imaging.png import ImageBuffer, decode_png, encode_png
from .imaging.resize import bicubic_resize
from .loss import LossConfig
from .model import ModelConfig, variant_by_name
from .profiler import emit_report, profile_model
from .tensor import Tensor, no_grad
from .train import TrainConfig, train_fresh

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# Config-file schema: section -> known keys.
_CONFIG_SCHEMA = {
    "model": {"scale", "channels", "blocks", "variant"},
    "train": {
        "iters",
        "batch-size",
        "patch-size",
        "seed",
        "lr-max",
        "lr-min",
        "lambda",
        "augment",
        "log-every",
        "checkpoint-every",
        "mode",
    },
}


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h_s, w_s = text.lower().split("x")
        h, w = int(h_s), int(w_s)
    except ValueError:
        raise ConfigError(f"invalid size {text!r}; expected HxW like 180x320") from None
    if h < 1 or w < 1:
        raise ConfigError(f"size {text!r} must be positive")
    return h, w


def _load_config_file(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
        out[section] = dict(parser[section])
    return out


def _png_paths(directory: str) -> list[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise DataError(f"{directory!r} is not a directory")
    paths = sorted(p for p in root.glob("*.png") if p.is_file())
    if not paths:
        raise DataError(f"no PNG files in {directory!r}")
    return paths


def cmd_profile(args) -> int:
    variant = variant_by_name(args.variant)
    config = ModelConfig(num_blocks=args.blocks, channels=args.channels, scale=args.scale, variant=variant)
    in_h, in_w = _parse_size(args.input_size)
    report = profile_model(config, in_h, in_w)
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_OK


def cmd_degrade(args) -> int:
    paths = _png_paths(args.hr_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scale = args.scale
    for path in paths:
        img = decode_png(path)
        planes = img.to_planes().astype(np.float64)
        _, h, w = planes.shape
        h2, w2 = (h // scale) * scale, (w // scale) * scale
        if h2 < scale or w2 < scale:
            raise DataError(f"{path.name}: {w}x{h} too small for scale {scale}")
        if (h2, w2) != (h, w):
            oy, ox = (h - h2) // 2, (w - w2) // 2
            planes = planes[:, oy : oy + h2, ox : ox + w2]
            print(f"warning: {path.name} cropped to {w2}x{h2} for divisibility by {scale}", file=sys.stderr)
        lr = bicubic_resize(planes, h2 // scale, w2 // scale)
        encode_png(ImageBuffer.from_planes(np.clip(lr, 0.0, 1.0)), out_dir / path.name)
        print(f"{path.name}: {w2}x{h2} -> {w2 // scale}x{h2 // scale}")
    return EXIT_OK


def _build_train_config(args, file_cfg: dict[str, dict[str, str]]) -> tuple[ModelConfig, TrainConfig, str]:
    model_sec = file_cfg.get("model", {})
    train_sec = file_cfg.get("train", {})

    def pick(cli_value, section, key, cast, default):
        if cli_value is not None:
            return cli_value
        if key in section:
            raw = section[key]
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        return default

    scale = pick(args.scale, model_sec, "scale", int, 2)
    channels = pick(None, model_sec, "channels", int, 36)
    blocks = pick(None, model_sec, "blocks", int, 8)
    variant = variant_by_name(pick(args.variant, model_sec, "variant", str, "baseline"))
    model_cfg = ModelConfig(num_blocks=blocks, channels=channels, scale=scale, variant=variant)

    mode = pick(args.mode, train_sec, "mode", str, "test")
    if mode not in ("test", "fast"):
        raise ConfigError(f"unknown mode {mode!r}; expected test or fast")
    train_cfg = TrainConfig(
        iters=pick(args.iters, train_sec, "iters", int, 1000),
        batch_size=pick(args.batch_size, train_sec, "batch-size", int, 64),
        patch_size=pick(args.patch_size, train_sec, "patch-size", int, 64),
        seed=pick(args.seed, train_sec, "seed", int, 0),
        lr_max=pick(args.lr_max, train_sec, "lr-max", float, 1e-3),
        lr_min=pick(args.lr_min, train_sec, "lr-min", float, 1e-5),
        loss=LossConfig(lambda_weight=pick(args.lambda_weight, train_sec, "lambda", float, 0.05)),
        augment=pick(None, train_sec, "augment", bool, True),
        log_every=pick(args.log_every, train_sec, "log-every", int, 100),
        checkpoint_every=pick(args.checkpoint_every, train_sec, "checkpoint-every", int, 0),
    )
    if train_cfg.iters < 1:
        raise ConfigError(f"iters must be >= 1, got {train_cfg.iters}")
    return model_cfg, train_cfg, mode


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    model_cfg, train_cfg, mode = _build_train_config(args, file_cfg)
    tensor.set_mode(mode)
    paths = _png_paths(args.hr_dir)
    dtype = tensor.default_dtype()
    images = [decode_png(p).to_planes().astype(dtype) for p in paths]
    log_path = Path(args.log) if args.log else None
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    log_stream = open(log_path, "w") if log_path else sys.stdout
    try:
        result = train_fresh(model_cfg, images, train_cfg, log_stream, out_path)
    finally:
        if log_path:
            log_stream.close()
    print(
        f"trained {result.iterations} iterations: loss {result.first_loss:.6f} -> "
        f"{result.final_loss:.6f}; checkpoint written to {out_path}"
    )
    return EXIT_OK


def cmd_infer(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if args.scale is not None and args.scale != model.config.scale:
        raise ConfigError(
            f"checkpoint is a x{model.config.scale} model but x{args.scale} was requested"
        )
    if (args.lr_dir is None) == (args.input is None):
        raise ConfigError("provide exactly one of --lr-dir or --input")
    paths = _png_paths(args.lr_dir) if args.lr_dir else [Path(args.input)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dtype = tensor.default_dtype()
    for path in paths:
        img = decode_png(path)
        planes = img.to_planes().astype(dtype)
        start = time.perf_counter()
        with no_grad():
            sr = model(Tensor(planes[None])).data[0]
        elapsed = time.perf_counter() - start
        if not np.isfinite(sr).all():
            raise TrainingError(f"{path.name}: super-resolved output contains non-finite values")
        encode_png(ImageBuffer.from_planes(np.clip(sr, 0.0, 1.0)), out_dir / path.name)
        print(f"{path.name}: {img.width}x{img.height} -> "
              f"{img.width * model.config.scale}x{img.height * model.config.scale} "
              f"in {elapsed * 1000:.0f} ms")
    return EXIT_OK


def cmd_eval(args) -> int:
    sr_paths = {p.stem: p for p in _png_paths(args.sr_dir)}
    hr_paths = {p.stem: p for p in _png_paths(args.hr_dir)}
    unmatched = sorted(set(sr_paths) ^ set(hr_paths))
    if unmatched:
        print("unmatched filename stems: " + ", ".join(unmatched), file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for stem in sorted(sr_paths):
        sr = decode_png(sr_paths[stem])
        hr = decode_png(hr_paths[stem])
        p = psnr_y(sr, hr, args.border_crop)
        s = ssim_y(sr, hr, args.border_crop)
        rows.append((stem, p, s))
    print(f"# border_crop={args.border_crop}")
    print("name,psnr_y,ssim_y")
    for stem, p, s in rows:
        print(f"{stem},{'inf' if math.isinf(p) else f'{p:.4f}'},{s:.6f}")
    finite = [p for _, p, _ in rows if not math.isinf(p)]
    mean_p = sum(finite) / len(finite) if finite else math.inf
    mean_s = sum(s for _, _, s in rows) / len(rows)
    print(f"mean,{'inf' if math.isinf(mean_p) else f'{mean_p:.4f}'},{mean_s:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safmn",
        description="SAFMN super-resolution: profiling, degradation, training, inference, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="print a parameter/FLOP/activation report")
    p.add_argument("--scale", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--variant", default="baseline")
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--channels", type=int, default=36)
    p.add_argument("--input-size", default="180x320", help="LR input as HxW")
    p.add_argument("--format", default="table", choices=("table", "csv", "json-lines"))
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("degrade", help="bicubic-downscale an HR directory to LR")
    p.add_argument("--scale", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--hr-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("train", help="train on a directory of HR images")
    p.add_argument("--config", help="INI config file (sections [model], [train])")
    p.add_argument("--hr-dir", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="JSON-lines training log (default: stdout)")
    p.add_argument("--iters", type=int)
    p.add_argument("--scale", type=int, choices=(2, 3, 4))
    p.add_argument("--variant")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--patch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr-max", type=float)
    p.add_argument("--lr-min", type=float)
    p.add_argument("--lambda", type=float, dest="lambda_weight")
    p.add_argument("--log-every", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--mode", choices=("test", "fast"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="super-resolve LR images with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--lr-dir")
    p.add_argument("--input", help="single LR PNG")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--scale", type=int, help="assert the checkpoint scale")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="Y-channel PSNR/SSIM between SR and HR directories")
    p.add_argument("--sr-dir", required=True)
    p.add_argument("--hr-dir", required=True)
    p.add_argument(
        "--border-crop",
        type=int,
        default=0,
        help="pixels cropped on every side before scoring (convention: the SR scale)",
    )
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except SafmnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
