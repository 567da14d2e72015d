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
from .imaging.resize import bicubic_resize, crop_to_scale
from .loss import LossConfig
from .model import ModelConfig, init_model, variant_by_name
from .profiler import emit_report, profile_model
from .tensor import Tensor, no_grad
from .train import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# Each `train` setting once: (section, key, type, default, flag options).
# Flag options of None make a file-only key; their `choices` bind file values too.
_TRAIN_SETTINGS = (
    ("model", "scale", int, 2, {"choices": (2, 3, 4)}),
    ("model", "channels", int, 36, None),
    ("model", "blocks", int, 8, None),
    ("model", "variant", str, "baseline", {}),
    ("train", "iters", int, 1000, {}),
    ("train", "batch-size", int, 64, {}),
    ("train", "patch-size", int, 64, {}),
    ("train", "seed", int, 0, {}),
    ("train", "lr-max", float, 1e-3, {}),
    ("train", "lr-min", float, 1e-5, {}),
    ("train", "lambda", float, 0.05, {}),
    ("train", "augment", bool, True, None),
    ("train", "log-every", int, 100, {}),
    ("train", "checkpoint-every", int, 0, {}),
    ("train", "mode", str, "test", {"choices": ("test", "fast")}),
)


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
    # No header can name the empty section, so [DEFAULT] is an unknown
    # section rather than one whose keys are merged into (or hidden from) the others.
    parser = configparser.ConfigParser(default_section="")
    try:
        read = parser.read(path)
        out = {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    for section, values in out.items():
        known = {key for s, key, *_ in _TRAIN_SETTINGS if s == section}
        if not known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in values:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
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
        planes = img.to_planes()
        cropped = crop_to_scale(planes, scale, path.name)
        _, h2, w2 = cropped.shape
        if cropped.shape != planes.shape:
            print(f"warning: {path.name} cropped to {w2}x{h2} for divisibility by {scale}", file=sys.stderr)
        lr = bicubic_resize(cropped, h2 // scale, w2 // scale)
        encode_png(ImageBuffer.from_planes(lr), out_dir / path.name)
        print(f"{path.name}: {w2}x{h2} -> {w2 // scale}x{h2 // scale}")
    return EXIT_OK


def _parse_setting(section: str, key: str, cast, options, raw: str):
    """Parse a file value as argparse parses the flag: by type, then choices."""
    choices = (options or {}).get("choices")
    try:
        if cast is bool:
            value = configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        else:
            value = cast(raw)
        if choices is not None and value not in choices:
            raise ValueError
    except (KeyError, ValueError):
        expected = f"; choose from {', '.join(map(str, choices))}" if choices else ""
        raise ConfigError(f"config key {key!r} in section [{section}]: invalid value {raw!r}{expected}") from None
    return value


def _build_train_config(args, file_cfg: dict[str, dict[str, str]]) -> tuple[ModelConfig, TrainConfig, str]:
    """Each setting from its flag, else the config file, else its default."""
    v = {}
    for section, key, cast, default, options in _TRAIN_SETTINGS:
        name = key.replace("-", "_")
        value = getattr(args, name, None)
        if value is None:
            raw = file_cfg.get(section, {}).get(key)
            value = default if raw is None else _parse_setting(section, key, cast, options, raw)
        v[name] = value
    model_cfg = ModelConfig(
        num_blocks=v.pop("blocks"),
        channels=v.pop("channels"),
        scale=v.pop("scale"),
        variant=variant_by_name(v.pop("variant")),
    )
    mode = v.pop("mode")
    train_cfg = TrainConfig(loss=LossConfig(lambda_weight=v.pop("lambda")), **v)
    return model_cfg, train_cfg, mode


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    model_cfg, train_cfg, mode = _build_train_config(args, file_cfg)
    out_path = Path(args.out)
    if out_path.is_dir():  # the checkpoint's final rename onto it would fail after training
        raise DataError(f"--out {out_path} is a directory, not a checkpoint file")
    tensor.set_mode(mode)
    paths = _png_paths(args.hr_dir)
    images = [decode_png(p) for p in paths]  # a bad file exits 2 before the log opens
    log_path = Path(args.log) if args.log else None
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # Line-buffered, so a killed run keeps every line it logged.
    log_stream = open(log_path, "w", buffering=1) if log_path else sys.stdout
    try:
        model = init_model(model_cfg, seed=train_cfg.seed)
        result = train(model, (img.to_planes() for img in images), train_cfg, log_stream, out_path)
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
    for path in paths:
        img = decode_png(path)
        planes = img.to_planes()
        start = time.perf_counter()
        with no_grad():
            sr = model(Tensor(planes[None])).data[0]
        elapsed = time.perf_counter() - start
        if not np.isfinite(sr).all():
            raise TrainingError(f"{path.name}: super-resolved output contains non-finite values")
        encode_png(ImageBuffer.from_planes(sr), out_dir / path.name)
        print(f"{path.name}: {img.width}x{img.height} -> "
              f"{img.width * model.config.scale}x{img.height * model.config.scale} "
              f"in {elapsed * 1000:.0f} ms")
    return EXIT_OK


def cmd_eval(args) -> int:
    sr_paths = {p.stem: p for p in _png_paths(args.sr_dir)}
    hr_paths = {p.stem: p for p in _png_paths(args.hr_dir)}
    unmatched = sorted(set(sr_paths) ^ set(hr_paths))
    if unmatched:
        raise DataError("unmatched filename stems: " + ", ".join(unmatched))
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
    for _, key, cast, _, options in _TRAIN_SETTINGS:
        if options is not None:
            p.add_argument(f"--{key}", type=cast, **options)
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
    except (SafmnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
