"""End-to-end CLI behavior: subcommands, exit codes, artifacts on disk."""
import json

import numpy as np
import pytest

from chart import make_chart
from malformed import DEFECTS, write_malformed_checkpoint
from safmn.checkpoint import read_checkpoint, save_checkpoint
from safmn.cli import main
from safmn.imaging.png import ImageBuffer, decode_png, encode_png
from safmn.model import ModelConfig, init_model


def _write_chart(path, size=64, seed=0):
    encode_png(ImageBuffer.from_planes(make_chart(size, seed)), path)


@pytest.fixture()
def hr_dir(tmp_path):
    d = tmp_path / "hr"
    d.mkdir()
    _write_chart(d / "a.png", 64, 1)
    _write_chart(d / "b.png", 64, 2)
    return d


class TestProfile:
    def test_baseline_table(self, capsys):
        assert main(["profile", "--scale", "4", "--input-size", "180x320"]) == 0
        out = capsys.readouterr().out
        total = out.strip().splitlines()[-1].split()
        assert total[0] == "TOTAL"
        assert total[1] == "239520"
        assert total[3] == "76700160"

    def test_scale2_params(self, capsys):
        assert main(["profile", "--scale", "2", "--format", "csv"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.split(",")[2] == "227820"

    def test_no_ln_variant(self, capsys):
        assert main(["profile", "--variant", "no-ln", "--scale", "4", "--format", "csv"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.split(",")[2] == "238368"

    def test_unknown_variant_exits_2_with_list(self, capsys):
        assert main(["profile", "--variant", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "known variants" in err and "no-safm" in err

    def test_bad_size_exits_2(self):
        assert main(["profile", "--input-size", "abc"]) == 2


class TestDegrade:
    def test_writes_aligned_lr(self, hr_dir, tmp_path):
        out = tmp_path / "lr"
        assert main(["degrade", "--scale", "2", "--hr-dir", str(hr_dir), "--out-dir", str(out)]) == 0
        lr = decode_png(out / "a.png")
        assert (lr.width, lr.height) == (32, 32)

    def test_idempotent(self, hr_dir, tmp_path):
        out = tmp_path / "lr"
        main(["degrade", "--scale", "2", "--hr-dir", str(hr_dir), "--out-dir", str(out)])
        first = (out / "a.png").read_bytes()
        main(["degrade", "--scale", "2", "--hr-dir", str(hr_dir), "--out-dir", str(out)])
        assert (out / "a.png").read_bytes() == first

    def test_odd_size_center_cropped_with_warning(self, tmp_path, capsys):
        d = tmp_path / "hr"
        d.mkdir()
        rng = np.random.default_rng(0)
        encode_png(ImageBuffer(rng.integers(0, 255, (65, 64, 3), dtype=np.uint8)), d / "odd.png")
        out = tmp_path / "lr"
        assert main(["degrade", "--scale", "4", "--hr-dir", str(d), "--out-dir", str(out)]) == 0
        captured = capsys.readouterr()
        assert "cropped" in captured.err
        lr = decode_png(out / "odd.png")
        assert (lr.width, lr.height) == (16, 16)

    def test_empty_dir_exits_2(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["degrade", "--scale", "2", "--hr-dir", str(d), "--out-dir", str(tmp_path / "o")]) == 2


class TestTrain:
    def test_short_run_writes_log_and_checkpoint(self, hr_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "train.jsonl"
        rc = main([
            "train", "--hr-dir", str(hr_dir), "--out", str(ckpt), "--log", str(log),
            "--iters", "3", "--scale", "2", "--batch-size", "2", "--patch-size", "16",
            "--seed", "7", "--log-every", "1",
        ])
        assert rc == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records[0]["iter"] == 0
        assert records[0]["lr"] == pytest.approx(1e-3)
        assert all(np.isfinite(r["loss"]) for r in records)
        loaded = read_checkpoint(ckpt)
        assert loaded.config.scale == 2
        assert loaded.iteration == 3

    def test_deterministic_across_runs(self, hr_dir, tmp_path):
        outs = []
        for tag in ("x", "y"):
            ckpt = tmp_path / f"{tag}.ckpt"
            log = tmp_path / f"{tag}.jsonl"
            rc = main([
                "train", "--hr-dir", str(hr_dir), "--out", str(ckpt), "--log", str(log),
                "--iters", "4", "--scale", "2", "--batch-size", "2", "--patch-size", "16",
                "--seed", "5", "--log-every", "1",
            ])
            assert rc == 0
            outs.append((log.read_bytes(), ckpt.read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_config_file_with_cli_override(self, hr_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[model]\nscale = 2\n[train]\niters = 2\nbatch-size = 2\npatch-size = 16\nlog-every = 1\n")
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "t.jsonl"
        rc = main([
            "train", "--config", str(cfg), "--hr-dir", str(hr_dir),
            "--out", str(ckpt), "--log", str(log), "--iters", "3",
        ])
        assert rc == 0
        assert read_checkpoint(ckpt).iteration == 3  # CLI --iters wins

    def test_unknown_config_key_exits_2(self, hr_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nlearning-rate = 1\n")
        rc = main(["train", "--config", str(cfg), "--hr-dir", str(hr_dir), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2

    def test_200_iter_overfit_halves_loss(self, tmp_path):
        d = tmp_path / "hr"
        d.mkdir()
        _write_chart(d / "img.png", 64, 6)
        log = tmp_path / "t.jsonl"
        rc = main([
            "train", "--hr-dir", str(d), "--out", str(tmp_path / "m.ckpt"),
            "--log", str(log), "--iters", "200", "--scale", "2",
            "--batch-size", "2", "--patch-size", "16", "--seed", "1",
            "--log-every", "1", "--mode", "fast",
        ])
        assert rc == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records[-1]["loss"] < 0.5 * records[0]["loss"]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_exits_3_keeps_checkpoint(self, hr_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        rc = main([
            "train", "--hr-dir", str(hr_dir), "--out", str(ckpt),
            "--iters", "20", "--scale", "2", "--batch-size", "2", "--patch-size", "16",
            "--lr-max", "1e300", "--log-every", "0",
        ])
        assert rc == 3
        assert ckpt.exists()  # last-good parameters retained
        read_checkpoint(ckpt)  # parses cleanly


class TestInferAndEval:
    def _checkpoint(self, tmp_path, scale=2):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=scale), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        return path

    def test_infer_shapes_and_determinism(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path)
        lr_dir = tmp_path / "lr"
        lr_dir.mkdir()
        _write_chart(lr_dir / "img.png", 32, 3)
        out1, out2 = tmp_path / "sr1", tmp_path / "sr2"
        assert main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir), "--out-dir", str(out1)]) == 0
        assert main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir), "--out-dir", str(out2)]) == 0
        sr = decode_png(out1 / "img.png")
        assert (sr.width, sr.height) == (64, 64)
        assert (out1 / "img.png").read_bytes() == (out2 / "img.png").read_bytes()
        assert "ms" in capsys.readouterr().out

    def test_zero_weight_checkpoint_black_output(self, tmp_path):
        from safmn.model import SafmnModel

        model = SafmnModel(ModelConfig(num_blocks=1, channels=8, scale=2))
        ckpt = tmp_path / "z.ckpt"
        save_checkpoint(model, ckpt)
        lr_dir = tmp_path / "lr"
        lr_dir.mkdir()
        _write_chart(lr_dir / "img.png", 16, 0)
        out = tmp_path / "sr"
        assert main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir), "--out-dir", str(out)]) == 0
        sr = decode_png(out / "img.png")
        assert np.all(sr.data == 0)

    def test_non_finite_output_exits_3_without_writing(self, tmp_path, capsys):
        # Finite parameters whose float64 forward overflows in the first conv.
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        model.first_conv.weight.data[...] = np.finfo(np.float64).max
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(model, ckpt)
        lr_dir = tmp_path / "lr"
        lr_dir.mkdir()
        _write_chart(lr_dir / "img.png", 16, 0)
        out = tmp_path / "sr"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir), "--out-dir", str(out)])
        assert rc == 3
        assert not (out / "img.png").exists()
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_2_without_writing(self, tmp_path, capsys):
        model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
        model.upsampler.bias.data[0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(model, ckpt)
        lr_dir = tmp_path / "lr"
        lr_dir.mkdir()
        _write_chart(lr_dir / "img.png", 16, 0)
        out = tmp_path / "sr"
        assert main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "upsampler.bias" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_malformed_checkpoint_exits_2_without_output(self, tmp_path, capsys, defect):
        ckpt = tmp_path / "bad.ckpt"
        write_malformed_checkpoint(ckpt, defect)
        lr_dir = tmp_path / "lr"
        lr_dir.mkdir()
        _write_chart(lr_dir / "img.png", 16, 0)
        out = tmp_path / "sr"
        assert main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir), "--out-dir", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and "byte offset" in captured.err

    def test_scale_mismatch_exits_2(self, tmp_path):
        ckpt = self._checkpoint(tmp_path, scale=2)
        lr_dir = tmp_path / "lr"
        lr_dir.mkdir()
        _write_chart(lr_dir / "img.png", 16, 0)
        rc = main(["infer", "--checkpoint", str(ckpt), "--lr-dir", str(lr_dir),
                   "--out-dir", str(tmp_path / "o"), "--scale", "4"])
        assert rc == 2

    def test_eval_self_comparison(self, hr_dir, tmp_path, capsys):
        assert main(["eval", "--sr-dir", str(hr_dir), "--hr-dir", str(hr_dir), "--border-crop", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[1] == "name,psnr_y,ssim_y"
        for line in lines[2:]:
            name, p, s = line.split(",")
            assert p == "inf" and float(s) == 1.0

    def test_eval_mean_is_arithmetic_mean(self, hr_dir, tmp_path, capsys):
        sr_dir = tmp_path / "sr"
        sr_dir.mkdir()
        rng = np.random.default_rng(0)
        for p in sorted(hr_dir.glob("*.png")):
            img = decode_png(p)
            noisy = np.clip(img.data.astype(int) + rng.integers(-9, 10, img.data.shape), 0, 255)
            encode_png(ImageBuffer(noisy.astype(np.uint8)), sr_dir / p.name)
        assert main(["eval", "--sr-dir", str(sr_dir), "--hr-dir", str(hr_dir), "--border-crop", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        per_image = [(float(r[1]), float(r[2])) for r in rows if r[0] != "mean"]
        mean_row = [r for r in rows if r[0] == "mean"][0]
        assert abs(float(mean_row[1]) - np.mean([p for p, _ in per_image])) < 1e-3
        assert abs(float(mean_row[2]) - np.mean([s for _, s in per_image])) < 1e-5

    def test_eval_unmatched_stems_exits_2(self, hr_dir, tmp_path, capsys):
        sr_dir = tmp_path / "sr"
        sr_dir.mkdir()
        _write_chart(sr_dir / "a.png", 64, 1)
        _write_chart(sr_dir / "zz.png", 64, 2)
        assert main(["eval", "--sr-dir", str(sr_dir), "--hr-dir", str(hr_dir)]) == 2
        assert "zz" in capsys.readouterr().err


class TestDirectoryArguments:
    @pytest.mark.parametrize("command", ["degrade", "infer", "eval"])
    def test_directory_named_png_is_not_an_image(self, hr_dir, tmp_path, capsys, command):
        (hr_dir / "x.png").mkdir()
        out = tmp_path / "out"
        if command == "degrade":
            argv = ["degrade", "--scale", "2", "--hr-dir", str(hr_dir), "--out-dir", str(out)]
        elif command == "infer":
            ckpt = tmp_path / "m.ckpt"
            save_checkpoint(init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0), ckpt)
            argv = ["infer", "--checkpoint", str(ckpt), "--lr-dir", str(hr_dir), "--out-dir", str(out)]
        else:
            argv = ["eval", "--sr-dir", str(hr_dir), "--hr-dir", str(hr_dir)]
        assert main(argv) == 0
        if command == "eval":
            rows = capsys.readouterr().out.splitlines()[2:]
            assert [row.split(",")[0] for row in rows] == ["a", "b", "mean"]
        else:
            assert sorted(p.name for p in out.iterdir()) == ["a.png", "b.png"]

    def test_infer_input_naming_a_directory_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0), ckpt)
        (tmp_path / "lr.png").mkdir()
        out = tmp_path / "sr"
        rc = main(["infer", "--checkpoint", str(ckpt), "--input", str(tmp_path / "lr.png"), "--out-dir", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert not any(out.iterdir())
