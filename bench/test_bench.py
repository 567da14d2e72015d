"""Smoke tests of the benchmark itself: python3 -m pytest bench -q

Each workload runs at a smoke size for a fraction of a second, untraced and
traced, through the same code the full benchmark uses.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import safmn.imaging.png as png  # noqa: E402
import safmn.model  # noqa: E402
import safmn.ops  # noqa: E402
from inputs import chart_image, encode_png_adaptive, png_row_filters  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke_run_reports_every_end_to_end_metric(name):
    result, record, _ = harness.run(name, 7, 0.3, False, ROOT, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert np.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_is_complete(name):
    result, record, report = harness.run(name, 7, 0.4, True, ROOT, smoke=True)
    assert result["correct"] and record["trace_complete"], record["check_notes"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if name != "png-bicubic-eval":
        rows = [r for r in report["rows"] if r["macs"]]
        assert rows and all(r["macs_seen"] == r["macs"] and r["fwd_ms"] > 0 for r in rows)
        assert report["conv_macs_seen_per_op"] == [report["profile_total_macs"]]


def test_conv_that_bypasses_the_traced_entry_point_fails_the_run(monkeypatch):
    untraced_conv2d = safmn.ops.conv2d

    def bypass(self, x):
        return untraced_conv2d(x, self.weight, self.bias, padding=self.padding, groups=self.groups)

    monkeypatch.setattr(safmn.model.Conv2d, "__call__", bypass)
    result, record, _ = harness.run("infer-x4-720p", 7, 0.2, True, ROOT, smoke=True)
    assert not record["trace_complete"] and not result["correct"]


def test_adaptive_png_writer_round_trips_with_filtered_rows(tmp_path):
    pixels = chart_image(np.random.default_rng(3), 40, 56)
    blob, filters = encode_png_adaptive(pixels)
    path = tmp_path / "x.png"
    path.write_bytes(blob)
    assert np.array_equal(png.decode_png(path).data, pixels)
    assert np.array_equal(png_row_filters(blob)[0], filters)
    assert np.count_nonzero(filters) > 0


def test_same_seed_same_inputs(tmp_path):
    a, b = (WORKLOADS["png-bicubic-eval"](tmp_path / d, smoke=True) for d in "ab")
    for w in (a, b):
        w.workdir.mkdir()
        w.generate(np.random.default_rng(11))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a.images, b.images))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "png-bicubic-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
