"""Complexity accounting against the published figures and a param oracle."""
import csv
import io
import json

import pytest

from safmn.errors import ConfigError
from safmn.model import VARIANTS, ModelConfig, SafmnModel
from safmn.profiler import (
    ComplexityReport,
    count_acts,
    count_flops,
    count_params,
    emit_report,
    profile_model,
)

X4 = ModelConfig(scale=4)

# Published ablation ledger at x4 (params exact; acts/flops in units of the
# reported table, checked at the module's stated tolerances).
TABLE = {
    "baseline": (239520, 13.56, 76.70),
    "no-safm": (225408, 12.90, 54.61),
    "no-ccm": (30720, 1.61, 26.93),
    "safm-no-fm": (239520, 13.56, 76.70),
    "safm-no-mr": (239520, 13.64, 87.78),
    "safm-no-fa": (228864, 12.96, 60.11),
    "safm-no-fm-mr": (239520, 13.64, 87.78),
    "safm-no-fm-fa": (228864, 12.96, 60.11),
    "safm-no-fm-mr-fa": (228864, 13.05, 71.19),
    "pool-avg": (239520, 13.56, 76.70),
    "pool-nearest": (239520, 13.56, 76.70),
    "attn-none": (239520, 13.56, 76.70),
    "attn-sigmoid": (239520, 13.56, 76.70),
    "ccm-se": (260976, 13.59, 76.70),
    "ccm-channel-mlp": (73632, 4.00, 76.70),
    "ccm-inverted-residual": (245280, 13.85, 110.00),
    "no-ln": (238368, 13.55, 76.70),
    "norm-bn": (239520, 13.72, 76.70),
    "norm-fbn": (238368, 13.55, 76.70),
    "norm-l2": (238368, 13.55, 76.70),
}

# The convolution-only FLOP convention cannot reproduce rows where the
# reference tool counted batch-norm kernels or where the absolute total is
# tiny; those two rows carry a documented wider gap (still under 1.5%).
FLOPS_EXCEPTIONS = {"norm-bn", "no-ccm"}


class TestParams:
    @pytest.mark.parametrize("scale,expected", [(2, 227820), (3, 232695), (4, 239520)])
    def test_default_scales(self, scale, expected):
        assert count_params(ModelConfig(scale=scale)) == expected

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_variant_params_exact(self, name):
        cfg = ModelConfig(scale=4, variant=VARIANTS[name])
        assert count_params(cfg) == TABLE[name][0]

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_oracle_equivalence_with_model_enumeration(self, name):
        cfg = ModelConfig(scale=4, variant=VARIANTS[name])
        model = SafmnModel(cfg)
        enumerated = sum(p.size for _, p in model.named_parameters())
        assert count_params(cfg) == enumerated
        assert count_params(model) == enumerated
        # One row per parameter-owning layer, named by its parameter prefix.
        prefixes = list(dict.fromkeys(n.rpartition(".")[0] for n, _ in model.named_parameters()))
        assert [r.name for r in profile_model(cfg, 1, 1).layers if r.params] == prefixes

    def test_small_config_oracle(self):
        cfg = ModelConfig(num_blocks=2, channels=8, scale=2)
        assert count_params(cfg) == SafmnModel(cfg).param_count()


class TestFlopsActs:
    def test_baseline_exact_values(self):
        assert count_acts(X4, 180, 320) == 76_700_160
        assert count_flops(X4, 180, 320) == 13_542_474_240
        assert abs(count_flops(X4, 180, 320) - 13.56e9) / 13.56e9 < 0.005

    def test_single_1x1_conv_flops(self):
        # 36->36 1x1 at 320x180: 36 * 36 * 57600 MACs
        report = profile_model(X4, 180, 320)
        aggr = [r for r in report.layers if r.name == "blocks.0.safm.aggr"][0]
        assert aggr.flops == 36 * 36 * 57600 == 74_649_600

    @pytest.mark.parametrize("batch", [1, 3])
    def test_rows_at_their_evaluation_resolution(self, batch):
        se = profile_model(ModelConfig(scale=4, variant=VARIANTS["ccm-se"]), 180, 320, batch)
        rows = {r.name: r for r in se.layers}
        for b in range(8):
            # squeeze-excite runs on the globally pooled 1x1 map: 72 -> 18 -> 72
            assert rows[f"blocks.{b}.mixer.se.reduce"].flops == 72 * 18 * batch
            assert rows[f"blocks.{b}.mixer.se.expand"].flops == 18 * 72 * batch
        rows = {r.name: r for r in profile_model(X4, 180, 320, batch).layers}
        for b in range(8):
            for i, (h, w) in enumerate([(180, 320), (90, 160), (45, 80), (22, 40)]):
                pyramid = rows[f"blocks.{b}.safm.mfr.{i}"]
                assert pyramid.acts == batch * 9 * h * w  # 36 channels split four ways
                assert pyramid.flops == 9 * pyramid.acts  # depthwise 3x3

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_variant_acts_within_tolerance(self, name):
        cfg = ModelConfig(scale=4, variant=VARIANTS[name])
        acts = count_acts(cfg, 180, 320)
        target = TABLE[name][2] * 1e6
        assert abs(acts - target) / target < 0.002

    @pytest.mark.parametrize("name", sorted(set(TABLE) - FLOPS_EXCEPTIONS))
    def test_variant_flops_within_tolerance(self, name):
        cfg = ModelConfig(scale=4, variant=VARIANTS[name])
        flops = count_flops(cfg, 180, 320)
        target = TABLE[name][1] * 1e9
        assert abs(flops - target) / target < 0.005

    @pytest.mark.parametrize("name", sorted(FLOPS_EXCEPTIONS))
    def test_flops_exception_rows_documented_gap(self, name):
        cfg = ModelConfig(scale=4, variant=VARIANTS[name])
        flops = count_flops(cfg, 180, 320)
        target = TABLE[name][1] * 1e9
        gap = abs(flops - target) / target
        assert 0.005 <= gap < 0.015  # outside the strict bound, inside the documented one

    def test_acts_scale_exactly_with_pixels(self):
        # Exact doubling needs the pyramid floors to scale linearly, i.e.
        # extents divisible by 8; 180 -> 360 shifts floor(180/8) from 22 to 45.
        base = count_acts(X4, 160, 320)
        assert count_acts(X4, 320, 320) == 2 * base
        assert count_acts(X4, 160, 640) == 2 * base

    def test_counts_scale_approximately_for_odd_sizes(self):
        acts = count_acts(X4, 180, 320)
        assert abs(count_acts(X4, 360, 320) - 2 * acts) / (2 * acts) < 0.001
        flops = count_flops(X4, 180, 320)
        assert abs(count_flops(X4, 360, 320) - 2 * flops) / (2 * flops) < 0.001

    def test_zero_conv_model_zero_flops(self):
        cfg = ModelConfig(num_blocks=1, channels=8, scale=2)
        report = profile_model(cfg, 16, 16)
        non_conv = [r for r in report.layers if r.kind.startswith(("layernorm", "batchnorm"))]
        assert all(r.flops == 0 and r.acts == 0 for r in non_conv)

    def test_invalid_resolution(self):
        with pytest.raises(ConfigError):
            profile_model(X4, 0, 320)


class TestReport:
    def test_totals_match_layer_sum(self):
        report = profile_model(X4, 180, 320)
        assert report.total_params == sum(r.params for r in report.layers)
        assert report.total_flops == sum(r.flops for r in report.layers)
        assert report.total_acts == sum(r.acts for r in report.layers)

    def test_table_ends_with_total(self):
        text = emit_report(profile_model(X4, 180, 320), "table")
        last = text.strip().splitlines()[-1]
        assert last.startswith("TOTAL")
        assert "239520" in last

    def test_csv_round_trip(self):
        report = profile_model(X4, 180, 320)
        text = emit_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[-1]["name"] == "TOTAL"
        body = rows[:-1]
        assert sum(int(r["params"]) for r in body) == report.total_params
        assert sum(int(r["flops"]) for r in body) == report.total_flops
        assert sum(int(r["acts"]) for r in body) == report.total_acts

    def test_json_lines(self):
        text = emit_report(profile_model(X4, 180, 320), "json-lines")
        records = [json.loads(line) for line in text.strip().splitlines()]
        assert records[-1]["name"] == "TOTAL"
        assert records[-1]["params"] == 239520
        assert list(records[0].keys()) == ["name", "kind", "params", "flops", "acts"]

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(profile_model(X4, 180, 320), "yaml")

    def test_deterministic(self):
        a = emit_report(profile_model(X4, 180, 320), "csv")
        b = emit_report(profile_model(ModelConfig(scale=4), 180, 320), "csv")
        assert a == b

    def test_profile_is_symbolic_and_fast(self):
        import time

        start = time.perf_counter()
        profile_model(X4, 720, 1280)
        assert time.perf_counter() - start < 0.1
