"""Benchmark core: set-up timing, the timed loop, metrics and the trace report.

One process runs one workload as a closed loop with a single caller.  An
untraced run reports the end-to-end metrics.  A traced run first measures
half of its time untraced, then installs the tracer for the other half and
reports per-layer metrics normalised per operation, the tracing overhead,
and a trace file with the spans and a per-profiler-row table.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import tracer as tracer_mod
from workloads import WORKLOADS, Checks, Op

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_CODE = "import time; t = time.perf_counter(); import safmn; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "sr_mpix_per_s": "Mpix/s",
    "patches_per_s": "1/s",
    "hr_mpix_per_s": "Mpix/s",
    "peak_rss_mb": "MB",
}

TIMED_LAYERS = (
    "ops.gelu", "ops.layer_norm", "ops.nearest_resize", "ops.pixel_shuffle",
    "ops.split_concat", "tensor.elementwise", "ops.max_pool",
    "model.forward", "model.safm", "model.mixer", "model.norm",
    "tensor.backward", "loss.composite", "fft.fft2", "fft.ifft2",
    "optim.adam_step", "model.zero_grad", "sampler.sample",
    "checkpoint.save", "png.decode", "png.encode",
    "resize.bicubic", "metrics.psnr_y", "metrics.ssim_y",
)
SETUP_LAYERS = ("checkpoint.load", "train.prepare_pairs")


def import_seconds(src: Path, repeats: int) -> list[float]:
    """Time ``import safmn`` in fresh interpreters (the program's own import cost)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def end_to_end(ops: list[Op], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    ms = np.array([op.seconds for op in ops]) * 1e3
    busy = ms.sum() / 1e3
    return {
        "setup_s": setup_s,
        "op_ms_p50": float(np.median(ms)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "sr_mpix_per_s": sum(op.sr_pixels for op in ops) / busy / 1e6,
        "patches_per_s": sum(op.lr_inputs for op in ops) / busy,
        "hr_mpix_per_s": sum(op.hr_pixels for op in ops) / busy / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def _rate(units: float, ms: float) -> float:
    return units / (ms * 1e-3) if ms > 0 else 0.0


def per_layer(tr, workload, ops, untraced, setup_intervals) -> tuple[dict, dict]:
    """Per-operation layer metrics, and the trace-completeness report."""
    att = tracer_mod.Attribution(tr, [(op.start, op.end) for op in ops])
    setup = tracer_mod.Attribution(tr, setup_intervals)
    m: dict[str, float] = {}
    fwd_macs = 0.0
    for kind in tracer_mod.CONV_KINDS:
        key = f"ops.conv2d.{kind}"
        ms = att.per_op_ms(key)
        kind_fwd = att.per_op(f"conv.{key}.fwd_macs")
        fwd_macs += kind_fwd
        m[f"{key}.ms"] = ms
        m[f"{key}.gmac_per_s"] = _rate(kind_fwd + att.per_op(f"conv.{key}.bwd_macs"), ms) / 1e9
    for key in TIMED_LAYERS:
        m[f"{key}.ms"] = att.per_op_ms(key)
    m["model.forward.gmac_per_s"] = _rate(fwd_macs, m["model.forward.ms"]) / 1e9
    m["model.first_conv.ms"] = att.row_ms.get("first_conv", 0.0) / att.n
    m["model.upsampler.ms"] = att.row_ms.get("upsampler", 0.0) / att.n
    m["tensor.graph_nodes"] = att.per_op("tensor.graph_nodes")
    is_train = workload.name.startswith("train")
    op_ms = np.array([(b - a) * 1e3 for a, b in att.intervals])
    m["train.step_self.ms"] = float(np.mean(op_ms - att.top_level_ms)) if is_train else 0.0
    m["checkpoint.save.bytes"] = att.per_op("checkpoint.save.bytes")
    for key in SETUP_LAYERS:
        m[f"{key}.ms"] = setup.per_op_ms(key)
    m["png.decode.mb_per_s"] = _rate(att.total("png.decode.raw_bytes") / 1e6, att.ms.get("png.decode", 0.0))
    rows = att.total("png.decode.rows")
    m["png.filtered_row_share"] = att.total("png.decode.filtered_rows") / rows if rows else 0.0
    traced_p50 = np.median([op.seconds for op in ops])
    untraced_p50 = np.median([op.seconds for op in untraced])
    m["trace.overhead_pct"] = float((traced_p50 / untraced_p50 - 1.0) * 100.0)
    return m, completeness(att, workload.profile())


def completeness(att, report) -> dict:
    """Conv MACs seen by the tracer against the profiler's symbolic count."""
    if report is None:
        seen = sum(att.total(k) for k in att.counts if k.endswith("_macs"))
        return {"ok": seen == 0, "conv_macs_seen": seen, "rows": []}
    per_op = sum((v for k, v in att.counts.items() if k.endswith(".fwd_macs")), np.zeros(att.n))
    n = att.n
    rows = []
    rows_ok = True
    for rec in report.layers:
        seen = att.total(f"row.{rec.name}.macs") / n
        rows_ok &= seen == rec.flops
        fwd = att.row_ms.get(rec.name, 0.0) / n
        bwd = att.row_ms.get(rec.name + ".bwd", 0.0) / n
        rows.append({
            "name": rec.name, "kind": rec.kind, "macs": rec.flops, "macs_seen": seen,
            "fwd_ms": fwd, "bwd_ms": bwd,
            "fwd_gmac_per_s": _rate(rec.flops, fwd) / 1e9,
        })
    totals_ok = bool(np.all(per_op == report.total_flops))
    return {
        "ok": totals_ok and rows_ok,
        "profile_total_macs": report.total_flops,
        "conv_macs_seen_per_op": sorted(set(per_op.tolist())),
        "rows": rows,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, smoke: bool = False):
    """Run one workload; returns the result line, the run record and the trace report."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        workload = WORKLOADS[name](Path(tmp), smoke=smoke)
        inputs = workload.generate(np.random.default_rng(seed))
        tr = tracer_mod.Tracer() if trace else None

        import_s = import_seconds(root / "src", 1 if smoke else IMPORT_REPEATS)
        setup_times, setup_intervals = [], []
        if tr is not None:
            tr.install()
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                t1 = time.perf_counter()
                setup_times.append(t1 - t0)
                setup_intervals.append((t0, t1))
        finally:
            if tr is not None:
                tr.uninstall()
        setup_s = statistics.median(import_s) + statistics.median(setup_times)

        checks = Checks()
        workload.run(0, Checks())  # warm-up: caches, lazy set-up, calibration
        if tr is None:
            ops = workload.run(seconds, checks)
            untraced = ops
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            untraced = workload.run(seconds / 2, checks)
            workload.register(tr)
            tr.install()
            try:
                ops = workload.run(seconds / 2, checks)
            finally:
                tr.uninstall()
        details = workload.final_check(checks)

        attempted = len(ops) if tr is None else len(untraced) + len(ops)
        failed = min(attempted, checks.failed_ops)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "ops": len(ops), "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "check_notes": checks.notes, "checks": details, "inputs": inputs,
            "env": environment(), "import_s": import_s, "setup_runs_s": setup_times,
        }
        report = None
        if tr is None:
            values = end_to_end(ops, setup_s, peak_rss_mb)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            correct = failed == 0
        else:
            values, report = per_layer(tr, workload, ops, untraced, setup_intervals)
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
            correct = failed == 0 and report["ok"]
            record["trace_complete"] = report["ok"]
            report["spans"] = [
                [key, round((t0 - ops[0].start) * 1e3, 4), round((t1 - t0) * 1e3, 4), depth, row]
                for key, t0, t1, depth, row in tr.spans
            ]
            report["metrics"] = values
            path = out_dir / f"trace-{name}-seed{seed}.json"
            path.write_text(json.dumps(report))
            record["trace_file"] = str(path.relative_to(root))
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record, report


def _layer_units() -> dict[str, str]:
    units = {}
    for kind in tracer_mod.CONV_KINDS:
        units[f"ops.conv2d.{kind}.ms"] = "ms"
        units[f"ops.conv2d.{kind}.gmac_per_s"] = "GMAC/s"
    for key in TIMED_LAYERS + SETUP_LAYERS:
        units[f"{key}.ms"] = "ms"
    units.update({
        "model.forward.gmac_per_s": "GMAC/s", "model.first_conv.ms": "ms",
        "model.upsampler.ms": "ms", "tensor.graph_nodes": "count",
        "train.step_self.ms": "ms", "checkpoint.save.bytes": "bytes",
        "png.decode.mb_per_s": "MB/s", "png.filtered_row_share": "ratio",
        "trace.overhead_pct": "%",
    })
    return units


LAYER_UNITS = _layer_units()


def main(args, root: Path) -> int:
    result, record, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for key, m in result["metrics"].items():
        print(f"{record['workload']:>18}  {key:<32} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{record['workload']:>18}  {'error_rate':<32} {record['error_rate']:>14.6g} ratio",
          file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0
