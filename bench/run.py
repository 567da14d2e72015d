"""Run one benchmark workload from the root of a checkout.

    python3 bench/run.py --workload infer-x4-720p --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as one JSON object; the line
before it is the run record (inputs, environment, checks).  See
bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("infer-x4-720p", "train-x2-b4-p32", "png-bicubic-eval")
# BLAS threads are pinned before numpy loads, at most two and never above
# the cores this process may use, so runs on one machine are comparable.
MAX_BLAS_THREADS = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "safmn" / "__init__.py").is_file():
        print(f"error: no safmn sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    # Whether numpy's large arrays get transparent huge pages depends on how
    # fragmented the machine's memory is at the moment, which made the same
    # forward pass vary by ~25% between processes; small pages are steady.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
