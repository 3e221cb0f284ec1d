"""bonereg benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload cloud-csn --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src, with
BLAS pinned to one thread. Prints every metric by name with its unit,
each failed check, and last one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. A traced run also writes its spans to
.bench_out/trace-<workload>-seed<seed>.jsonl. Scratch files go to
.bench_work/ and are removed at exit. Workloads, metrics and the
baseline are described in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("cloud-csn", "partition-articulated", "stack-cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "bonereg" / "__init__.py").is_file():
        print(f"error: no bonereg package under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import harness
    from workloads import WORKLOADS

    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    workload = WORKLOADS[args.workload]()
    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(result.accuracy)} cases, "
          f"{result.attempted} executions, {result.failed} failed")
    for line in result.failures:
        print(f"FAIL {line}")
    shown = [(k, v, harness.END_TO_END[k]) for k, v in result.end_to_end.items()]
    shown += [(k, v, harness.ALSO_PRINTED[k]) for k, v in result.also_printed.items()]
    shown += [(k, v, harness.PER_LAYER[k][0]) for k, v in result.per_layer.items()]
    for name, value, unit in shown:
        print(f"{name} = {value!r} {unit}")
    if args.trace:
        path = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write(path)
        print(f"spans: {len(result.tracer.spans)} written to {path.relative_to(root)}")

    reported = result.per_layer if args.trace else result.end_to_end
    units = ({k: u for k, (u, _) in harness.PER_LAYER.items()} if args.trace
             else harness.END_TO_END)
    problems = harness.check_finite(result.end_to_end) + harness.check_finite(reported)
    for line in problems:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": result.correct and not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
