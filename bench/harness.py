"""One measured run of a bonereg workload: set-up, closed loop, metrics.

A run is a closed loop with one client: cases execute one after another.
Set-up builds the inputs SETUPS times and reports the median. One
untimed warm-up case follows, then every case runs once (the first
pass, which also gives the accuracy metrics) and the loop keeps cycling
through the cases until the run's seconds are used up. A case's time is
the median of its executions; case_s_p50 is the median over cases and
cases_per_min counts one execution of every case.

A traced run times one untraced pass, then runs whole passes with the
tracer installed until the seconds are used up. Per-layer metrics are
totals over the traced passes divided by the traced executions, so
counts are exact per-case values. The tracing overhead is the median
over cases of traced minus untraced case time.

Every execution is checked. A case fails when it raises, when
registration does not converge, when its output is malformed, when its
rotation error reaches the workload's threshold, or when it differs
from the case's first execution; tracing therefore never changes a
result without failing the run.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bonereg.cloud import PointCloud
from bonereg.registration import RigidTransform

from tracing import LAYERS, Tracer

SETUPS = 3

# the end-to-end metrics of the result line, each steady enough from seed
# to seed to carry a regression bound
END_TO_END = {
    "setup_s": "s",
    "case_s_iqm": "s",
    "rmse_p50": "len",
    "peak_rss_mb": "MB",
}

# printed, but not in the result line. case_s_p50 jumps between clusters
# of cases with equal iteration counts, cases_per_min follows the few
# slowest cases, and rot_err_deg_max follows the noise draw, so their
# seed-to-seed spread is too wide for a bound; rotation error is gated
# per case instead. The rest exist on some workloads only, and fail_rate
# is 0 on a healthy run (the result line carries failed).
ALSO_PRINTED = {
    "case_s_p50": "s",
    "cases_per_min": "1/min",
    "rot_err_deg_max": "deg",
    "trans_err_max": "len",
    "iou_p50": "ratio",
    "dice_p50": "ratio",
    "fail_rate": "ratio",
}

# name -> (unit, source), all per traced case execution. Sources: "span X"
# is the seconds spent in spans named X, "calls X" the number of them,
# "self L" the self seconds of layer L, "count" the tracer count of the
# same name, "ratio" accepted / (accepted + rejected) pairs, and
# "overhead" traced minus untraced case time.
PER_LAYER = {
    "geometry.knnk_s": ("s", "span geometry.knnk"),
    "geometry.knnk_queries": ("count", "count"),
    "geometry.eigh_s": ("s", "span geometry.eigh"),
    "geometry.eigh_mats": ("count", "count"),
    "geometry.ball_s": ("s", "span geometry.ball"),
    "geometry.ball_queries": ("count", "count"),
    "geometry.ball_pairs": ("count", "count"),
    "geometry.knn1_s": ("s", "span geometry.knn1"),
    "geometry.knn1_queries": ("count", "count"),
    "geometry.index_build_s": ("s", "span geometry.index_build"),
    "geometry.index_builds": ("count", "calls geometry.index_build"),
    "registration.s": ("s", "span registration"),
    "registration.iterations": ("count", "count"),
    "registration.accepted": ("count", "count"),
    "registration.rejected": ("count", "count"),
    "registration.accept_ratio": ("ratio", "ratio"),
    "registration.solve_s": ("s", "span registration.solve"),
    "registration.solve_calls": ("count", "calls registration.solve"),
    "metrics.nn_rmse_s": ("s", "span metrics.nn_rmse"),
    "metrics.nn_rmse_calls": ("count", "calls metrics.nn_rmse"),
    "metrics.evaluate_s": ("s", "span metrics.evaluate"),
    "metrics.reslice_calls": ("count", "calls metrics.reslice"),
    "mask_io.load_s": ("s", "span mask_io.load"),
    "mask_io.slices": ("count", "count"),
    "mask_io.bytes": ("count", "count"),
    "volume.scale_s": ("s", "span volume.scale"),
    "volume.interpolate_z_s": ("s", "span volume.interpolate_z"),
    "volume.extract_surface_s": ("s", "span volume.extract_surface"),
    "volume.voxels": ("count", "count"),
    "volume.points": ("count", "count"),
    "cloud.save_xyz_s": ("s", "span cloud.save_xyz"),
    "cloud.load_xyz_s": ("s", "span cloud.load_xyz"),
    "cloud.points_io": ("count", "count"),
    "cli.build_cloud_s": ("s", "span cli.build_cloud"),
    "cli.register_s": ("s", "span cli.register"),
    "cli.evaluate_s": ("s", "span cli.evaluate"),
    **{f"{layer}.self_s": ("s", "self " + layer) for layer in LAYERS},
    "trace.overhead_s": ("s", "overhead"),
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    also_printed: dict
    per_layer: dict
    accuracy: list
    failures: list = field(default_factory=list)
    tracer: Tracer | None = None


def digest(cases) -> str:
    """Hash of a case list's inputs, files included, to check that set-up
    repeats bit for bit."""
    h = hashlib.sha256()
    for case in cases:
        for item in case:
            if isinstance(item, PointCloud):
                h.update(item.points.tobytes())
            elif isinstance(item, RigidTransform):
                h.update(item.rotation.tobytes() + item.translation.tobytes())
            elif isinstance(item, np.ndarray):
                h.update(item.tobytes())
            elif isinstance(item, Path) and item.is_file():
                for f in sorted(item.parent.iterdir()):
                    h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    setup_times, digests = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cases = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        digests.append(digest(cases))
    failures = [] if len(set(digests)) == 1 else ["set-up inputs differ between repeats"]
    n = len(cases)
    workload.run(cases[0])  # warm-up: lazy imports and first allocations

    first: list = [None] * n
    times: list[list[float]] = [[] for _ in range(n)]
    counts = {"attempted": 0, "failed": 0}

    def execute(i: int, label: str) -> float:
        counts["attempted"] += 1
        t0 = time.perf_counter()
        try:
            raw = workload.run(cases[i])
        except Exception as exc:  # a raising case is a failed case, never a crash
            raw, error = None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        if raw is not None:
            outcome = workload.score(cases[i], raw)
            if first[i] is None:
                first[i] = outcome
            error = outcome.error
            if error is None and outcome.signature != first[i].signature:
                error = "result differs from the first execution of this case"
        if error is not None:
            counts["failed"] += 1
            failures.append(f"case {i} ({label}): {error}")
        return dt

    start = time.perf_counter()
    deadline = start + seconds
    for i in range(n):
        times[i].append(execute(i, "pass 0"))
    tracer = None
    if not trace:
        k = n
        while time.perf_counter() < deadline:
            times[k % n].append(execute(k % n, f"pass {k // n}"))
            k += 1
    else:
        tracer = Tracer()
        traced: list[list[float]] = [[] for _ in range(n)]
        tracer.install()
        try:
            passes = 0
            while passes == 0 or time.perf_counter() < deadline:
                passes += 1
                for i in range(n):
                    tracer.case = f"{passes}:{i}"
                    traced[i].append(tracer.call("bench.case", execute, i, f"traced pass {passes}"))
        finally:
            tracer.uninstall()

    case_times = sorted(statistics.median(t) for t in times)
    quarter = n // 4
    accuracy = [o.accuracy if o is not None else {} for o in first]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "case_s_iqm": statistics.mean(case_times[quarter:n - quarter]),
        "rmse_p50": _agg(statistics.median, accuracy, "rmse"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    also_printed = {
        "case_s_p50": statistics.median(case_times),
        "cases_per_min": 60.0 * n / sum(case_times),
        "rot_err_deg_max": _agg(max, accuracy, "rot_err_deg"),
        "trans_err_max": _agg(max, accuracy, "trans_err"),
        "iou_p50": _agg(statistics.median, accuracy, "iou"),
        "dice_p50": _agg(statistics.median, accuracy, "dice"),
        "fail_rate": counts["failed"] / counts["attempted"],
    }
    per_layer = {}
    if tracer is not None:
        overhead = statistics.median(
            statistics.median(tr) - t[0] for tr, t in zip(traced, times))
        per_layer = layer_metrics(tracer, sum(len(t) for t in traced), overhead)
    return Result(correct=not failures, attempted=counts["attempted"],
                  failed=counts["failed"], end_to_end=end_to_end,
                  also_printed={k: v for k, v in also_printed.items() if v is not None},
                  per_layer=per_layer, accuracy=accuracy, failures=failures, tracer=tracer)


def _agg(fn, accuracy, key):
    vals = [float(a[key]) for a in accuracy if key in a]
    return fn(vals) if vals else None


def layer_metrics(tracer: Tracer, executions: int, overhead: float) -> dict:
    """Per-layer metrics per traced case execution."""
    spans = tracer.durations()
    calls = tracer.calls()
    selfs = tracer.self_times()
    counts = tracer.counts
    acc, rej = counts["registration.accepted"], counts["registration.rejected"]
    out = {}
    for name, (_, source) in PER_LAYER.items():
        kind, _, arg = source.partition(" ")
        if kind == "span":
            total = spans.get(arg, 0.0)
        elif kind == "calls":
            total = calls.get(arg, 0)
        elif kind == "self":
            total = selfs.get(arg, 0.0)
        elif kind == "count":
            total = counts.get(name, 0)
        elif kind == "ratio":
            out[name] = acc / (acc + rej) if acc + rej else 0.0
            continue
        else:
            out[name] = overhead
            continue
        out[name] = total / executions
    return out


def check_finite(values: dict) -> list[str]:
    return [f"metric {k} is not finite" for k, v in values.items()
            if not isinstance(v, (int, float)) or not math.isfinite(v)]
