"""Spans and counts recorded around bonereg's public entry points.

Tracer.install() swaps wrappers into the module and class attributes the
package looks up at call time; uninstall() puts the originals back. The
package itself carries no tracing code, and nothing is recorded while the
wrappers are not installed.

A span is [name, start, end, parent, case]: perf_counter seconds, the
index of the enclosing span (None at the root) and the case id. A layer
is the part of a span name before the first dot. A layer's self time is
the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

from bonereg import cli, geometry, metrics, registration, volume

LAYERS = ("geometry", "registration", "metrics", "mask_io", "volume", "cloud", "cli")

# the outer registration call; calls it makes into other registration
# entry points (partition_register -> csn_icp) are not spans of their own
REGISTRATION = "registration"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.case = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _in_registration(self) -> bool:
        return any(self.spans[i][0] == REGISTRATION for i in self._stack)

    # --- wrappers -----------------------------------------------------

    def _plain(self, name, count=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if count is not None:
                    count(self.counts, out, args)
                return out
            return wrapper
        return make

    def _knn(self, fn):
        @functools.wraps(fn)
        def wrapper(index, queries, k):
            name = "geometry.knn1" if k == 1 else "geometry.knnk"
            out = self.call(name, fn, index, queries, k)
            self.counts[name + "_queries"] += out.shape[0]
            return out
        return wrapper

    def _registration(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_registration():
                return fn(*args, **kwargs)
            report = self.call(REGISTRATION, fn, *args, **kwargs)
            self.counts["registration.iterations"] += report.iterations_used
            self.counts["registration.accepted"] += report.accepted_pairs
            self.counts["registration.rejected"] += report.rejected_pairs
            return report
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plain = self._plain
        patches = [
            (geometry.SpatialIndex, "__init__", plain("geometry.index_build")),
            (geometry.SpatialIndex, "knn_batch", self._knn),
            (geometry.SpatialIndex, "ball_batch", plain("geometry.ball", _count_balls)),
            (geometry, "jacobi_eigh3", plain("geometry.eigh", _count_eigh)),
            (registration, "solve_rigid", plain("registration.solve")),
            (metrics, "nn_rmse", plain("metrics.nn_rmse")),
            (metrics, "reslice", plain("metrics.reslice")),
            (metrics, "evaluate_slices", plain("metrics.evaluate")),
            (cli, "evaluate_slices", plain("metrics.evaluate")),
            (cli, "load_stack", plain("mask_io.load", _count_stack)),
            (cli, "scale_factor", plain("volume.scale")),
            (cli, "build_point_cloud", plain("volume.build_point_cloud")),
            (volume, "interpolate_z", plain("volume.interpolate_z", _count_voxels)),
            (volume, "extract_surface", plain("volume.extract_surface", _count_points)),
            (cli, "save_xyz", plain("cloud.save_xyz", _count_saved)),
            (cli, "load_xyz", plain("cloud.load_xyz", _count_loaded)),
            (cli, "cmd_build_cloud", plain("cli.build_cloud")),
            (cli, "cmd_register", plain("cli.register")),
            (cli, "cmd_evaluate", plain("cli.evaluate")),
        ]
        for owner in (registration, cli):
            for attr in ("csn_icp", "icp_classic", "partition_register"):
                patches.append((owner, attr, self._registration))
        for owner, attr, make in patches:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- summaries ----------------------------------------------------

    def durations(self) -> dict[str, float]:
        """Total seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name.split(".")[0]] += end - start - inner
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line with the counts."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _count_balls(counts, balls, args):
    counts["geometry.ball_queries"] += len(balls)
    counts["geometry.ball_pairs"] += sum(len(b) for b in balls)


def _count_eigh(counts, out, args):
    vals = out[0]
    counts["geometry.eigh_mats"] += vals.size // 3


def _count_stack(counts, stack, args):
    base = os.path.dirname(os.fspath(args[0]))
    counts["mask_io.slices"] += len(stack)
    counts["mask_io.bytes"] += os.path.getsize(args[0]) + sum(
        os.path.getsize(os.path.join(base, f)) for f in stack.manifest.slice_files)


def _count_voxels(counts, vol, args):
    counts["volume.voxels"] += vol.bits.size


def _count_points(counts, cloud, args):
    counts["volume.points"] += len(cloud)


def _count_saved(counts, out, args):
    counts["cloud.points_io"] += len(args[0])


def _count_loaded(counts, cloud, args):
    counts["cloud.points_io"] += len(cloud)
