"""Rigid registration of point clouds.

Two algorithms share one iteration loop: the feature-refined variant
(csn_icp) matches each moving point to its Cartesian nearest neighbor,
re-picks the match inside an r_th-ball by minimum feature distance, and
drops pairs whose distances exceed median-relative thresholds before the
SVD solve; the classic baseline (icp_classic) uses plain nearest
neighbors with no refinement or rejection. partition_register splits the
moving cloud into contiguous x-sorted bins and registers each bin
independently, modeling articulated motion.

Each step has one kernel, working on whole arrays: _correspond_arrays
matches every moving point (scored with geometry.d_s and d_c) and
_reject_mask applies the median-relative thresholds.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .cloud import PointCloud
from .geometry import SpatialIndex, _feature_arrays, d_c, d_s
from . import metrics


class RegistrationError(Exception):
    """Registration could not proceed."""


class DivergenceError(RegistrationError):
    """Too few correspondence pairs survived rejection."""


class DegenerateGeometryError(RegistrationError):
    """Point configuration does not determine a rigid transform."""


def _g17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation matrix plus translation vector, applied as R @ p + T."""

    rotation: np.ndarray
    translation: np.ndarray

    _TOL = 1e-9

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.abs(r.T @ r - np.eye(3)).max() > self._TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > self._TOL:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> RigidTransform:
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_axis_angle(cls, axis, angle: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
        """Rodrigues rotation about a (nonzero) axis plus translation."""
        axis = np.asarray(axis, dtype=float).reshape(3)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ValueError("rotation axis must be nonzero")
        kx, ky, kz = axis / norm
        k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
        r = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        return cls(r, np.asarray(translation, dtype=float))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation

    def compose(self, inner: RigidTransform) -> RigidTransform:
        """self after inner: (self o inner)(p) == self(inner(p))."""
        return RigidTransform(self.rotation @ inner.rotation,
                              self.rotation @ inner.translation + self.translation)

    def inverse(self) -> RigidTransform:
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def rotation_angle(self) -> float:
        """Magnitude of the rotation, in radians."""
        c = (np.trace(self.rotation) - 1.0) / 2.0
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    def to_json(self) -> str:
        rows = ["[" + ", ".join(_g17(x) for x in row) + "]" for row in self.rotation]
        t = ", ".join(_g17(x) for x in self.translation)
        return '{"R": [' + ", ".join(rows) + '], "T": [' + t + "]}"

    @classmethod
    def from_json(cls, text: str) -> RigidTransform:
        doc = json.loads(text)
        return cls(np.asarray(doc["R"], dtype=float), np.asarray(doc["T"], dtype=float))


def rotation_angle_between(a: RigidTransform, b: RigidTransform) -> float:
    """Angle of the relative rotation between two transforms, radians."""
    return RigidTransform(a.rotation @ b.rotation.T, np.zeros(3)).rotation_angle()


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class CsnIcpConfig:
    """Tuning knobs for registration.

    r_th=None picks 2% of the target bounding-box diagonal. Rejection
    multipliers scale the running medians of the pair distances; pass
    float('inf') to disable a channel.
    """

    k: int = 20
    r_th: float | None = None
    dc_reject_multiplier: float = 3.0
    ds_reject_multiplier: float = 3.0
    max_iterations: int = 100
    rmse_tolerance: float = 1e-6
    partitions: int = 1
    feature_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    center_align: bool = True

    def __post_init__(self):
        for name in ("k", "max_iterations", "partitions"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("dc_reject_multiplier", "ds_reject_multiplier", "rmse_tolerance"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ValueError(f"{name} must be a positive number")
        if self.r_th is not None and not (_is_real(self.r_th) and self.r_th > 0):
            raise ValueError("r_th must be a positive number")
        if not isinstance(self.center_align, bool):
            raise ValueError("center_align must be true or false")
        if self.k < 3:
            raise ValueError("k must be at least 3")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.partitions < 1:
            raise ValueError("partitions must be at least 1")
        try:
            w = tuple(self.feature_weights)
        except TypeError:
            w = ()
        if len(w) != 3 or not all(map(_is_real, w)) or min(w) < 0:
            raise ValueError("feature_weights must be three non-negative values")
        object.__setattr__(self, "feature_weights", tuple(float(x) for x in w))


@dataclass
class RegistrationReport:
    """Outcome of one registration run.

    per_iteration_rmse holds the nearest-neighbor RMSE after each applied
    iteration, at least one; final_transforms has one entry per partition.
    """

    per_iteration_rmse: list[float]
    final_transforms: list[RigidTransform]
    accepted_pairs: int
    rejected_pairs: int
    converged: bool
    iterations_used: int

    @property
    def final_rmse(self) -> float:
        return self.per_iteration_rmse[-1]


def report_to_dict(report: RegistrationReport) -> dict:
    return {
        "per_iteration_rmse": [float(x) for x in report.per_iteration_rmse],
        "final_transforms": [
            {"R": t.rotation.tolist(), "T": t.translation.tolist()}
            for t in report.final_transforms
        ],
        "accepted_pairs": int(report.accepted_pairs),
        "rejected_pairs": int(report.rejected_pairs),
        "converged": bool(report.converged),
        "iterations_used": int(report.iterations_used),
    }


def solve_rigid(source_pts, target_pts) -> RigidTransform:
    """Least-squares rigid transform mapping source points onto targets.

    Kabsch solve: demean both sets, SVD of the cross-covariance, with a
    determinant guard so reflections are never returned.
    """
    a = np.asarray(source_pts, dtype=float)
    b = np.asarray(target_pts, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape:
        raise ValueError("point lists must both have shape (n, 3)")
    if a.shape[0] < 3:
        raise DegenerateGeometryError("need at least 3 point pairs")
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, sing, vt = np.linalg.svd(h)
    if sing[1] <= sing[0] * 1e-12:
        raise DegenerateGeometryError("point pairs are collinear or coincident")
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    r = v @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, cb - r @ ca)


def _default_r_th(target: PointCloud) -> float:
    return 0.02 * target.bbox_diagonal()


def _ball_table(index: SpatialIndex, r_th: float) -> tuple[np.ndarray, np.ndarray]:
    """r_th-ball around every indexed point as CSR (indptr, indices): the
    ball of point j is indices[indptr[j]:indptr[j + 1]], ascending."""
    balls = index.ball_batch(index.points, r_th)
    indptr = np.zeros(len(balls) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, balls), dtype=np.int64, count=len(balls)), out=indptr[1:])
    return indptr, np.concatenate(balls)


def _correspond_arrays(moving_pts, moving_sph, primary, tgt_pts, tgt_sph, balls, weights):
    """Two-stage match: primary[i] is moving point i's Cartesian nearest
    neighbor (SpatialIndex.nearest); the match is the minimum feature
    distance inside the r_th-ball around it, read from the target's ball
    table (_ball_table). Ties prefer the primary neighbor, then the lowest
    index. Returns (target_idx, dc, ds) for every moving point."""
    n = moving_pts.shape[0]
    indptr, indices = balls
    starts = indptr[primary]
    counts = indptr[primary + 1] - starts
    rows = np.repeat(np.arange(n), counts)
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    flat = indices[np.arange(rows.size) + offsets]
    ds_all = d_s(moving_sph[rows], tgt_sph[flat], weights)
    not_primary = (flat != primary[rows]).astype(np.int8)
    order = np.lexsort((flat, not_primary, ds_all, rows))
    rows_sorted = rows[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    first[1:] = rows_sorted[1:] != rows_sorted[:-1]
    sel = order[first]
    chosen = flat[sel]
    return chosen, d_c(moving_pts, tgt_pts[chosen]), ds_all[sel]


def _reject_mask(dc: np.ndarray, ds: np.ndarray, config: CsnIcpConfig) -> np.ndarray:
    """Keep mask of the pairs whose d_c and d_s are within their
    multiplier times the median over all pairs; at least 3 must survive."""
    tc = math.inf if math.isinf(config.dc_reject_multiplier) \
        else config.dc_reject_multiplier * float(np.median(dc))
    ts = math.inf if math.isinf(config.ds_reject_multiplier) \
        else config.ds_reject_multiplier * float(np.median(ds))
    keep = (dc <= tc) & (ds <= ts)
    if keep.sum() < 3:
        raise DivergenceError(f"only {int(keep.sum())} correspondence pairs survived rejection")
    return keep


def _iterate(source: PointCloud, tgt_index: SpatialIndex, config: CsnIcpConfig,
             make_step) -> RegistrationReport:
    """Shared ICP loop. make_step(moving_pts, primary) returns (target_idx,
    keep_mask) for the current moving points, given each one's nearest
    target point (primary, from SpatialIndex.nearest).

    Each iteration solves on the kept pairs, composes the step into the
    running transform and records the full-cloud RMSE. One nearest query
    per candidate pose gives both that RMSE and the next step's primary
    matches. The loop stops on |delta RMSE| < tolerance, or reverts the
    step and stops if the RMSE would increase, so the recorded trace
    never rises.
    """
    moving = source.points.copy()
    total = RigidTransform.identity()
    if config.center_align:
        shift = tgt_index.points.mean(axis=0) - moving.mean(axis=0)
        moving = moving + shift
        total = RigidTransform(np.eye(3), shift)
    primary, dist = tgt_index.nearest(moving)
    prev = metrics.root_mean_square(dist)
    trace: list[float] = []
    converged = False
    accepted = rejected = 0
    for _ in range(config.max_iterations):
        tgt_idx, keep = make_step(moving, primary)
        kept = np.nonzero(keep)[0]
        step = solve_rigid(moving[kept], tgt_index.points[tgt_idx[kept]])
        candidate = step.apply(moving)
        cand_primary, dist = tgt_index.nearest(candidate)
        cur = metrics.root_mean_square(dist)
        if trace and cur > trace[-1]:
            converged = True
            break
        moving, primary = candidate, cand_primary
        total = step.compose(total)
        trace.append(cur)
        accepted = int(kept.size)
        rejected = int(keep.size - kept.size)
        if abs(prev - cur) < config.rmse_tolerance:
            converged = True
            break
        prev = cur
    return RegistrationReport(trace, [total], accepted, rejected,
                              converged, len(trace))


@dataclass(frozen=True, eq=False)
class _CsnTarget:
    """What csn_icp needs of the target; rigid motion of the source
    changes none of it, so it is built once per run."""

    index: SpatialIndex
    sph: np.ndarray
    balls: tuple[np.ndarray, np.ndarray]


def _require_k_points(n_source: int, n_target: int, k: int) -> None:
    if n_source < k or n_target < k:
        raise DegenerateGeometryError(
            f"clouds must have at least k={k} points (got {n_source} and {n_target})")


def _csn_target(target: PointCloud, config: CsnIcpConfig) -> _CsnTarget:
    r_th = config.r_th if config.r_th is not None else _default_r_th(target)
    index = SpatialIndex(target)
    _, curv, phi, theta = _feature_arrays(target.points, config.k, index)
    return _CsnTarget(index, np.column_stack([curv, phi, theta]), _ball_table(index, r_th))


def _csn_run(source: PointCloud, tgt: _CsnTarget, config: CsnIcpConfig) -> RegistrationReport:
    def make_step(moving_pts, primary):
        _, curv, phi, theta = _feature_arrays(moving_pts, config.k)
        sph = np.column_stack([curv, phi, theta])
        tgt_idx, dc, ds = _correspond_arrays(moving_pts, sph, primary, tgt.index.points,
                                             tgt.sph, tgt.balls, config.feature_weights)
        return tgt_idx, _reject_mask(dc, ds, config)

    return _iterate(source, tgt.index, config, make_step)


def csn_icp(source: PointCloud, target: PointCloud,
            config: CsnIcpConfig | None = None) -> RegistrationReport:
    """Register source onto target with feature-refined correspondences
    and median-relative pair rejection.

    The target's index, features and r_th-ball table are built once per
    run: the balls are centred on target points, so they stay fixed
    while the source moves, and each iteration reads the balls of its
    primary matches from the table. Source features are re-estimated
    every iteration because normals move with the cloud.
    """
    config = config or CsnIcpConfig()
    _require_k_points(len(source), len(target), config.k)
    return _csn_run(source, _csn_target(target, config), config)


def icp_classic(source: PointCloud, target: PointCloud,
                config: CsnIcpConfig | None = None) -> RegistrationReport:
    """Classic point-to-point ICP: nearest-neighbor correspondences, no
    refinement, no rejection, same solve and stopping rule as csn_icp."""
    config = config or CsnIcpConfig()
    if len(source) == 0 or len(target) == 0:
        raise ValueError("clouds must be non-empty")
    index = SpatialIndex(target)

    def make_step(moving_pts, primary):
        return primary, np.ones(len(moving_pts), dtype=bool)

    return _iterate(source, index, config, make_step)


def partition_indices(source: PointCloud, partitions: int) -> list[np.ndarray]:
    """Contiguous equal-count bins of point indices after sorting by x;
    each bin is returned in ascending original index order."""
    if partitions < 1:
        raise ValueError("partitions must be at least 1")
    order = np.argsort(source.points[:, 0], kind="stable")
    return [np.sort(b) for b in np.array_split(order, partitions)]


def partition_register(source: PointCloud, target: PointCloud,
                       config: CsnIcpConfig | None = None) -> RegistrationReport:
    """Register x-sorted bins of the source independently onto the full
    target; one transform per bin.

    With partitions=1 this is exactly csn_icp. For multiple bins the
    centroid pre-alignment is disabled (aligning a bin's centroid to the
    whole target would mis-center it), and every bin reuses one build of
    the target's index, features and ball table. The reported trace is
    the RMSE of the union of the transformed bins, with bins that
    converge early held at their final pose.
    """
    config = config or CsnIcpConfig()
    if config.partitions == 1:
        return csn_icp(source, target, config)
    bins = partition_indices(source, config.partitions)
    if min(b.size for b in bins) < config.k:
        raise DegenerateGeometryError(
            f"a partition holds fewer than k={config.k} points")
    _require_k_points(bins[0].size, len(target), config.k)
    sub_config = replace(config, partitions=1, center_align=False)
    tgt = _csn_target(target, sub_config)
    reports = [_csn_run(PointCloud(source.points[b]), tgt, sub_config) for b in bins]
    sizes = np.array([b.size for b in bins], dtype=float)
    # every run records at least one RMSE; a bin that stopped early holds
    # its last one
    iters = max(r.iterations_used for r in reports)
    per_bin = np.array([r.per_iteration_rmse
                        + [r.per_iteration_rmse[-1]] * (iters - r.iterations_used)
                        for r in reports])
    trace = list(np.sqrt((sizes[:, None] * (per_bin * per_bin)).sum(axis=0) / sizes.sum()))
    return RegistrationReport(
        per_iteration_rmse=trace,
        final_transforms=[r.final_transforms[0] for r in reports],
        accepted_pairs=sum(r.accepted_pairs for r in reports),
        rejected_pairs=sum(r.rejected_pairs for r in reports),
        converged=all(r.converged for r in reports),
        iterations_used=iters,
    )
