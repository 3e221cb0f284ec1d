"""Rigid registration of point clouds.

Two algorithms share one iteration loop, _iterate, and differ in its
step, which returns a rigid move with its accepted and rejected pair
counts. The feature-refined variant (csn_icp) matches each moving point
to its Cartesian nearest neighbor, re-picks the match inside an r_th-ball
by minimum feature distance, and drops pairs whose distances exceed
median-relative thresholds before the SVD solve; the classic baseline
(icp_classic) solves on plain nearest neighbors. Both start with the
source's centroid on the target's. partition_register splits the moving
cloud into contiguous x-sorted bins and registers each bin from the
identity, modeling articulated motion; csn_icp is its one-bin case.

Each step has one kernel: _correspond_arrays matches every moving point
(scored with geometry.d_s and d_c) and _reject_mask applies the
median-relative thresholds over all pairs. What depends on the target
alone (its k-d tree, features and r_th-ball table) is built once per
target cloud and kept while the cloud lives.

Working memory is bounded by blocks of rows: the feature pass (_features)
and the ball table (_ball_table) query _BLOCK_ROWS points at a time, and
matching takes the moving rows in blocks of about _BLOCK_PAIRS ball
entries, each block writing its slice of the outputs. None of the three
holds a temporary wider than one block, and every row's result is the
same whatever the block size. What spans the cloud is O(n) per-point
arrays (outputs, features, the nearest query's windows) and the kept
ball table, which takes 4 bytes per entry (int32 indices), n times the
mean ball size entries in all, plus 8 bytes per point for its row offsets.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cloud import PointCloud
from .geometry import (SpatialIndex, _angles, _feature_arrays, cloud_index, cloud_tables,
                       d_c, d_s)
from . import metrics


# the working-memory budget: query rows per block of the feature pass and
# the ball table, and ball entries per block of matching
_BLOCK_ROWS = 256
_BLOCK_PAIRS = 1 << 14


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
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("rotation and translation must be finite")
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
        out = np.asarray(points, dtype=float) @ self.rotation.T
        out += self.translation  # the product is a new array: one temporary fewer
        return out

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

    r_th=None picks 2% of the target bounding-box diagonal; a given r_th
    must be below that diagonal (checked when the target is known). Rejection
    multipliers scale the running medians of the pair distances; pass
    float('inf') to disable a channel. partitions > 1 is for
    partition_register, whose bins skip the centroid pre-alignment.
    """

    k: int = 20
    r_th: float | None = None
    dc_reject_multiplier: float = 3.0
    ds_reject_multiplier: float = 3.0
    max_iterations: int = 100
    rmse_tolerance: float = 1e-6
    partitions: int = 1
    feature_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        for name in ("k", "max_iterations", "partitions"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("dc_reject_multiplier", "ds_reject_multiplier", "rmse_tolerance"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                raise ValueError(f"{name} must be a positive number")
        if self.r_th is not None and not (_is_real(self.r_th) and 0 < self.r_th < math.inf):
            # an infinite radius would put every target point in every ball
            raise ValueError("r_th must be a positive finite number")
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
        if len(w) != 3 or not all(_is_real(x) and 0 <= x < math.inf for x in w):
            raise ValueError("feature_weights must be three non-negative finite values")
        object.__setattr__(self, "feature_weights", tuple(float(x) for x in w))


@dataclass
class RegistrationReport:
    """Outcome of one registration run.

    per_iteration_rmse holds the nearest-neighbor RMSE after each applied
    iteration, at least one; final_transforms has one entry per partition.

    The RMSE is that of the moving points as _iterate moved them, one step
    at a time, so final_rmse may differ in the last bits from
    metrics.rmse of final_transforms[0] applied to the source in one go
    (0.0034542008888755775 against ...5723 for icp_classic on the
    phantom of tests/test_registration.py::turned_phantom).
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


def _features(index: SpatialIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(normals, curvature) of every indexed point from its k-neighborhood
    (geometry._feature_arrays), _BLOCK_ROWS points at a time; the normals'
    signs are set by the centroid of the whole cloud."""
    pts = index.points
    center = pts.mean(axis=0)
    normals, curv = np.empty_like(pts), np.empty(len(pts))
    for lo in range(0, len(pts), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = pts[block]
        normals[block], curv[block] = _feature_arrays(pts, index.knn_batch(rows, k),
                                                      rows - center)
    return normals, curv


def _ball_table(index: SpatialIndex, r_th: float) -> tuple[np.ndarray, np.ndarray]:
    """r_th-ball around every indexed point as CSR (indptr, indices): the
    ball of point j is indices[indptr[j]:indptr[j + 1]], ascending. The
    balls are queried _BLOCK_ROWS centres at a time, and each block's
    indices are stored as int32 (a cloud holds fewer than 2**31 points);
    indptr, which counts entries, stays int64."""
    pts = index.points
    counts, blocks = [], []
    for lo in range(0, len(pts), _BLOCK_ROWS):
        balls = index.ball_batch(pts[lo:lo + _BLOCK_ROWS], r_th)
        counts.append(np.fromiter(map(len, balls), dtype=np.int64, count=len(balls)))
        blocks.append(np.concatenate(balls, dtype=np.int32))
    indptr = np.zeros(len(pts) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return indptr, np.concatenate(blocks)


def _target_tables(index: SpatialIndex, k: int, r_th: float):
    """(tgt_sph, balls): the (curvature, phi, theta) row of every indexed
    point from its k-neighborhood, and the r_th-ball table."""
    normals, curv = _features(index, k)
    return np.column_stack([curv, *_angles(normals)]), _ball_table(index, r_th)


def _correspond_arrays(moving_pts, moving_sph, primary, tgt_pts, tgt_sph, balls, weights):
    """Two-stage match: primary[i] is moving point i's Cartesian nearest
    neighbor (SpatialIndex.nearest); the match is the minimum feature
    distance inside the r_th-ball around it, read from the target's ball
    table (_ball_table). Ties prefer the primary neighbor, then the lowest
    index. Returns (target_idx, dc, ds) for every moving point.

    The rows are matched in blocks: a block ends where the running ball
    size crosses a multiple of _BLOCK_PAIRS, so it holds fewer than
    _BLOCK_PAIRS entries plus those of its last ball."""
    n = moving_pts.shape[0]
    indptr, indices = balls
    starts = indptr[primary]
    counts = indptr[primary + 1] - starts
    begins = np.cumsum(counts) - counts
    edges = [0, *(np.flatnonzero(np.diff(begins // _BLOCK_PAIRS)) + 1), n]
    chosen, dc, ds = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    for lo, hi in zip(edges, edges[1:]):
        chosen[lo:hi], dc[lo:hi], ds[lo:hi] = _correspond_block(
            moving_pts[lo:hi], moving_sph[lo:hi], primary[lo:hi], starts[lo:hi], counts[lo:hi],
            begins[lo:hi] - begins[lo], tgt_pts, tgt_sph, indices, weights)
    return chosen, dc, ds


def _correspond_block(moving_pts, moving_sph, primary, starts, counts, begins, tgt_pts,
                      tgt_sph, indices, weights):
    """_correspond_arrays on one block of moving rows, over all of their
    ball entries at once: row i's ball is indices[starts[i]:starts[i] +
    counts[i]], and begins[i] its offset in the block's entries."""
    n = moving_pts.shape[0]
    rows = np.repeat(np.arange(n), counts)
    flat = indices[np.arange(rows.size) + np.repeat(starts - begins, counts)]
    ds_all = d_s(np.take(moving_sph, rows, axis=0), np.take(tgt_sph, flat, axis=0), weights)
    # every ball holds its own centre, so no row is empty; a NaN d_s ranks
    # last, and a row of NaNs ties throughout
    best = np.fmin.reduceat(ds_all, begins)[rows]
    tied = (ds_all == best) | (np.isnan(ds_all) & np.isnan(best))
    pos = np.flatnonzero(tied)
    lead = np.ones(pos.size, dtype=bool)
    lead[1:] = rows[pos[1:]] != rows[pos[:-1]]
    # balls are ascending, so a row's first tied entry has the lowest
    # index; a tied primary takes precedence over it
    sel = pos[lead]
    hit = tied & (flat == primary[rows])
    sel[rows[hit]] = np.flatnonzero(hit)
    chosen = flat[sel]
    return chosen, d_c(moving_pts, np.take(tgt_pts, chosen, axis=0)), ds_all[sel]


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


def _centroid_start(points: np.ndarray, target_points: np.ndarray):
    """(points + shift, the shift as a transform), the shift taking their
    centroid onto the target's; added, not applied through a matmul."""
    shift = target_points.mean(axis=0) - points.mean(axis=0)
    return points + shift, RigidTransform(np.eye(3), shift)


def _iterate(moving: np.ndarray, start: RigidTransform, tgt_index: SpatialIndex,
             config: CsnIcpConfig, step) -> RegistrationReport:
    """Shared ICP loop from moving, the source placed at the start pose.
    step(moving_pts, primary, rotation) returns (move, accepted, rejected):
    a rigid move of the moving points and the pair counts it was solved
    from, given each point's nearest target point (primary) and the
    rotation of the running transform from source to moving. An applied
    move is composed into that transform and recorded with its counts and
    the RMSE of one SpatialIndex.nearest query, whose matches feed the next
    step and whose certificate spares the tree search where a point's
    nearest target point cannot have changed. The loop stops on |delta
    RMSE| < tolerance, or reverts the move and stops if the RMSE would rise.
    """
    total = start
    primary, dist, cert = tgt_index.nearest(moving)
    prev = metrics.root_mean_square(dist)
    trace: list[float] = []
    converged = False
    accepted = rejected = 0
    for _ in range(config.max_iterations):
        move, step_accepted, step_rejected = step(moving, primary, total.rotation)
        candidate = move.apply(moving)
        cand_primary, dist, cand_cert = tgt_index.nearest(candidate, cert)
        cur = metrics.root_mean_square(dist)
        if trace and cur > trace[-1]:
            converged = True
            break
        moving, primary, cert = candidate, cand_primary, cand_cert
        total = move.compose(total)
        trace.append(cur)
        accepted, rejected = step_accepted, step_rejected
        if abs(prev - cur) < config.rmse_tolerance:
            converged = True
            break
        prev = cur
    return RegistrationReport(trace, [total], accepted, rejected, converged, len(trace))


def _csn_bins(source: PointCloud, target: PointCloud,
              config: CsnIcpConfig) -> list[RegistrationReport]:
    """One CSN-ICP run per partition bin of the source, in bin order. Only
    a single bin starts centroid-aligned: aligning a bin's centroid to the
    whole target would mis-center it."""
    k = config.k
    if len(source) < k or len(target) < k:
        raise DegenerateGeometryError(
            f"clouds must have at least k={k} points (got {len(source)} and {len(target)})")
    bins = partition_indices(source, config.partitions)
    if min(b.size for b in bins) < k:
        raise DegenerateGeometryError(f"a partition holds fewer than k={k} points")
    diag = target.bbox_diagonal()
    r_th = config.r_th if config.r_th is not None else 0.02 * diag
    if not r_th < diag:
        # a ball that wide holds every target point: an n^2 ball table
        raise ValueError(f"r_th={r_th:g} must be below the target's bounding-box "
                         f"diagonal {diag:g}")
    index = cloud_index(target)
    tgt_sph, balls = cloud_tables(target, _target_tables, k, r_th)
    normals, curv = _features(SpatialIndex(source), k)

    def step(bin_normals, bin_curv, moving_pts, primary, rotation):
        sph = np.column_stack([bin_curv, *_angles(bin_normals @ rotation.T)])
        tgt_idx, dc, ds = _correspond_arrays(moving_pts, sph, primary, index.points,
                                             tgt_sph, balls, config.feature_weights)
        kept = np.nonzero(_reject_mask(dc, ds, config))[0]
        return (solve_rigid(np.take(moving_pts, kept, axis=0),
                            np.take(index.points, tgt_idx[kept], axis=0)),
                kept.size, len(moving_pts) - kept.size)

    starts = [_centroid_start(source.points, index.points)] if len(bins) == 1 \
        else [(source.points[b], RigidTransform.identity()) for b in bins]
    return [_iterate(moving, start, index, config, partial(step, normals[b], curv[b]))
            for b, (moving, start) in zip(bins, starts)]


def csn_icp(source: PointCloud, target: PointCloud,
            config: CsnIcpConfig | None = None) -> RegistrationReport:
    """Register source onto target with feature-refined correspondences
    and median-relative pair rejection.

    The target's index, features and r_th-ball table are built once per
    target cloud (geometry.cloud_index and cloud_tables): they depend on
    the target alone, the balls are centred on target points, and the
    cloud's points are read-only, so later runs onto the same cloud
    object, with the same k and r_th, reuse them. The source features
    are estimated once per run, over the whole source at its own pose:
    rigid motion keeps each point's k-neighborhood, curvature and normal
    sign, and only rotates its normal, so each iteration takes
    (phi, theta) from the source normals turned by the running rotation.
    """
    config = config or CsnIcpConfig()
    if config.partitions > 1:
        raise ValueError("csn_icp registers one body; partitions > 1 need partition_register")
    return _csn_bins(source, target, config)[0]


def icp_classic(source: PointCloud, target: PointCloud,
                config: CsnIcpConfig | None = None) -> RegistrationReport:
    """Classic point-to-point ICP: nearest-neighbor correspondences, no
    refinement, no rejection, same solve and stopping rule as csn_icp."""
    config = config or CsnIcpConfig()
    if config.partitions > 1:
        raise ValueError("icp_classic registers one body; partitions > 1 need partition_register")
    if len(source) == 0 or len(target) == 0:
        raise ValueError("clouds must be non-empty")
    index = cloud_index(target)

    def step(moving_pts, primary, _rotation):
        return solve_rigid(moving_pts, np.take(index.points, primary, axis=0)), len(moving_pts), 0

    return _iterate(*_centroid_start(source.points, index.points), index, config, step)


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

    With partitions=1 this is exactly csn_icp. The bins share the
    target's tables, built once per target cloud, and one estimate of
    the source features over the whole source, so no k-neighborhood ends
    at a bin edge. The reported trace is the RMSE of the union of the transformed
    bins, with bins that converge early held at their final pose.
    """
    config = config or CsnIcpConfig()
    reports = _csn_bins(source, target, config)
    if len(reports) == 1:
        return reports[0]
    sizes = np.array([b.size for b in partition_indices(source, config.partitions)], dtype=float)
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
