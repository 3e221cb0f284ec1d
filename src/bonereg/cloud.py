"""Point cloud containers and ASCII serialization.

Points are float64 rows (x, y, z) in a normalized coordinate system.
Feature fields are struct-of-arrays parallel to the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class LocalFeatures:
    """Per-point surface descriptors. Matching compares the
    (curvature, phi, theta) triples with geometry.d_s.

    normals : (n, 3) unit normal vectors
    curvature : (n,) smallest-eigenvalue share of the neighborhood
        covariance trace, in [0, 1/3]
    phi : (n,) azimuth of the normal, in (-pi, pi]
    theta : (n,) elevation of the normal, in [0, pi]
    """

    normals: np.ndarray
    curvature: np.ndarray
    phi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        if normals.ndim != 2 or normals.shape[1] != 3:
            raise ValueError("normals must have shape (n, 3)")
        object.__setattr__(self, "normals", normals)
        n = normals.shape[0]
        for name in ("curvature", "phi", "theta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"feature field {name!r} is not parallel to normals")
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.normals.shape[0]

    def take(self, idx) -> LocalFeatures:
        return LocalFeatures(self.normals[idx], self.curvature[idx],
                             self.phi[idx], self.theta[idx])


def _first_occurrence(pts: np.ndarray):
    """Indices keeping the first copy of each duplicate row, or None if unique."""
    _, first = np.unique(pts, axis=0, return_index=True)
    if first.size == pts.shape[0]:
        return None
    return np.sort(first)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered 3D point set, optionally carrying per-point features.

    Exact duplicate rows are dropped at construction; the first occurrence
    wins and the remaining order is preserved.
    """

    points: np.ndarray
    features: LocalFeatures | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        feats = self.features
        keep = _first_occurrence(pts)
        if keep is not None:
            pts = pts[keep]
            if feats is not None:
                feats = feats.take(keep)
        if feats is not None and len(feats) != pts.shape[0]:
            raise ValueError("feature count does not match point count")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "features", feats)

    def __len__(self) -> int:
        return self.points.shape[0]

    def with_features(self, features: LocalFeatures) -> PointCloud:
        return PointCloud(self.points, features)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise ValueError("empty cloud has no bounding box")
        return self.points.min(axis=0), self.points.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))


def save_xyz(cloud: PointCloud, path, with_features: bool = False) -> None:
    """Write a cloud as ASCII, one point per line with 9 significant digits.

    Plain format is "x y z"; with features each line carries
    "x y z nx ny nz delta phi theta".
    """
    if with_features:
        if cloud.features is None:
            raise ValueError("cloud carries no features")
        f = cloud.features
        data = np.column_stack([cloud.points, f.normals, f.curvature, f.phi, f.theta])
    else:
        data = cloud.points
    np.savetxt(path, data, fmt="%.9g")


def load_xyz(path) -> PointCloud:
    """Read an ASCII cloud written by save_xyz (3 or 9 columns)."""
    rows = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not rows:
        return PointCloud(np.zeros((0, 3)))
    arr = np.array(rows, dtype=float)
    if arr.shape[1] == 3:
        return PointCloud(arr)
    if arr.shape[1] == 9:
        feats = LocalFeatures(normals=arr[:, 3:6], curvature=arr[:, 6],
                              phi=arr[:, 7], theta=arr[:, 8])
        return PointCloud(arr[:, :3], feats)
    raise ValueError(f"{path}: expected 3 or 9 columns, found {arr.shape[1]}")
