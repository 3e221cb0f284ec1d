"""Point cloud containers and ASCII serialization.

Points are float64 rows (x, y, z) in a normalized coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _first_occurrence(pts: np.ndarray):
    """Indices keeping the first copy of each duplicate row, or None if unique."""
    _, first = np.unique(pts, axis=0, return_index=True)
    if first.size == pts.shape[0]:
        return None
    return np.sort(first)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered 3D point set.

    Exact duplicate rows are dropped at construction; the first occurrence
    wins and the remaining order is preserved.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        keep = _first_occurrence(pts)
        if keep is not None:
            pts = pts[keep]
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise ValueError("empty cloud has no bounding box")
        return self.points.min(axis=0), self.points.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bounding_box()
        return float(np.linalg.norm(hi - lo))


def save_xyz(cloud: PointCloud, path) -> None:
    """Write a cloud as ASCII "x y z" lines, one point per line with 9
    significant digits."""
    np.savetxt(path, cloud.points, fmt="%.9g")


def load_xyz(path) -> PointCloud:
    """Read an ASCII "x y z" cloud written by save_xyz; a line with any
    other column count is a ValueError naming that line."""
    lines = Path(path).read_text().splitlines()
    rows = [ln.split() for ln in lines if ln.strip()]
    if not rows:
        return PointCloud(np.zeros((0, 3)))
    if set(map(len, rows)) != {3}:
        lineno, width = next((i, len(f)) for i, f in enumerate(map(str.split, lines), 1)
                             if f and len(f) != 3)
        raise ValueError(f"{path}, line {lineno}: expected 3 columns, found {width}")
    return PointCloud(np.array(rows, dtype=float))
