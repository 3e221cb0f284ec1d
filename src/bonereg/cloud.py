"""Point cloud containers and ASCII serialization.

Points are float64 rows (x, y, z) in a normalized coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _first_occurrence(pts: np.ndarray):
    """Indices keeping the first copy of each duplicate row, or None if unique.

    A stable sort by (x, y, z) puts equal rows next to each other in index
    order, so each run of equal rows starts with its first copy; -0.0 and
    0.0 compare equal."""
    order = np.lexsort(pts.T[::-1])
    rows = pts[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    if first.all():
        return None
    return np.sort(order[first])


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered 3D point set.

    Exact duplicate rows are dropped at construction; the first occurrence
    wins and the remaining order is preserved. The cloud keeps its own
    read-only copy of the points: changing the array it was made from
    does not change it, and writing into cloud.points raises ValueError,
    so what is derived from a cloud (geometry.cloud_index) stays valid.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        keep = _first_occurrence(pts)
        pts = pts.copy() if keep is None else pts[keep]
        pts.flags.writeable = False
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
    significant digits; an empty cloud writes an empty file.

    The whole cloud is formatted by one % operation and written at once;
    the bytes equal np.savetxt(path, cloud.points, fmt="%.9g")."""
    pts = cloud.points
    Path(path).write_text(("%.9g %.9g %.9g\n" * len(pts)) % tuple(pts.ravel().tolist()))


def _parse_rows(lines: list[str], path) -> np.ndarray:
    """Per-line parse: split each non-blank line on whitespace, name the
    first line whose column count is not 3, and convert every token with
    float()."""
    rows = [ln.split() for ln in lines if ln.strip()]
    if set(map(len, rows)) != {3}:
        lineno, width = next((i, len(f)) for i, f in enumerate(map(str.split, lines), 1)
                             if f and len(f) != 3)
        raise ValueError(f"{path}, line {lineno}: expected 3 columns, found {width}")
    return np.array(rows, dtype=float)


def load_xyz(path) -> PointCloud:
    """Read an ASCII "x y z" cloud written by save_xyz; a line with any
    other column count is a ValueError naming that line, and a file of
    blank lines is the empty cloud.

    The lines are parsed in one C-level np.loadtxt pass. Should it raise
    or not give an (n, 3) array, the per-line parser (_parse_rows) reads
    them instead: it accepts what float() accepts (digit separators,
    non-ASCII digits) and raises the column-count and conversion errors,
    so the values and errors are those of the per-line parser alone."""
    text = Path(path).read_text()
    if not text or text.isspace():
        return PointCloud(np.zeros((0, 3)))
    lines = text.splitlines()
    try:
        pts = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError:
        pts = None
    if pts is None or pts.shape[1] != 3:
        pts = _parse_rows(lines, path)
    return PointCloud(pts)
