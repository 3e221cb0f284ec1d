"""Mask stack to normalized point cloud conversion.

The pipeline equalizes the z resolution to the in-plane pixel pitch with
cubic interpolation, extracts bone voxel centers (surface voxels by
default), and rescales everything into a normalized coordinate system
where the reference bone spans one unit along y.

Axis convention: x is the image column index, y the image row index, z
the slice index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .mask_io import SliceStack

SURFACE_MODES = ("surface", "full")


@dataclass(frozen=True, eq=False)
class MaskVolume:
    """3D binary grid with bits[z, y, x] and per-axis voxel pitch."""

    bits: np.ndarray
    voxel_pitch: tuple[float, float, float]

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 3:
            raise ValueError("volume bits must be 3D")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("volume bits must contain only 0/1 values")
        object.__setattr__(self, "bits", bits.astype(np.uint8))
        pitch = tuple(float(p) for p in self.voxel_pitch)
        if len(pitch) != 3 or any(p <= 0 for p in pitch):
            raise ValueError("voxel pitches must be three positive values")
        object.__setattr__(self, "voxel_pitch", pitch)


def max_bone_extent_y(stack: SliceStack) -> float:
    """Largest per-slice bone extent along the image row axis, scaled to
    physical units: max over slices of (last bone row - first bone row + 1)
    times the pixel spacing."""
    best = 0
    for sl in stack.slices:
        rows = np.nonzero(sl.bits.any(axis=1))[0]
        if rows.size:
            best = max(best, int(rows[-1] - rows[0] + 1))
    if best == 0:
        raise ValueError("stack has no bone content")
    return best * stack.manifest.pixel_spacing_mm


def scale_factor(ct: SliceStack, mr: SliceStack) -> float:
    """In-plane zoom applied to CT coordinates so the CT bone matches the
    MR bone extent along y; the MR scale stays fixed."""
    return max_bone_extent_y(mr) / max_bone_extent_y(ct)


def _catmull_rom_weights(t: float) -> tuple[float, float, float, float]:
    t2 = t * t
    t3 = t2 * t
    return (0.5 * (-t + 2.0 * t2 - t3),
            0.5 * (2.0 - 5.0 * t2 + 3.0 * t3),
            0.5 * (t + 4.0 * t2 - 3.0 * t3),
            0.5 * (-t2 + t3))


def interpolate_z(stack: SliceStack) -> MaskVolume:
    """Resample the 0/1 field along z at the in-plane pixel pitch.

    Each (x, y) column is interpolated with a Catmull-Rom cubic; edge
    slices are replicated for boundary support and values >= 0.5 become
    bone. The output grid is isotropic at the pixel pitch.
    """
    n = len(stack)
    if n < 2:
        raise ValueError("z interpolation needs at least 2 slices")
    p = stack.manifest.pixel_spacing_mm
    s = stack.manifest.slice_spacing_mm
    span = (n - 1) * s
    # round up so the grid covers the whole span; samples past the last
    # slice clamp onto it, so no slice-exclusive content is lost
    m = int(np.ceil(span / p * (1.0 - 1e-12))) + 1
    field = stack.as_array().astype(np.float64)
    out = np.empty((m,) + field.shape[1:], dtype=np.uint8)
    last = n - 1
    for j in range(m):
        zeta = j * p / s
        i = min(int(zeta), n - 2)
        t = min(zeta - i, 1.0)
        w0, w1, w2, w3 = _catmull_rom_weights(t)
        p0 = field[max(i - 1, 0)]
        p1 = field[i]
        p2 = field[min(i + 1, last)]
        p3 = field[min(i + 2, last)]
        vals = w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3
        out[j] = vals >= 0.5
    return MaskVolume(out, (p, p, p))


def extract_surface(volume: MaskVolume, mode: str = "surface") -> PointCloud:
    """Voxel centers of bone voxels, emitted in (z, y, x) order.

    In "surface" mode only voxels with at least one empty 6-neighbor are
    kept (out of bounds counts as empty); "full" keeps every bone voxel.
    """
    if mode not in SURFACE_MODES:
        raise ValueError(f"mode must be one of {SURFACE_MODES}")
    bits = volume.bits.astype(bool)
    if mode == "surface":
        padded = np.pad(bits, 1, constant_values=False)
        interior = (padded[:-2, 1:-1, 1:-1] & padded[2:, 1:-1, 1:-1]
                    & padded[1:-1, :-2, 1:-1] & padded[1:-1, 2:, 1:-1]
                    & padded[1:-1, 1:-1, :-2] & padded[1:-1, 1:-1, 2:])
        keep = bits & ~interior
    else:
        keep = bits
    zyx = np.argwhere(keep)
    px, py, pz = volume.voxel_pitch
    pts = np.column_stack([(zyx[:, 2] + 0.5) * px,
                           (zyx[:, 1] + 0.5) * py,
                           (zyx[:, 0] + 0.5) * pz])
    return PointCloud(pts)


def build_point_cloud(stack: SliceStack, in_plane_scale: float,
                      mode: str = "surface") -> PointCloud:
    """Full stack-to-cloud pipeline in normalized coordinates.

    x and y are multiplied by in_plane_scale times the pixel spacing, z
    comes from the interpolated isotropic grid, and all coordinates are
    divided by the scaled y bone extent so the reference bone spans one
    unit along y. Pass in_plane_scale=1 for the reference (MR) stack and
    scale_factor(ct, mr) for the CT stack.
    """
    if not in_plane_scale > 0:
        raise ValueError("in_plane_scale must be positive")
    extent = max_bone_extent_y(stack)
    cloud = extract_surface(interpolate_z(stack), mode)
    pts = cloud.points.copy()
    pts[:, :2] *= in_plane_scale
    pts /= in_plane_scale * extent
    return PointCloud(pts)
