"""Evaluation metrics: confusion-matrix overlap scores, point-cloud RMSE,
and slice-level region disagreement computed on resliced masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .cloud import PointCloud
from .geometry import SpatialIndex, cloud_index
from .mask_io import SliceMask


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int


def confusion(pred: SliceMask, truth: SliceMask) -> ConfusionCounts:
    """Per-pixel classification counts of pred against truth."""
    if pred.bits.shape != truth.bits.shape:
        raise ValueError("mask dimensions differ")
    p = pred.bits.astype(bool)
    t = truth.bits.astype(bool)
    return ConfusionCounts(tp=int((p & t).sum()), fp=int((p & ~t).sum()),
                           fn=int((~p & t).sum()), tn=int((~p & ~t).sum()))


def iou(c: ConfusionCounts) -> float:
    den = c.tp + c.fn + c.fp
    if den == 0:
        raise ValueError("IOU undefined: both masks are empty")
    return c.tp / den


def dice(c: ConfusionCounts) -> float:
    den = 2 * c.tp + c.fn + c.fp
    if den == 0:
        raise ValueError("Dice undefined: both masks are empty")
    return 2 * c.tp / den


def root_mean_square(d: np.ndarray) -> float:
    return float(np.sqrt(np.mean(d * d)))


def nn_rmse(points: np.ndarray, target_index: SpatialIndex) -> float:
    """Root mean squared nearest-neighbor distance from points to the
    indexed cloud."""
    return root_mean_square(target_index.nearest(points)[1])


def rmse(moving: PointCloud, target: PointCloud) -> float:
    """Registration residual: for every moving point, the distance to its
    nearest target point, root-mean-squared over the moving cloud only."""
    if len(moving) == 0 or len(target) == 0:
        raise ValueError("empty cloud")
    return nn_rmse(moving.points, cloud_index(target))


def binary_close(bits: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Morphological closing of each 2-D slice of bits, shape (..., h, w):
    dilate, then erode, iterations times each by a 3x3 square with
    out-of-bounds as background. n steps by the 3x3 square are one by the
    (2n+1) square, so each is one max or min filter, 1 wide along leading
    axes so no slice reaches another; past n = max(h, w) nothing changes."""
    if iterations <= 0:
        return bits.astype(np.uint8)
    side = 2 * min(iterations, max(bits.shape[-2:])) + 1
    size = (1,) * (bits.ndim - 2) + (side, side)
    b = ndimage.maximum_filter(bits.astype(bool).view(np.uint8), size, mode="constant", cval=0)
    return ndimage.minimum_filter(b, size, mode="constant", cval=0)


@dataclass(frozen=True)
class RasterGrid:
    """Pixel grid for reslicing; origin is the low corner of pixel (0, 0)
    in cloud x-y coordinates. No grid has more than MAX_PIXELS pixels
    (4096 x 4096; every band mask takes a byte a pixel)."""

    MAX_PIXELS = 1 << 24

    width: int
    height: int
    pixel_pitch: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if not self.pixel_pitch > 0:
            raise ValueError("pixel pitch must be positive")
        if int(self.width) * int(self.height) > self.MAX_PIXELS:
            raise ValueError(f"{self.width} x {self.height} grid: over {self.MAX_PIXELS} pixels")

    @classmethod
    def covering(cls, lo, hi, pixel_pitch: float | None = None,
                 closing_iterations: int = 2) -> RasterGrid:
        """Grid over the x-y box from lo to hi plus a margin of
        closing_iterations + 1 pixels on every side, so closing never
        reaches the border. The default pitch is 1/128 of the larger x-y
        extent; a given pitch must be positive and finite,
        closing_iterations non-negative, and the grid within MAX_PIXELS."""
        if closing_iterations < 0:
            raise ValueError("closing iterations must be non-negative")
        if pixel_pitch is not None and not 0 < pixel_pitch < np.inf:
            raise ValueError(f"pixel pitch must be positive and finite, got {pixel_pitch}")
        if pixel_pitch is None:
            extent = max(hi[0] - lo[0], hi[1] - lo[1])
            pixel_pitch = extent / 128.0 if extent > 0 else 1.0
        margin = closing_iterations + 1
        # counted in Python floats, so a span that overflows is inf, not an
        # error; a margin past the cap fails it at any size, so it is clamped
        # before it meets a float
        width, height = (np.floor(float(hi[i] - lo[i]) / pixel_pitch) + 1
                         + 2 * min(margin, cls.MAX_PIXELS) for i in (0, 1))
        if width * height > cls.MAX_PIXELS:
            raise ValueError(f"pixel pitch {pixel_pitch:g} with {closing_iterations} closing "
                             f"iterations needs more than {cls.MAX_PIXELS} pixels")
        return cls(int(width), int(height), pixel_pitch,
                   (lo[0] - margin * pixel_pitch, lo[1] - margin * pixel_pitch))


def reslice(cloud: PointCloud, z_center: float, thickness: float,
            grid: RasterGrid, closing_iterations: int = 2) -> SliceMask:
    """Rasterize the points inside a z band to a region mask.

    Points with |z - z_center| <= thickness/2 land in their containing
    pixel; a morphological closing then fills small interior gaps.
    Points outside the grid are dropped. z_center must be finite and
    thickness positive and finite.
    """
    if not np.isfinite(z_center):
        raise ValueError(f"z center must be finite, got {z_center}")
    if not 0 < thickness < np.inf:
        raise ValueError(f"thickness must be positive and finite, got {thickness}")
    pts = cloud.points
    band = np.abs(pts[:, 2] - z_center) <= thickness / 2.0
    ix = np.floor((pts[band, 0] - grid.origin[0]) / grid.pixel_pitch).astype(int)
    iy = np.floor((pts[band, 1] - grid.origin[1]) / grid.pixel_pitch).astype(int)
    ok = (ix >= 0) & (ix < grid.width) & (iy >= 0) & (iy < grid.height)
    bits = np.zeros((grid.height, grid.width), dtype=np.uint8)
    bits[iy[ok], ix[ok]] = 1
    return SliceMask(binary_close(bits, closing_iterations))


def _outside(inter: int, area: int) -> float:
    return 1.0 - inter / area


def d_mr_d_ct(mr_mask: SliceMask, ct_mask: SliceMask) -> tuple[float, float]:
    """Fraction of each region lying outside the common registration
    region: (1 - |A_MR & A_CT|/|A_MR|, 1 - |A_MR & A_CT|/|A_CT|)."""
    c = confusion(mr_mask, ct_mask)
    if c.tp + c.fp == 0 or c.tp + c.fn == 0:
        raise ValueError("zero-area mask")
    return _outside(c.tp, c.tp + c.fp), _outside(c.tp, c.tp + c.fn)


def slice_bands(z_lo: float, z_hi: float, slice_count: int) -> tuple[list[float], float]:
    """Centres of slice_count bands tiling [z_lo, z_hi] and their step (1 if flat)."""
    if slice_count < 1:
        raise ValueError("slice_count must be at least 1")
    span = z_hi - z_lo
    step = span / slice_count if span > 0 else 1.0
    return [z_lo + (i + 0.5) * step for i in range(slice_count)], step


@dataclass
class OverlapReport:
    """Aggregate slice-overlap scores plus the cloud RMSE. iou and dice
    come from confusion counts summed over all slices; d_mr and d_ct are
    means over the slices where the respective region is non-empty."""

    iou: float
    dice: float
    d_mr: float
    d_ct: float
    rmse: float
    per_slice: list[dict]


def overlap_report_to_dict(report: OverlapReport) -> dict:
    return {
        "iou": float(report.iou),
        "dice": float(report.dice),
        "d_mr": float(report.d_mr),
        "d_ct": float(report.d_ct),
        "rmse": float(report.rmse),
        "slices": report.per_slice,
    }


def evaluate_slices(moving: PointCloud, target: PointCloud,
                    slice_count: int = 8, thickness: float | None = None,
                    pixel_pitch: float | None = None,
                    closing_iterations: int = 2) -> OverlapReport:
    """Reslice both clouds over the joint z range and score the overlap.

    The moving (MR-side) cloud plays the predicted region, the target
    (CT-side) cloud the reference. Bands tile the joint z range
    (slice_bands); the default thickness equals the band step, the
    default pixel pitch is 1/128 of the larger x-y extent. A band's areas
    and intersection are its confusion counts tp + fp, tp + fn and tp.
    """
    rmse_value = rmse(moving, target)
    all_pts = np.vstack([moving.points, target.points])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    centers, step = slice_bands(lo[2], hi[2], slice_count)
    if thickness is None:
        thickness = step
    grid = RasterGrid.covering(lo, hi, pixel_pitch, closing_iterations)
    agg = np.zeros(4, dtype=np.int64)
    rows = []
    mr_vals = []
    ct_vals = []
    for z_center in centers:
        mr = reslice(moving, z_center, thickness, grid, closing_iterations)
        ct = reslice(target, z_center, thickness, grid, closing_iterations)
        c = confusion(mr, ct)
        agg += (c.tp, c.fp, c.fn, c.tn)
        a_mr, a_ct = c.tp + c.fp, c.tp + c.fn
        row = {"z_center": float(z_center), "a_mr": a_mr, "a_ct": a_ct}
        for key, area, vals in (("d_mr", a_mr, mr_vals), ("d_ct", a_ct, ct_vals)):
            if area > 0:
                row[key] = _outside(c.tp, area)
                vals.append(row[key])
        rows.append(row)
    total = ConfusionCounts(*(int(x) for x in agg))
    if not mr_vals or not ct_vals:
        raise ValueError("no slice contains bone content")
    return OverlapReport(iou=iou(total), dice=dice(total),
                         d_mr=float(np.mean(mr_vals)), d_ct=float(np.mean(ct_vals)),
                         rmse=rmse_value, per_slice=rows)
