"""Evaluation metrics: confusion-matrix overlap scores, point-cloud RMSE,
and slice-level region disagreement computed on resliced masks.

One band plan (band_plan) lays out the z bands and the raster grid for
both evaluate_slices and the reslice command. evaluate_slices checks its
arguments through that plan and the first reslice before it builds the
target's k-d tree, and computes the RMSE last, so a refused call never
imports scipy.

Masks are closed in numpy (binary_close): each pass of the square is a
window sweep along rows, then columns, over fixed-size blocks of lines,
so closing holds the result plus one block's temporaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# the working-memory budget of a closing sweep: padded cells per block of lines
_BLOCK_CELLS = 1 << 16


def _sweep(lines: np.ndarray, n: int, op) -> None:
    """In place along axis 1 of lines, a bool array (p, length, q): each
    cell becomes op (logical or, or and) over the window [i - n, i + n],
    with cells past either end counting as background. Blocks of lines
    along axes 0 and 2 are copied into a zero-padded buffer of about
    _BLOCK_CELLS cells (one line if it is longer), where a sparse table
    doubles the span covered by each cell, 1, 2, 4, ... up to the largest
    power of two within the 2n + 1 window; two overlapping spans then
    cover the window."""
    p, length, q = lines.shape
    padded = length + 2 * n
    per_block = max(1, _BLOCK_CELLS // padded)
    qb = min(q, per_block)
    pb = max(1, per_block // qb)
    buf = np.zeros((min(p, pb), padded, qb), dtype=bool)
    span = 1 << (2 * n + 1).bit_length() - 1
    tail = 2 * n + 1 - span
    for p0 in range(0, p, pb):
        for q0 in range(0, q, qb):
            part = lines[p0:p0 + pb, :, q0:q0 + qb]
            t = buf[:part.shape[0], :, :part.shape[2]]
            t[:, n:n + length] = part
            s = 1
            while s < span:
                t = op(t[:, :-s], t[:, s:])
                s *= 2
            op(t[:, :length], t[:, tail:tail + length], out=part)


def binary_close(bits: np.ndarray, iterations: int = 2) -> np.ndarray:
    """Morphological closing of each 2-D slice of bits, shape (..., h, w):
    dilate, then erode, iterations times each by a 3x3 square with
    out-of-bounds as background. n steps by the 3x3 square are one by the
    (2n+1) square, and past n = max(h, w) nothing changes, so n is clamped
    there. The square is separable: each pass is an or (dilation) or and
    (erosion) _sweep along rows, then along columns, of one bool copy of
    bits, which becomes the uint8 result.

    Working memory is that result plus a block of at most _BLOCK_CELLS
    padded cells (one padded line, h + 2n or w + 2n cells, if longer) and
    the temporaries the sweep makes from it, each no larger. A sweep makes
    about log2(2n + 1) array passes over lines padded by 2n cells, so cost
    grows with n: at the clamp on a 1024 x 1024 mask each sweep makes 11
    passes over three times the mask, and closing takes 5 to 6 times as
    long as at n = 2."""
    if iterations <= 0 or bits.size == 0:
        return bits.astype(np.uint8)
    h, w = bits.shape[-2:]
    n = min(iterations, max(h, w))
    out = bits.astype(bool, order="C")
    rows, cols = out.reshape(-1, w, 1), out.reshape(-1, h, w)
    for op in (np.logical_or, np.logical_and):
        _sweep(rows, n, op)
        _sweep(cols, n, op)
    return out.view(np.uint8)


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
        width, height = cls.size_covering(lo, hi, pixel_pitch, margin)
        return cls(width, height, pixel_pitch,
                   (lo[0] - margin * pixel_pitch, lo[1] - margin * pixel_pitch))

    @classmethod
    def size_covering(cls, lo, hi, pixel_pitch: float, margin: int) -> tuple[int, int]:
        """Width and height of the grid at pixel_pitch whose pixel columns
        and rows floor((x - lo) / pixel_pitch) cover the x-y box lo..hi,
        plus margin pixels on every side; a ValueError naming the size if
        that is over MAX_PIXELS. Counted in Python floats, so a span that
        overflows is inf, not an error; a margin past the cap fails it at
        any size, so it is clamped before it meets a float."""
        width, height = (np.floor(float(hi[i] - lo[i]) / pixel_pitch) + 1
                         + 2 * min(margin, cls.MAX_PIXELS) for i in (0, 1))
        if width * height > cls.MAX_PIXELS:
            raise ValueError(f"{width:.0f} x {height:.0f} grid at pixel pitch {pixel_pitch:g}"
                             f" with a {margin}-pixel margin: over {cls.MAX_PIXELS} pixels")
        return int(width), int(height)


def band_plan(lo, hi, slice_count: int, thickness: float | None = None,
              pixel_pitch: float | None = None,
              closing_iterations: int = 2) -> tuple[list[float], float, RasterGrid]:
    """The bands scored over the box lo..hi: the centres of slice_count
    bands tiling its z range at step span / slice_count (1 if flat), the
    band thickness (the step unless given) and the RasterGrid.covering
    grid. thickness itself is checked by reslice."""
    if slice_count < 1:
        raise ValueError("slice_count must be at least 1")
    span = hi[2] - lo[2]
    step = span / slice_count if span > 0 else 1.0
    grid = RasterGrid.covering(lo, hi, pixel_pitch, closing_iterations)
    centres = [lo[2] + (i + 0.5) * step for i in range(slice_count)]
    return centres, step if thickness is None else thickness, grid


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
    """Reslice both clouds over their joint bounding box and score the
    overlap.

    The moving (MR-side) cloud plays the predicted region, the target
    (CT-side) cloud the reference. band_plan lays the bands and grid over
    the joint box: the bands tile its z range, the default thickness
    equals the band step, the default pixel pitch is 1/128 of the larger
    x-y extent. A band's areas and intersection are its confusion counts
    tp + fp, tp + fn and tp.

    band_plan and the first reslice check every argument, so a bad one is
    refused before the target's k-d tree is built: the RMSE comes last.
    """
    if len(moving) == 0 or len(target) == 0:
        raise ValueError("empty cloud")
    (lo_m, hi_m), (lo_t, hi_t) = moving.bounding_box(), target.bounding_box()
    centers, thickness, grid = band_plan(np.minimum(lo_m, lo_t), np.maximum(hi_m, hi_t),
                                         slice_count, thickness, pixel_pitch,
                                         closing_iterations)
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
                         rmse=rmse(moving, target), per_slice=rows)
