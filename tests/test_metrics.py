import tracemalloc

import numpy as np
import pytest

from bonereg import (ConfusionCounts, PointCloud, RasterGrid, RigidTransform,
                     SliceMask, binary_close, confusion,
                     d_mr_d_ct, dice, evaluate_slices, iou, metrics, reslice, rmse)


def mask(bits):
    return SliceMask(bits=np.asarray(bits, dtype=np.uint8))


def brute_confusion(pred, truth):
    tp = fp = fn = tn = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p, t = pred[i, j], truth[i, j]
            if p and t:
                tp += 1
            elif p and not t:
                fp += 1
            elif not p and t:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def test_confusion_identity():
    bits = np.zeros((8, 8), dtype=np.uint8)
    bits[1:3, 2:7] = 1  # 10 bone pixels of 64
    c = confusion(mask(bits), mask(bits))
    assert (c.tp, c.tn, c.fp, c.fn) == (10, 54, 0, 0)


def test_confusion_all_missed():
    truth = np.zeros((8, 8), dtype=np.uint8)
    truth[0, :2] = 1
    truth[5, 3:8] = 1
    truth[7, 2:5] = 1  # 10 pixels
    c = confusion(mask(np.zeros((8, 8))), mask(truth))
    assert (c.fn, c.tn, c.tp, c.fp) == (10, 54, 0, 0)


def test_confusion_matches_pixel_loop():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pred = (rng.random((64, 64)) < 0.4).astype(np.uint8)
        truth = (rng.random((64, 64)) < 0.4).astype(np.uint8)
        c = confusion(mask(pred), mask(truth))
        assert (c.tp, c.fp, c.fn, c.tn) == brute_confusion(pred, truth)
        assert c.tp + c.fp + c.fn + c.tn == 64 * 64


def test_confusion_dimension_mismatch():
    with pytest.raises(ValueError):
        confusion(mask(np.zeros((2, 2))), mask(np.zeros((2, 3))))


def test_iou_dice_trivial():
    full = np.ones((4, 4), dtype=np.uint8)
    c = confusion(mask(full), mask(full))
    assert iou(c) == 1.0 and dice(c) == 1.0
    a = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0] = 1
    b = np.zeros((4, 4), dtype=np.uint8)
    b[3, 3] = 1
    c = confusion(mask(a), mask(b))
    assert iou(c) == 0.0 and dice(c) == 0.0


def test_iou_dice_partial_overlap():
    # 2x2 squares overlapping in 2 pixels: tp=2, fp=2, fn=2
    pred = np.zeros((4, 4), dtype=np.uint8)
    pred[0:2, 0:2] = 1
    truth = np.zeros((4, 4), dtype=np.uint8)
    truth[1:3, 0:2] = 1
    c = confusion(mask(pred), mask(truth))
    assert (c.tp, c.fp, c.fn) == (2, 2, 2)
    assert iou(c) == pytest.approx(1 / 3)
    assert dice(c) == pytest.approx(1 / 2)


def test_iou_dice_empty_error():
    c = ConfusionCounts(0, 0, 0, 16)
    with pytest.raises(ValueError):
        iou(c)
    with pytest.raises(ValueError):
        dice(c)


def test_iou_dice_ordering_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        truth = (rng.random((16, 16)) < 0.5).astype(np.uint8)
        c = confusion(mask(pred), mask(truth))
        if c.tp + c.fp + c.fn == 0:
            continue
        assert iou(c) <= dice(c) <= 1.0
        if iou(c) > 0:
            assert dice(c) >= iou(c)


def test_rmse_trivial():
    cloud = PointCloud(np.random.default_rng(3).random((20, 3)))
    assert rmse(cloud, cloud) == 0.0
    single = PointCloud(np.array([[5.0, 0.0, 0.0]]))
    target = PointCloud(np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]))
    assert rmse(single, target) == 5.0


def test_rmse_two_point_mean():
    moving = PointCloud(np.array([[0.0, 0, 0], [10.0, 0, 0]]))
    target = PointCloud(np.array([[1.0, 0, 0], [3.0, 0, 0]]))
    # nearest distances 1 and 7 -> sqrt((1+49)/2) = 5
    assert rmse(moving, target) == pytest.approx(5.0, abs=1e-12)


def test_rmse_empty_errors():
    empty = PointCloud(np.zeros((0, 3)))
    other = PointCloud(np.array([[0.0, 0, 0]]))
    with pytest.raises(ValueError):
        rmse(empty, other)
    with pytest.raises(ValueError):
        rmse(other, empty)


def test_rmse_rigid_invariance():
    rng = np.random.default_rng(4)
    moving = PointCloud(rng.normal(size=(50, 3)))
    target = PointCloud(rng.normal(size=(80, 3)))
    base = rmse(moving, target)
    t = RigidTransform.from_axis_angle((1, 1, 1), 0.8, (0.3, -0.2, 0.9))
    moved = rmse(PointCloud(t.apply(moving.points)), PointCloud(t.apply(target.points)))
    assert moved == pytest.approx(base, abs=1e-10)


def brute_close(bits, iterations):
    cur = bits.astype(bool)
    h, w = cur.shape

    def window_any(b, i, j):
        return any(b[ii, jj]
                   for ii in range(max(0, i - 1), min(h, i + 2))
                   for jj in range(max(0, j - 1), min(w, j + 2)))

    def window_all(b, i, j):
        # out of bounds counts as background
        for ii in range(i - 1, i + 2):
            for jj in range(j - 1, j + 2):
                if not (0 <= ii < h and 0 <= jj < w) or not b[ii, jj]:
                    return False
        return True

    for _ in range(iterations):
        cur = np.array([[window_any(cur, i, j) for j in range(w)] for i in range(h)])
    for _ in range(iterations):
        cur = np.array([[window_all(cur, i, j) for j in range(w)] for i in range(h)])
    return cur.astype(np.uint8)


def test_closing_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(5):
        bits = (rng.random((20, 20)) < 0.3).astype(np.uint8)
        for iterations in (1, 2):
            assert np.array_equal(binary_close(bits, iterations),
                                  brute_close(bits, iterations))
    # 1-pixel sides, dense content touching the border, bool input
    for h, w in ((1, 1), (1, 7), (6, 1), (2, 9), (11, 4)):
        for density in (0.3, 0.8, 1.0):
            bits = rng.random((h, w)) < density
            for iterations in range(6):
                for given in (bits, bits.astype(np.uint8)):
                    got = binary_close(given, iterations)
                    assert got.dtype == np.uint8
                    assert np.array_equal(got, brute_close(bits, iterations))


def test_closing_width_is_clamped(monkeypatch):
    # a huge iteration count sweeps no wider than the image allows, with
    # the result of n = max(h, w)
    bits = np.zeros((5, 7), dtype=np.uint8)
    bits[1:4, 2:6] = 1
    bits[2, 3] = 0
    widths = []
    sweep = metrics._sweep

    def recorded(lines, n, op):
        widths.append(n)
        return sweep(lines, n, op)

    monkeypatch.setattr(metrics, "_sweep", recorded)
    got = binary_close(bits, 10**6)
    assert widths == [7] * 4  # dilation and erosion, each along rows then columns
    assert np.array_equal(got, binary_close(bits, 7))
    assert np.array_equal(got, brute_close(bits, 7))


@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
def test_closing_a_stack_closes_each_slice(iterations):
    rng = np.random.default_rng(iterations)
    stack = (rng.random((2, 3, 18, 21)) < 0.3).astype(np.uint8)
    stack[0, 1] = 0  # a slice with no pixel set
    want = np.array([[binary_close(bits, iterations) for bits in row] for row in stack])
    for bits, closed in ((stack[0], want[0]), (stack, want)):
        got = binary_close(bits, iterations)
        assert got.dtype == np.uint8
        assert np.array_equal(got, closed)


def test_closing_fills_small_holes():
    # block kept clear of the image border: erosion treats out-of-bounds
    # as background, so touching the edge would shave it
    block = np.zeros((16, 16), dtype=np.uint8)
    block[3:13, 3:13] = 1
    holed = block.copy()
    holed[7:9, 7:9] = 0  # 2-pixel-wide hole
    closed = binary_close(holed, 2)
    assert np.array_equal(closed, block)
    # hollow ring: implementation equals the brute-force oracle
    ring = np.zeros((14, 14), dtype=np.uint8)
    ring[2:12, 2:12] = 1
    ring[3:11, 3:11] = 0
    assert np.array_equal(binary_close(ring, 2), brute_close(ring, 2))


@pytest.mark.parametrize("cells", [1, 7, 40, 400])
def test_closing_in_small_blocks_matches_one_block(monkeypatch, cells):
    # budgets of a few cells cut every sweep into many blocks of one or a
    # few lines, slices or columns, the last of them ragged
    rng = np.random.default_rng(cells)
    for shape in ((3, 11, 13), (13, 11)):
        bits = (rng.random(shape) < 0.4).astype(np.uint8)
        for iterations in (1, 2, 6, 30):
            monkeypatch.setattr(metrics, "_BLOCK_CELLS", cells)
            got = binary_close(bits, iterations)
            monkeypatch.setattr(metrics, "_BLOCK_CELLS", 1 << 30)
            assert np.array_equal(got, binary_close(bits, iterations))


@pytest.mark.parametrize("iterations", [2, 10**6])
def test_closing_working_memory_is_bounded(iterations):
    """numpy reports its buffers to tracemalloc, so the traced peak counts
    the result and every block temporary: about 1.2 times the mask's
    bytes on a 1024 x 1024 mask, where one block over the whole mask
    takes 4 times (n = 2) and 10 times (clamped n = 1024)."""
    bits = (np.random.default_rng(6).random((1024, 1024)) < 0.3).astype(np.uint8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        closed = binary_close(bits, iterations)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert closed.shape == bits.shape
    assert peak <= 2 * bits.nbytes


def test_import_leaves_scipy_ndimage_out(fresh_python):
    # closing is numpy alone, so no bonereg process loads scipy.ndimage
    probe = "import sys, bonereg, bonereg.cli; print('scipy.ndimage' in sys.modules)"
    assert fresh_python(probe).strip() == "False"


def test_import_leaves_scipy_out(fresh_python):
    # scipy.spatial loads with the first SpatialIndex, not with the package
    probe = ("import sys, bonereg, bonereg.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    assert fresh_python(probe).strip() == "[]"


def test_reslice_band_selection():
    pts = np.array([[0.5, 0.5, 0.0], [1.5, 0.5, 0.0], [2.5, 2.5, 0.0]])
    grid = RasterGrid(4, 4, 1.0)
    m = reslice(PointCloud(pts), 0.0, 1.0, grid, closing_iterations=0)
    assert m.bits[0, 0] == 1 and m.bits[0, 1] == 1 and m.bits[2, 2] == 1
    assert m.bits.sum() == 3
    empty = reslice(PointCloud(pts), 10.0, 1.0, grid, closing_iterations=0)
    assert empty.bits.sum() == 0


@pytest.mark.parametrize("width, height", [(10**5, 10**5), (4097, 4096), (1, (1 << 24) + 1)])
def test_grid_past_the_pixel_cap_is_refused(width, height):
    with pytest.raises(ValueError, match="pixels"):
        RasterGrid(width, height, 1.0)


def test_grid_at_the_pixel_cap_constructs():
    grid = RasterGrid(4096, 4096, 1.0)
    assert grid.width * grid.height == RasterGrid.MAX_PIXELS


def test_reslice_drops_points_outside_grid():
    pts = np.array([[-5.0, 0.5, 0.0], [0.5, 0.5, 0.0]])
    grid = RasterGrid(2, 2, 1.0)
    m = reslice(PointCloud(pts), 0.0, 1.0, grid, closing_iterations=0)
    assert m.bits.sum() == 1


def test_reslice_closing_oracle():
    # sparse square outline rasterized then closed
    t = np.linspace(0, 1, 40, endpoint=False)
    edges = []
    for a, b in (((0, 0), (9, 0)), ((9, 0), (9, 9)), ((9, 9), (0, 9)), ((0, 9), (0, 0))):
        seg = np.outer(1 - t, a) + np.outer(t, b)
        edges.append(seg)
    xy = np.vstack(edges) + 0.5
    pts = np.column_stack([xy, np.zeros(len(xy))])
    grid = RasterGrid(10, 10, 1.0)
    raw = reslice(PointCloud(pts), 0.0, 1.0, grid, closing_iterations=0)
    closed = reslice(PointCloud(pts), 0.0, 1.0, grid, closing_iterations=2)
    assert np.array_equal(closed.bits, brute_close(raw.bits, 2))


def test_d_mr_d_ct_values():
    a = np.zeros((12, 12), dtype=np.uint8)
    a[0:10, 0:10] = 1  # area 100
    b = np.zeros((12, 12), dtype=np.uint8)
    b[0:10, 0:8] = 1  # area 80, fully inside a
    d_mr, d_ct = d_mr_d_ct(mask(a), mask(b))
    assert d_mr == pytest.approx(0.2)
    assert d_ct == 0.0
    assert d_mr_d_ct(mask(a), mask(a)) == (0.0, 0.0)
    c = np.zeros((12, 12), dtype=np.uint8)
    c[11, 11] = 1
    assert d_mr_d_ct(mask(a), mask(c)) == (1.0, 1.0)


def test_d_mr_d_ct_zero_area():
    a = np.ones((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="zero-area"):
        d_mr_d_ct(mask(a), mask(np.zeros((4, 4))))


def test_evaluate_slices_self():
    rng = np.random.default_rng(6)
    z = rng.uniform(-1, 1, 3000)
    ang = rng.uniform(0, 2 * np.pi, 3000)
    r = np.sqrt(1 - z * z)
    cloud = PointCloud(np.column_stack([r * np.cos(ang), r * np.sin(ang), z]))
    report = evaluate_slices(cloud, cloud, slice_count=6)
    assert report.rmse == 0.0
    assert report.d_mr == 0.0 and report.d_ct == 0.0
    assert report.iou == 1.0 and report.dice == 1.0
    assert all(row.get("d_mr", 0.0) == 0.0 for row in report.per_slice)


def test_evaluate_slices_disjoint():
    rng = np.random.default_rng(7)
    a = PointCloud(rng.random((500, 3)))
    b = PointCloud(rng.random((500, 3)) + np.array([50.0, 50.0, 0.0]))
    report = evaluate_slices(a, b, slice_count=4)
    assert report.d_mr == 1.0 and report.d_ct == 1.0
    assert report.iou == 0.0
