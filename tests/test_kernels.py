"""Property tests: the spatial and correspondence kernels against
brute-force loops that use the same numpy distance arithmetic, so results
must agree exactly, ties included; the feature pass under rigid motion;
the blocked kernels against one block; and mask closing against a
pixel-by-pixel loop."""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from bonereg import (CsnIcpConfig, PhantomSpec, PointCloud, RigidTransform, SpatialIndex,
                     binary_close, csn_icp, d_s, make_phantom, partition_register,
                     report_to_dict)
from bonereg import registration
from bonereg.geometry import _feature_arrays
from bonereg.registration import _ball_table, _correspond_arrays, _target_tables
from test_metrics import brute_close

coords = st.floats(-4.0, 4.0, allow_nan=False, width=64)


def clouds(min_n=1, max_n=40):
    """Random real clouds, or points of a small integer lattice, where
    repeated points and equal distances are the rule."""
    n = st.integers(min_n, max_n)
    real = n.flatmap(lambda m: arrays(np.float64, (m, 3), elements=coords))
    lattice = n.flatmap(lambda m: arrays(np.int64, (m, 3), elements=st.integers(0, 3))
                        ).map(lambda a: a.astype(float))
    return st.one_of(real, lattice)


def queries_for(pts):
    """Query points: a mix of cloud points, half-lattice points and
    arbitrary points."""
    half = st.integers(-2, 8).map(lambda v: v / 2.0)
    point = st.one_of(st.sampled_from(list(map(tuple, pts))),
                      st.tuples(half, half, half), st.tuples(coords, coords, coords))
    return st.lists(point, min_size=1, max_size=12).map(lambda q: np.array(q, dtype=float))


def sq_dists(pts, q):
    diff = pts - q
    return np.sum(diff * diff, axis=1)


def brute_knn(pts, q, k):
    return np.lexsort((np.arange(len(pts)), sq_dists(pts, q)))[:k]


def brute_ball(pts, c, r):
    return np.nonzero(sq_dists(pts, c) <= r * r)[0]


@st.composite
def knn_cases(draw):
    pts = draw(clouds())
    return pts, draw(queries_for(pts)), draw(st.integers(1, len(pts)))


@st.composite
def nearest_cases(draw):
    pts = draw(clouds())
    return pts, draw(queries_for(pts))


# the k-d tree returns these two equidistant points highest index first
EQUIDISTANT = (np.array([[2.0, 2.0, 1.0], [1.0, 0.0, 2.0]]), np.array([[0.0, 1.0, 0.0]]))


@example(EQUIDISTANT + (1,))
@given(knn_cases())
def test_knn_batch_matches_scan(case):
    pts, queries, k = case
    got = SpatialIndex(pts).knn_batch(queries, k)
    want = np.array([brute_knn(pts, q, k) for q in queries])
    assert np.array_equal(got, want)


# every point of a 4 x 4 x 4 lattice; at k = 9 the 9th distance from a
# lattice point (12 at sqrt 2) or a cell centre (24 at sqrt 2.75) ties
# past the window of k + 8, and a cell centre's 8 nearest tie for nearest
LATTICE = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def test_tie_fallback_takes_its_balls_from_ball_batch(monkeypatch):
    queries = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 2.0], [1.5, 1.5, 1.5]])
    index = SpatialIndex(LATTICE)
    balls = []
    ball_batch = SpatialIndex.ball_batch
    monkeypatch.setattr(SpatialIndex, "ball_batch",
                        lambda self, c, r: balls.append(len(c)) or ball_batch(self, c, r))
    got = index.knn_batch(queries, 9)
    assert got.tolist() == [brute_knn(LATTICE, q, 9).tolist() for q in queries]
    assert balls == [3]
    idx, dist, _ = index.nearest(queries)
    assert idx.tolist() == [brute_knn(LATTICE, q, 1)[0] for q in queries]
    assert dist.tolist() == [0.0, 0.0, 0.75 ** 0.5]
    assert balls == [3, 1]


@example(EQUIDISTANT)
@given(nearest_cases())
def test_nearest_matches_scan_and_tree(case):
    pts, queries = case
    idx, dist, _ = SpatialIndex(pts).nearest(queries)
    assert idx.tolist() == [brute_knn(pts, q, 1)[0] for q in queries]
    assert dist.tobytes() == cKDTree(pts).query(queries, k=1)[0].tobytes()


def signed_permutations():
    """Rotations that map the integer lattice onto itself."""
    def matrix(perm, signs):
        r = np.eye(3)[list(perm)] * np.array(signs, dtype=float)[:, None]
        r[2] *= np.linalg.det(r)
        return r
    return st.builds(matrix, st.permutations(range(3)), st.tuples(*[st.sampled_from([-1, 1])] * 3))


def moves():
    """Steps of a moving query set: identity, a return to the previous
    positions, tiny and large rigid motions, and lattice motions (signed
    axis permutations plus half-integer shifts) that keep exact ties."""
    tiny = st.floats(-1e-9, 1e-9)
    half = st.integers(-4, 4).map(lambda v: v / 2.0)
    axis = st.tuples(coords, coords, coords).filter(lambda a: np.linalg.norm(a) > 1e-3)
    rigid = st.builds(RigidTransform.from_axis_angle, axis,
                      st.one_of(tiny, st.floats(-np.pi, np.pi)),
                      st.one_of(st.tuples(tiny, tiny, tiny), st.tuples(coords, coords, coords)))
    lattice = st.builds(RigidTransform, signed_permutations(), st.tuples(half, half, half))
    return st.one_of(st.just("identity"), st.just("reverse"), rigid, lattice)


@st.composite
def nearest_chains(draw):
    pts = draw(clouds())
    return (pts, draw(queries_for(pts)), draw(st.lists(moves(), min_size=1, max_size=6)),
            draw(st.sampled_from([0.0, 1e3])))


@example(EQUIDISTANT + (["identity", "reverse"], 0.0))
@given(nearest_chains())
def test_nearest_certificate_matches_scan_and_tree(case):
    """A chain of poses, each query carrying the last one's certificate,
    gives the brute-force nearest and the tree's own distance at every
    pose; an unmoved query set sends no row to the tree. The cloud and the
    queries may sit 1e3 from the origin."""
    pts, pose, steps, offset = case
    target = pts + offset
    index, tree = SpatialIndex(target), cKDTree(target)
    sent = []
    ranked = index._ranked
    index._ranked = lambda q, k, pad: sent.append(len(q)) or ranked(q, k, pad)
    previous, cert = pose, None
    for step in [None] + steps:
        if step == "identity":
            new = pose
        elif step == "reverse":
            new = previous
        else:
            new = pose if step is None else step.apply(pose)
        queries = new + offset
        sent.clear()
        idx, dist, cert = index.nearest(queries, cert)
        assert idx.tolist() == [brute_knn(target, q, 1)[0] for q in queries]
        assert dist.tobytes() == tree.query(queries, k=1)[0].tobytes()
        if new is pose and step is not None:
            assert sent == []
        previous, pose = pose, new


def test_nearest_certificate_skips_most_rows_after_a_small_move():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(500, 3))
    index = SpatialIndex(pts)
    queries = pts[:200] + rng.normal(scale=0.01, size=(200, 3))
    cert = index.nearest(queries)[2]
    sent = []
    ranked = index._ranked
    index._ranked = lambda q, k, pad: sent.append(len(q)) or ranked(q, k, pad)
    moved = RigidTransform.from_axis_angle((1.0, 2.0, 0.5), 1e-3, (1e-3, 0.0, 0.0)).apply(queries)
    idx, dist, _ = index.nearest(moved, cert)
    assert idx.tolist() == [brute_knn(pts, q, 1)[0] for q in moved]
    assert dist.tobytes() == cKDTree(pts).query(moved, k=1)[0].tobytes()
    assert sum(sent) < 20


def test_nearest_empty_index_raises():
    with pytest.raises(ValueError, match=r"k=1 outside 1\.\.0"):
        SpatialIndex(np.zeros((0, 3))).nearest(np.zeros((1, 3)))


radii = st.one_of(st.floats(1e-6, 3.0), st.sampled_from([0.5, 1.0, 2.0 ** 0.5, 2.0]))


@given(st.data(), clouds())
def test_ball_batch_matches_scan(data, pts):
    centers = data.draw(queries_for(pts))
    per_center = data.draw(st.lists(radii, min_size=len(centers), max_size=len(centers)))
    index = SpatialIndex(pts)
    for radius in (per_center[0], np.array(per_center)):
        got = index.ball_batch(centers, radius)
        rs = np.broadcast_to(radius, len(centers))
        assert len(got) == len(centers)
        for ball, c, r in zip(got, centers, rs):
            assert ball.tolist() == brute_ball(pts, c, r).tolist()


@given(clouds(), radii)
def test_ball_table_matches_scan(pts, r):
    indptr, indices = _ball_table(SpatialIndex(pts), r)
    assert indptr.dtype == np.int64 and indices.dtype == np.int32
    assert indptr[0] == 0 and indptr[-1] == indices.size
    for j, c in enumerate(pts):
        assert indices[indptr[j]:indptr[j + 1]].tolist() == brute_ball(pts, c, r).tolist()


def features(n):
    """(r, phi, theta) triples from coarse grids, so equal feature
    distances occur often."""
    r = st.sampled_from([0.0, 0.05, 0.1, 1.0 / 3.0])
    phi = st.sampled_from([-np.pi / 2, 0.0, 1.0, np.pi / 2, np.pi])
    theta = st.sampled_from([0.0, 0.5, np.pi / 2, np.pi])
    return st.lists(st.tuples(r, phi, theta), min_size=n, max_size=n).map(np.array)


weights_grid = st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3)


@st.composite
def correspond_cases(draw):
    tgt = draw(clouds(min_n=1, max_n=30))
    moving = draw(queries_for(tgt))
    return (tgt, moving, draw(features(len(moving))), draw(features(len(tgt))),
            draw(radii), draw(weights_grid))


# two targets with equal features inside one ball; the moving point is
# nearest the higher index, so only the primary preference picks it over
# the lower one
TIED_PRIMARY = (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.array([[0.9, 0.0, 0.0]]),
                np.array([[0.1, 0.0, 0.5]]), np.array([[0.05, 1.0, 0.0]] * 2),
                2.0, (1.0, 1.0, 1.0))


@example(TIED_PRIMARY)
@given(correspond_cases())
def test_correspond_arrays_matches_loop(case):
    tgt, moving, moving_sph, tgt_sph, r, weights = case
    index = SpatialIndex(tgt)
    chosen, dc, ds = _correspond_arrays(moving, moving_sph, index.nearest(moving)[0], tgt,
                                        tgt_sph, _ball_table(index, r), weights)
    for i, q in enumerate(moving):
        primary = brute_knn(tgt, q, 1)[0]
        ball = brute_ball(tgt, tgt[primary], r)
        cand_ds = d_s(moving_sph[i], tgt_sph[ball], weights)
        best = np.lexsort((ball, ball != primary, cand_ds))[0]
        assert chosen[i] == ball[best]
        assert ds[i] == cand_ds[best]
        assert dc[i] == np.sqrt(sq_dists(tgt[ball[best]][None], q)[0])


PHANTOM = make_phantom(PhantomSpec("two_lobe_pelvis", 400, 9)).points
PHANTOM_NBR = SpatialIndex(PHANTOM).knn_batch(PHANTOM, 20)


@given(st.builds(RigidTransform.from_axis_angle,
                 st.tuples(coords, coords, coords).filter(lambda a: np.linalg.norm(a) > 1e-3),
                 st.floats(-np.pi, np.pi), st.tuples(coords, coords, coords)))
def test_features_follow_rigid_motion(move):
    """The invariant behind estimating source features once per run: on
    the same neighborhoods, a moved cloud has the same curvature and its
    normals turned by the rotation. A normal may flip only where its
    dot product with the offset from the cloud centroid is within 1e-9
    of zero. Each normal is the least-variance direction of its
    neighborhood, with curvature the smallest eigenvalue's share."""
    moved = move.apply(PHANTOM)
    normals, curvature = _feature_arrays(PHANTOM, PHANTOM_NBR, PHANTOM - PHANTOM.mean(axis=0))
    moved_normals, moved_curvature = _feature_arrays(moved, PHANTOM_NBR,
                                                     moved - moved.mean(axis=0))
    assert np.abs(moved_curvature - curvature).max() <= 1e-9
    turned = normals @ move.rotation.T
    same = np.linalg.norm(moved_normals - turned, axis=1) <= 1e-9
    flipped = np.linalg.norm(moved_normals + turned, axis=1) <= 1e-9
    side = np.einsum("ni,ni->n", normals, PHANTOM - PHANTOM.mean(axis=0))
    assert (same | (flipped & (np.abs(side) < 1e-9))).all()
    nb = PHANTOM[PHANTOM_NBR]
    centered = nb - nb.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered)
    least = curvature * np.trace(cov, axis1=1, axis2=2)
    res = np.linalg.norm(np.einsum("nij,nj->ni", cov, normals) - least[:, None] * normals, axis=1)
    assert (res <= 1e-9 * np.linalg.norm(cov, axis=(1, 2))).all()


@contextlib.contextmanager
def budget(rows, pairs):
    """Run the blocked kernels with this working-memory budget."""
    saved = registration._BLOCK_ROWS, registration._BLOCK_PAIRS
    registration._BLOCK_ROWS, registration._BLOCK_PAIRS = rows, pairs
    try:
        yield
    finally:
        registration._BLOCK_ROWS, registration._BLOCK_PAIRS = saved


@st.composite
def block_cases(draw):
    """A row and a pair budget of a few units, and target and moving clouds
    whose sizes sit one below, at or one above a multiple of the row
    budget."""
    rows, pairs = draw(st.integers(2, 9)), draw(st.integers(1, 12))

    def size():
        return rows * (draw(st.integers(110, 160)) // rows) + draw(st.sampled_from([-1, 0, 1]))

    target = make_phantom(PhantomSpec("two_lobe_pelvis", size(), draw(st.integers(0, 99))))
    source = make_phantom(PhantomSpec("two_lobe_pelvis", size(), draw(st.integers(0, 99))))
    move = RigidTransform.from_axis_angle((0.3, 1.0, 0.2), draw(st.floats(0.0, 0.2)),
                                          (0.02, -0.01, 0.03))
    return rows, pairs, target, PointCloud(move.apply(source.points))


def raw(*arrays) -> list[bytes]:
    return [a.dtype.str.encode() + a.tobytes() for a in arrays]


@settings(max_examples=25, deadline=None)
@example((2, 1, make_phantom(PhantomSpec("two_lobe_pelvis", 101, 3)),
          make_phantom(PhantomSpec("two_lobe_pelvis", 100, 4))))
@given(block_cases())
def test_blocks_match_one_block(case):
    """The feature pass, the ball table and matching in many small blocks
    with ragged ends give the single-block outputs byte for byte, and so
    do csn_icp and partition_register runs on fresh copies of the target
    (a target keeps its tables, which were built under one budget). The
    blocked run goes first, so a row it left unwritten holds memory of an
    earlier example, not the single-block answer."""
    rows, pairs, target, source = case
    k, r_th = 6, 0.2 * target.bbox_diagonal()
    configs = [CsnIcpConfig(k=k, r_th=r_th, max_iterations=4, partitions=p) for p in (1, 2)]
    assert min(len(target), len(source)) > 3 * rows

    def run():
        index = SpatialIndex(target)
        tgt_sph, balls = _target_tables(index, k, r_th)
        moving_sph = _target_tables(SpatialIndex(source), k, r_th)[0]
        matched = _correspond_arrays(source.points, moving_sph, index.nearest(source.points)[0],
                                     target.points, tgt_sph, balls, (1.0, 0.5, 2.0))
        reports = [register(source, PointCloud(target.points.copy()), config)
                   for register, config in zip((csn_icp, partition_register), configs)]
        return (raw(tgt_sph, *balls, *matched),
                [json.dumps(report_to_dict(r)) for r in reports])

    with budget(rows, pairs):
        got = run()
    with budget(1 << 30, 1 << 62):  # one block
        want = run()
    assert got == want


@st.composite
def mask_stacks(draw):
    """(d, h, w) 0/1 stacks of 1-3 slices, sides 1-12 and any density."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    density = draw(st.floats(0.0, 1.0))
    return draw(arrays(np.uint8, shape, elements=st.floats(0.0, 1.0).map(lambda u: u < density)))


@given(mask_stacks(), st.integers(0, 20))
def test_closing_matches_brute_force_per_slice(bits, iterations):
    """Iterations run past max(h, w), where the sweep width is clamped."""
    got = binary_close(bits, iterations)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.array([brute_close(b, iterations) for b in bits]))
