"""Property tests: the spatial and correspondence kernels against
brute-force loops that use the same numpy distance arithmetic, so results
must agree exactly, ties included."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from bonereg import SpatialIndex, d_s
from bonereg.registration import _ball_table, _correspond_arrays

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


@example(EQUIDISTANT)
@given(nearest_cases())
def test_nearest_matches_scan_and_tree(case):
    pts, queries = case
    idx, dist = SpatialIndex(pts).nearest(queries)
    assert idx.tolist() == [brute_knn(pts, q, 1)[0] for q in queries]
    assert dist.tobytes() == cKDTree(pts).query(queries, k=1)[0].tobytes()


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


@given(st.data(), clouds(min_n=1, max_n=30), radii,
       st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 3))
def test_correspond_arrays_matches_loop(data, tgt, r, weights):
    moving = data.draw(queries_for(tgt))
    moving_sph = data.draw(features(len(moving)))
    tgt_sph = data.draw(features(len(tgt)))
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
