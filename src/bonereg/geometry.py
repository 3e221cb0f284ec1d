"""Spatial queries and local surface features.

Each point gets a unit normal and curvature from the eigendecomposition
of its k-neighborhood covariance (_feature_arrays), and the normal's
spherical angles (_angles). Rigid motion keeps curvature and the normal's
sign rule, and only rotates the normal, so a moving cloud's features are
estimated once and its angles read from its rotated normals.

Matching uses two distances: d_c, plain Euclidean distance, and d_s, a
weighted L1 distance on the (curvature, phi, theta) feature triples with
the azimuth difference wrapped onto the circle.

Every query goes through one batched kernel on SpatialIndex: knn_batch
for k nearest neighbors, nearest for the single nearest neighbor and its
distance, ball_batch for fixed-radius balls.

Queries are deterministic: results match a brute-force scan with plain
numpy arithmetic exactly, ties resolving to the lowest point index. A
k-NN query takes a window of k + 8 candidates from the k-d tree,
recomputes their squared distances with _sq_dist, and re-sorts by
(squared distance, index) only the rows where the tree's order differs
from that one. A row whose k-th distance ties the window's last is
settled by a ball_batch query over the whole tie group, ranked the same
way. nearest runs the same re-rank and fallback on a window of 2: a
point outside the window is at least as far as the window's last in the
tree's arithmetic, so it can only tie the nearest when the window's two
numpy distances are within 1e-12 of each other, and those rows take the
fallback. A ball query keeps the tree's candidates whose _sq_dist is
within the squared radius. The tree gives only indices: every distance
the module returns is a _sq_dist value or its square root, which equal
the tree's own bit for bit.

nearest also returns a certificate for the same rows at their next
positions (a cached k-d tree search, Nuechter, Lingemann & Hertzberg
2007, kept exact): per row, the query the tree last answered (its
anchor), the answer, and the window's second distance, a lower bound
on the anchor's distance to every other indexed point. A moved row keeps
its answer without a tree search when it equals its anchor, or when its
distance to the answer plus its distance from the anchor is below the
bound by a margin wider than the fallback's 1e-12, so a row whose answer
is not the window's first point is never kept that way.

A PointCloud's points are read-only, so what is derived from them stays
valid while the cloud lives: cloud_index gives each live cloud one
SpatialIndex, and cloud_tables keeps one more set of tables beside it.
Both are kept in a weak-keyed memo and go with the cloud.

The k-d tree is scipy's cKDTree, imported when the first SpatialIndex is
built: importing scipy.spatial costs more memory and start-up time than
numpy itself, and a process that builds no index (build-cloud, reslice,
synth) never loads it.

Working memory: a kernel's temporaries grow with the rows it is given
(a k-NN query holds its (m, k + 8) window and the (m, k + 8, 3) gather,
a ball query its candidates, _feature_arrays the (m, k, 3)
neighborhoods), and registration hands them one block of rows at a
time, so none spans more than one block. What a run keeps spans the
whole cloud: the tree, the per-point features, and the r_th-ball table,
which grows with n times the mean ball size.
"""

from __future__ import annotations

import weakref
from itertools import chain

import numpy as np

from .cloud import PointCloud

TWO_PI = 2.0 * np.pi

# extra neighbors fetched so boundary distance ties can be detected. A
# row whose window's last distance ties its k-th goes to the per-row
# fallback: on a 3,698-point cloud of CT voxel centres at k = 20, 31% of
# rows do at pad 1, 6.4% at 2, 0.4% at 4 and none at 8. nearest (k = 1)
# takes a pad of 1, as its window's two distances seldom tie.
_TIE_PAD = 8
# radius inflation covering kd-tree rounding at the boundary
_R_INFLATE = 1.0 + 1e-9
# absolute slack of the nearest certificate: keeps the squared distances
# it relies on clear of floating-point underflow. Every distance is taken
# from coordinate differences, so its rounding is relative to itself
# (covered by _R_INFLATE) however far the points are from the origin.
_CERT_SLACK = 1e-100


class SpatialIndex:
    """Immutable k-d tree over a cloud's points (or a raw (n, 3) array)."""

    def __init__(self, cloud):
        pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("index needs points of shape (n, 3)")
        self.points = pts
        from scipy.spatial import cKDTree  # scipy loads with the first index
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def knn_batch(self, queries: np.ndarray, k: int) -> np.ndarray:
        """(m, k) neighbor indices for m query points, each row sorted by
        (distance, index)."""
        return self._ranked(queries, k, _TIE_PAD)[0]

    def nearest(self, queries: np.ndarray, prior: tuple | None = None) -> tuple:
        """(idx, dist, cert) for m query points: idx the lowest-index
        nearest neighbor, as knn_batch(queries, 1)[:, 0]; dist its distance,
        d_c bit for bit; cert the certificate to pass as prior with the
        same rows at their next positions, so rows whose answer provably
        stands skip the tree."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        if prior is None:
            m = queries.shape[0]
            anchors, idx, dist, bound = np.empty((m, 3)), np.empty(m, np.int64), \
                np.empty(m), np.empty(m)
            rows = np.arange(m)
        else:
            anchors, idx, bound = (a.copy() for a in prior)
            dist = d_c(np.take(self.points, idx, axis=0), queries)
            kept = (dist + d_c(queries, anchors)) * _R_INFLATE + _CERT_SLACK < bound
            rows = np.flatnonzero(~kept)
            # an unmoved query keeps its answer, ties included
            rows = rows[(queries[rows] != anchors[rows]).any(axis=1)]
        if prior is None or rows.size:
            near, d2 = self._ranked(queries[rows], 1, 1)
            idx[rows] = near[:, 0]
            dist[rows] = np.sqrt(d2[:, 0])
            bound[rows] = np.sqrt(d2[:, 1]) if len(self) > 1 else np.inf
            anchors[rows] = queries[rows]
        return idx, dist, (anchors, idx, bound)

    def _ranked(self, queries: np.ndarray, k: int, pad: int):
        """(m, k) exact neighbor indices from a window of k + pad tree
        candidates, and the window's (m, k + pad) _sq_dist values in
        (squared distance, index) order."""
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} outside 1..{n}")
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        m = queries.shape[0]
        kq = min(k + pad, n)
        idx = self._tree.query(queries, k=kq)[1].reshape(m, kq)
        d2 = _sq_dist(np.take(self.points, idx, axis=0), queries[:, None, :])
        # the tree ranks by its own distance arithmetic; few rows disagree
        lo, hi = d2[:, :-1], d2[:, 1:]
        bad = np.nonzero(((hi < lo) | ((hi == lo) & (idx[:, 1:] < idx[:, :-1]))).any(axis=1))[0]
        if bad.size:
            order = np.lexsort((idx[bad], d2[bad]), axis=1)
            idx[bad] = np.take_along_axis(idx[bad], order, axis=1)
            d2[bad] = np.take_along_axis(d2[bad], order, axis=1)
        out = idx[:, :k].copy()
        if kq < n:
            # a tie group at the k-th distance may extend past the window
            unsure = np.nonzero(d2[:, -1] <= d2[:, k - 1] * (1.0 + 1e-12))[0]
            if unsure.size:
                # inflated, as the square of a square root can round below
                # d2, and ball_batch keeps only d² <= radius²
                radii = np.sqrt(d2[unsure, k - 1]) * _R_INFLATE
                for row, ball in zip(unsure, self.ball_batch(queries[unsure], radii)):
                    # a ball is ascending, so a stable sort gives (d², index) order
                    d2_ball = _sq_dist(self.points[ball], queries[row])
                    out[row] = ball[np.argsort(d2_ball, kind="stable")[:k]]
        return out, d2

    def ball_batch(self, centers: np.ndarray, radius) -> list[np.ndarray]:
        """Per-center index arrays of all points within radius (inclusive),
        each ascending."""
        centers = np.asarray(centers, dtype=float).reshape(-1, 3)
        m = centers.shape[0]
        lists = self._tree.query_ball_point(centers, np.asarray(radius) * _R_INFLATE,
                                            return_sorted=True)
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=m)
        cand = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(counts.sum()))
        rows = np.repeat(np.arange(m), counts)
        r2 = np.broadcast_to(np.square(radius), m)
        keep = _sq_dist(self.points[cand], centers[rows]) <= r2[rows]
        kept = np.bincount(rows[keep], minlength=m)
        return np.split(cand[keep], np.cumsum(kept)[:-1]) if m else []


# cloud -> [its SpatialIndex, (build, args), the tables they built], keyed
# by the cloud object (PointCloud hashes by identity); a value must not
# refer to its cloud, or the cloud would never be collected
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _derived(cloud: PointCloud) -> list:
    state = _DERIVED.get(cloud)
    if state is None:
        state = _DERIVED[cloud] = [SpatialIndex(cloud), None, None]
    return state


def cloud_index(cloud: PointCloud) -> SpatialIndex:
    """The cloud's SpatialIndex, built on the first call and kept for as
    long as the cloud lives."""
    return _derived(cloud)[0]


def cloud_tables(cloud: PointCloud, build, *args):
    """build(cloud_index(cloud), *args), kept with the cloud's index and
    returned again while build and args stay the same; a call with others
    builds its tables and keeps them in place of the old ones."""
    state = _derived(cloud)
    if state[1] != (build, args):
        state[1:] = (build, args), build(state[0], *args)
    return state[2]


def jacobi_eigh3(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of symmetric 3x3 matrices, one or batched over
    leading dimensions, by LAPACK (np.linalg.eigh): (eigenvalues sorted
    descending, eigenvectors in the matching columns). The name predates
    LAPACK and stays because bench/tracing.py patches the function by it."""
    a = np.asarray(mats, dtype=float)
    if a.shape[-2:] != (3, 3):
        raise ValueError("expected 3x3 matrices")
    vals, vecs = np.linalg.eigh(a)
    return vals[..., ::-1], vecs[..., ::-1]


def _canonical_sign(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Flip normals so they point away from the whole-cloud centroid, given
    each point's offset from it; exact ties fall back to nz >= 0, then
    ny >= 0, then nx >= 0."""
    d = np.einsum("ni,ni->n", normals, offsets)
    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    tie = d == 0.0
    flip = (d < 0.0) | (tie & ((nz < 0.0)
                               | ((nz == 0.0) & ((ny < 0.0)
                                                 | ((ny == 0.0) & (nx < 0.0))))))
    return np.where(flip[:, None], -normals, normals)


def _feature_arrays(pts: np.ndarray, nbr: np.ndarray, offsets: np.ndarray):
    """(normals, curvature) arrays for m points of the cloud pts, given
    their (m, k) neighbor indices nbr into pts (knn_batch order) and their
    (m, 3) offsets from the whole cloud's centroid, which set each
    normal's sign (_canonical_sign).

    The k-neighborhood of a point includes the point itself. The normal is
    the eigenvector of the smallest covariance eigenvalue, curvature its
    share of the eigenvalue sum.
    """
    nb = np.take(pts, nbr, axis=0)
    centroids = nb.mean(axis=1)
    centered = nb - centroids[:, None, :]
    cov = np.einsum("nki,nkj->nij", centered, centered)
    vals, vecs = jacobi_eigh3(cov)
    normals = vecs[:, :, 2]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    normals = _canonical_sign(normals, offsets)
    trace = vals.sum(axis=1)
    safe = np.where(trace > 0.0, trace, 1.0)
    # clip absorbs the tiny negatives a numerically zero lambda_min can take
    curvature = np.clip(np.where(trace > 0.0, vals[:, 2] / safe, 0.0), 0.0, 1.0 / 3.0)
    return normals, curvature


def _angles(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi, theta) spherical angles of unit normals: phi from the
    two-argument arctangent in (-pi, pi], theta the polar angle."""
    theta = np.arccos(np.clip(normals[:, 2], -1.0, 1.0))
    phi = np.arctan2(normals[:, 1], normals[:, 0])
    phi = np.where(phi == -np.pi, np.pi, phi)
    phi = np.where((normals[:, 0] == 0.0) & (normals[:, 1] == 0.0), 0.0, phi)
    return phi, theta


def d_s(a, b, weights=(1.0, 1.0, 1.0)):
    """Feature-space distance between (curvature, phi, theta) triples.

    Weighted sum of absolute differences; the azimuth term is wrapped,
    min(|dphi|, 2*pi - |dphi|), so angles near +/-pi stay close.
    Broadcasts over leading dimensions.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    wr, wphi, wtheta = (float(w) for w in weights)
    if min(wr, wphi, wtheta) < 0:
        raise ValueError("feature weights must be non-negative")
    dr = np.abs(a[..., 0] - b[..., 0])
    dphi = np.abs(a[..., 1] - b[..., 1])
    dphi = np.minimum(dphi, TWO_PI - dphi)
    dtheta = np.abs(a[..., 2] - b[..., 2])
    return wr * dr + wphi * dphi + wtheta * dtheta


def _sq_dist(a, b):
    """Squared Euclidean distance between 3-D points, broadcasting over
    leading dimensions: (dx² + dy²) + dz², the order in which the k-d tree
    adds the squares, so the two agree bit for bit. Every exact distance
    test in this module goes through it."""
    sq = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    sq *= sq  # the difference is a new array: one temporary fewer at peak
    out = sq[..., 0] + sq[..., 1]
    out += sq[..., 2]
    return out


def d_c(a, b):
    """Euclidean distance between 3-D points, broadcasting over leading
    dimensions: the square root of _sq_dist, so bit-equal to the tree's."""
    return np.sqrt(_sq_dist(a, b))
