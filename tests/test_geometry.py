import numpy as np
import pytest

from bonereg import PointCloud, RigidTransform, SpatialIndex, d_c, d_s, jacobi_eigh3
from bonereg.geometry import _angles, _feature_arrays

TWO_PI = 2 * np.pi


def features(pts, k):
    """(normals, curvature, phi, theta) of every point's k-neighborhood."""
    normals, curvature = _feature_arrays(pts, SpatialIndex(pts).knn_batch(pts, k))
    return (normals, curvature, *_angles(normals))


def brute_knn(pts, query, k):
    d2 = np.sum((pts - query) ** 2, axis=1)
    return np.lexsort((np.arange(len(pts)), d2))[:k]


def brute_radius(pts, center, r):
    d2 = np.sum((pts - center) ** 2, axis=1)
    return np.nonzero(d2 <= r * r)[0]


def unique_rows(pts):
    """np.unique's first copy of each distinct row, in input order."""
    return pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]


@pytest.mark.parametrize("pts", [
    np.zeros((0, 3)),
    np.array([[0.5, -1.0, 2.0]]),
    np.ones((5, 3)),
    np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, -0.0, 0.0], [1.0, 0.0, -0.0]]),
], ids=["empty", "one-row", "all-duplicate", "signed-zero"])
def test_cloud_drops_duplicates_like_unique(pts):
    got = PointCloud(pts).points
    assert got.tobytes() == unique_rows(pts).tobytes()


def test_cloud_drops_duplicates_like_unique_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pts = rng.integers(-1, 2, size=(rng.integers(0, 30), 3)) * 0.5
        pts[rng.random(pts.shape) < 0.3] *= -1.0  # -0.0 where the value is 0
        assert PointCloud(pts).points.tobytes() == unique_rows(pts).tobytes()


def float_cloud(rng, kind):
    """A random float cloud of 2-60 rows: x all distinct, x drawn from
    three values (rows still distinct), rows copied over others, or x
    drawn from 0.0 and -0.0 with y-z pairs copied over others."""
    n = int(rng.integers(2, 61))
    pts = rng.standard_normal((n, 3))
    copies = rng.integers(0, n, size=(2, n // 3 + 1))
    if kind == "tied-x":
        pts[:, 0] = rng.choice([-1.5, 0.25, 2.0], size=n)
    elif kind == "planted-duplicates":
        pts[copies[0]] = pts[copies[1]]
    elif kind == "signed-zero-x":
        pts[:, 0] = rng.choice([0.0, -0.0], size=n)
        pts[copies[0], 1:] = pts[copies[1], 1:]
    return pts


@pytest.mark.parametrize("kind", ["distinct-x", "tied-x", "planted-duplicates",
                                  "signed-zero-x"])
def test_cloud_drops_float_duplicates_like_unique(monkeypatch, kind):
    rng = np.random.default_rng(11)
    clouds = [float_cloud(rng, kind) for _ in range(200)]
    wants = [unique_rows(pts) for pts in clouds]
    lexsort, row_sorts = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: row_sorts.append(1) or lexsort(keys))
    for pts, want in zip(clouds, wants):
        assert PointCloud(pts).points.tobytes() == want.tobytes()
    # the rows are sorted only when two x values are equal
    tied = sum(len(np.unique(pts[:, 0])) < len(pts) for pts in clouds)
    assert len(row_sorts) == tied
    assert (tied == 0) == (kind == "distinct-x")
    dropped = sum(len(pts) - len(want) for pts, want in zip(clouds, wants))
    assert (dropped > 0) == (kind in ("planted-duplicates", "signed-zero-x"))


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]],
    [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [0.0, 1.0, 2.0]],
], ids=["unique", "with-duplicate"])
def test_cloud_owns_read_only_points(rows):
    pts = np.array(rows)
    cloud = PointCloud(pts)
    before = cloud.points.tobytes()
    pts[0, 0] = 42.0
    assert cloud.points.tobytes() == before
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 42.0
    assert cloud.points.tobytes() == before


def test_knn_simple():
    cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float))
    index = SpatialIndex(cloud)
    origin = np.zeros((1, 3))
    assert index.knn_batch(origin, 2)[0].tolist() == [0, 1]
    assert index.knn_batch(np.array([[1.0, 0, 0]]), 1)[0].tolist() == [1]
    with pytest.raises(ValueError):
        index.knn_batch(origin, 4)


def test_knn_matches_brute_force_random():
    rng = np.random.default_rng(3)
    pts = rng.random((200, 3))
    index = SpatialIndex(PointCloud(pts))
    for _ in range(50):
        q = rng.random(3) * 1.2 - 0.1
        k = int(rng.integers(1, 40))
        assert index.knn_batch(q[None], k)[0].tolist() == brute_knn(pts, q, k).tolist()


def test_knn_ties_take_lowest_index_on_grid():
    # integer lattice: equidistant shells force exact distance ties
    g = np.arange(5, dtype=float)
    pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
    index = SpatialIndex(PointCloud(pts))
    rng = np.random.default_rng(8)
    for _ in range(30):
        q = pts[rng.integers(len(pts))]
        k = int(rng.integers(1, 40))
        assert index.knn_batch(q[None], k)[0].tolist() == brute_knn(pts, q, k).tolist()


def test_radius_line_cloud():
    pts = np.column_stack([np.arange(5, dtype=float), np.zeros(5), np.zeros(5)])
    index = SpatialIndex(PointCloud(pts))
    origin = np.zeros((1, 3))
    assert index.ball_batch(origin, 1.5)[0].tolist() == [0, 1]
    assert index.ball_batch(np.array([[0.1, 0, 0]]), 0.05)[0].tolist() == []
    assert index.ball_batch(origin, 1.0)[0].tolist() == [0, 1]  # boundary inclusive


def test_radius_matches_brute_force_random():
    rng = np.random.default_rng(4)
    pts = rng.random((300, 3))
    index = SpatialIndex(PointCloud(pts))
    for _ in range(50):
        c = rng.random(3)
        r = float(rng.uniform(0.01, 0.6))
        assert index.ball_batch(c[None], r)[0].tolist() == brute_radius(pts, c, r).tolist()


def assert_eigh_contract(mats, vals, vecs):
    """Descending eigenvalues, each pair (lambda, v) with
    |A v - lambda v| <= 1e-12 |A|, and orthonormal eigenvector columns."""
    assert vals.shape == mats.shape[:-1] and vecs.shape == mats.shape
    assert np.all(np.diff(vals, axis=-1) <= 0.0)
    res = np.linalg.norm(mats @ vecs - vals[..., None, :] * vecs, axis=-2)
    norms = np.linalg.norm(mats, axis=(-2, -1))
    assert (res <= 1e-12 * norms[..., None]).all()
    eye = np.broadcast_to(np.eye(3), vecs.shape)
    assert np.abs(np.swapaxes(vecs, -1, -2) @ vecs - eye).max() < 1e-12


def test_jacobi_eigen_contract():
    rng = np.random.default_rng(11)
    for shape in ((300,), (2, 3)):
        b = rng.normal(size=shape + (3, 3))
        mats = b @ np.swapaxes(b, -1, -2)
        vals, vecs = jacobi_eigh3(mats)
        assert_eigh_contract(mats, vals, vecs)
        # eigenvalues sum to the trace
        assert np.allclose(vals.sum(axis=-1), np.trace(mats, axis1=-2, axis2=-1), rtol=1e-12)


def test_jacobi_single_matrix_and_zero():
    vals, vecs = jacobi_eigh3(np.zeros((3, 3)))
    assert vals.tolist() == [0, 0, 0]
    assert np.array_equal(vecs.T @ vecs, np.eye(3))
    m = np.diag([3.0, 2.0, 1.0])
    vals, vecs = jacobi_eigh3(m)
    assert vals.tolist() == [3, 2, 1]
    assert np.allclose(np.abs(vecs), np.eye(3))
    b = np.random.default_rng(3).normal(size=(3, 3))
    single = b @ b.T
    assert_eigh_contract(single, *jacobi_eigh3(single))


@pytest.mark.parametrize("shape", [(9,), (), (3, 4), (2, 2, 2), (5, 3)])
def test_jacobi_rejects_non_3x3(shape):
    with pytest.raises(ValueError, match="3x3"):
        jacobi_eigh3(np.zeros(shape))


def test_features_planar_cloud():
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.random(100), rng.random(100), np.zeros(100)])
    normals, curvature, phi, theta = features(pts, 12)
    assert curvature.max() < 1e-9
    assert np.allclose(np.abs(normals[:, 2]), 1.0)
    assert np.allclose(normals[:, 2], 1.0)  # canonical sign picks +z
    assert np.allclose(theta, 0.0)
    assert np.allclose(phi, 0.0)


def test_features_four_point_plane():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
    normals, curvature, _, _ = features(pts, 4)
    assert np.allclose(np.abs(normals[:, 2]), 1.0)
    assert np.allclose(curvature, 0.0)


def test_features_sphere_normals_radial():
    rng = np.random.default_rng(6)
    z = rng.uniform(-1, 1, 2000)
    ang = rng.uniform(0, TWO_PI, 2000)
    r = np.sqrt(1 - z * z)
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang), z])
    normals = features(pts, 20)[0]
    cos = np.abs(np.einsum("ni,ni->n", normals, pts)).clip(0, 1)
    # random sampling: radial within a loose bound, outward on average
    assert np.arccos(cos).max() < 0.15
    assert (np.einsum("ni,ni->n", normals, pts) > 0).all()


def test_features_invariants():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(500, 3))
    normals, curvature, phi, theta = features(pts, 15)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
    assert (curvature >= 0).all() and (curvature <= 1 / 3 + 1e-15).all()
    assert (theta >= 0).all() and (theta <= np.pi).all()
    assert (phi > -np.pi).all() and (phi <= np.pi).all()
    assert np.allclose(theta, np.arccos(np.clip(normals[:, 2], -1, 1)))
    # phi consistent with (nx, ny)
    expected_phi = np.arctan2(normals[:, 1], normals[:, 0])
    assert np.allclose(phi, expected_phi)


def test_features_rotation_equivariance():
    # a rigid motion rotates each normal, sign included (n . (p - centroid)
    # does not change), and keeps curvature
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(400, 3)) * np.array([1.0, 0.6, 0.3])
    normals, curvature = features(pts, 12)[:2]
    for _ in range(20):
        motion = RigidTransform.from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi),
                                                rng.normal(size=3))
        moved_normals, moved_curvature = features(motion.apply(pts), 12)[:2]
        assert np.abs(moved_normals - normals @ motion.rotation.T).max() < 1e-9
        assert np.abs(moved_curvature - curvature).max() < 1e-12


def test_ds_examples():
    assert d_s((0.1, 0.0, 0.0), (0.2, 0.5, 0.25)) == pytest.approx(0.85, abs=1e-15)
    assert d_s((0.3, 1.0, 2.0), (0.3, 1.0, 2.0)) == 0.0
    # wrap rule near the +/- pi seam
    got = d_s((0.5, 3.1, 1.0), (0.5, -3.1, 1.0))
    assert got == pytest.approx(TWO_PI - 6.2, abs=1e-12)


def test_ds_weights_and_broadcast():
    a = np.array([[0.1, 0.0, 0.0], [0.2, 1.0, 1.0]])
    b = np.array([[0.2, 0.5, 0.25], [0.2, 1.0, 1.0]])
    got = d_s(a, b, weights=(2.0, 1.0, 0.0))
    assert np.allclose(got, [2 * 0.1 + 0.5, 0.0])
    with pytest.raises(ValueError):
        d_s(a, b, weights=(-1, 1, 1))


def test_ds_pseudo_metric_properties():
    rng = np.random.default_rng(10)
    triples = np.column_stack([rng.uniform(0, 1 / 3, (200, 1)),
                               rng.uniform(-np.pi, np.pi, (200, 1)),
                               rng.uniform(0, np.pi, (200, 1))])
    a, b, c = triples[:66], triples[66:132], triples[132:198]
    assert np.allclose(d_s(a, b), d_s(b, a))
    assert np.allclose(d_s(a, a), 0.0)
    assert (d_s(a, c) <= d_s(a, b) + d_s(b, c) + 1e-12).all()


def test_dc():
    assert d_c((0, 0, 0), (3, 4, 0)) == 5.0
    assert d_c((1, 2, 3), (1, 2, 3)) == 0.0
    rng = np.random.default_rng(12)
    a = rng.normal(size=(50, 3))
    b = rng.normal(size=(50, 3))
    assert np.allclose(d_c(a, b), d_c(b, a))
