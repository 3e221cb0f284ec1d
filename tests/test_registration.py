import gc
import json
import weakref

import numpy as np
import pytest

from bonereg import (CsnIcpConfig, DegenerateGeometryError, DivergenceError,
                     PointCloud, RigidTransform, csn_icp,
                     icp_classic, make_phantom, partition_indices, partition_register,
                     perturb, rotation_angle_between, solve_rigid,
                     PerturbationSpec, PhantomSpec, SpatialIndex)
from bonereg import geometry, metrics, registration
from bonereg.geometry import _angles, _feature_arrays
from bonereg.registration import _ball_table, _correspond_arrays, _reject_mask, report_to_dict


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def test_transform_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="determinant"):
        RigidTransform(refl, np.zeros(3))


def test_transform_algebra():
    rng = np.random.default_rng(0)
    t1 = RigidTransform.from_axis_angle(unit(rng.normal(size=3)), 0.4, rng.normal(size=3))
    t2 = RigidTransform.from_axis_angle(unit(rng.normal(size=3)), -1.1, rng.normal(size=3))
    pts = rng.normal(size=(20, 3))
    assert np.allclose(t2.apply(t1.apply(pts)), t2.compose(t1).apply(pts), atol=1e-12)
    inv = t1.inverse()
    assert np.allclose(inv.apply(t1.apply(pts)), pts, atol=1e-12)
    # isometry
    d_before = np.linalg.norm(pts[:10] - pts[10:], axis=1)
    moved = t1.apply(pts)
    d_after = np.linalg.norm(moved[:10] - moved[10:], axis=1)
    assert np.allclose(d_before, d_after, rtol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transform_rejects_non_finite(bad):
    rot = np.eye(3)
    rot[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        RigidTransform(rot, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        RigidTransform(np.full((3, 3), bad), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        RigidTransform(np.eye(3), np.array([0.0, bad, 0.0]))
    text = '{"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "T": [0, 0, 0]}'
    for doc in (text.replace("[1, 0, 0]", "[NaN, 0, 0]"),
                text.replace('"T": [0, 0, 0]', '"T": [0, Infinity, 0]')):
        with pytest.raises(ValueError, match="finite"):
            RigidTransform.from_json(doc)


def test_transform_json_round_trip():
    t = RigidTransform.from_axis_angle((0, 0, 1), 0.3, (0.1, -0.2, 0.7))
    back = RigidTransform.from_json(t.to_json())
    assert np.array_equal(back.rotation, t.rotation)
    assert np.array_equal(back.translation, t.translation)


def test_solve_rigid_identity():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 3))
    t = solve_rigid(pts, pts)
    assert np.abs(t.rotation - np.eye(3)).max() < 1e-12
    assert np.abs(t.translation).max() < 1e-12


def test_solve_rigid_known_rotation():
    src = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], float)
    rot90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = solve_rigid(src, src @ rot90.T)
    assert np.abs(t.rotation - rot90).max() < 1e-12
    assert np.abs(t.translation).max() < 1e-12
    assert np.abs(t.apply(src) - src @ rot90.T).max() < 1e-12


def test_solve_rigid_pure_translation():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(10, 3))
    t = solve_rigid(src, src + np.array([1.0, 2.0, 3.0]))
    assert np.abs(t.rotation - np.eye(3)).max() < 1e-12
    assert np.allclose(t.translation, [1, 2, 3], atol=1e-12)


def test_solve_rigid_degenerate():
    with pytest.raises(DegenerateGeometryError, match="at least 3"):
        solve_rigid(np.zeros((2, 3)), np.zeros((2, 3)))
    line = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
    with pytest.raises(DegenerateGeometryError, match="collinear"):
        solve_rigid(line, line)


def test_solve_rigid_local_optimality():
    # perturbing the solution by small random rotations never reduces the
    # sum of squared residuals
    rng = np.random.default_rng(3)
    src = rng.normal(size=(40, 3))
    gt = RigidTransform.from_axis_angle(unit((1, 2, 3)), 0.5, (0.2, 0, -0.1))
    tgt = gt.apply(src) + rng.normal(scale=0.01, size=src.shape)
    t = solve_rigid(src, tgt)
    best = np.sum((t.apply(src) - tgt) ** 2)
    for _ in range(20):
        wiggle = RigidTransform.from_axis_angle(unit(rng.normal(size=3)), 1e-3)
        r2 = np.sum(((src @ (wiggle.rotation @ t.rotation).T + t.translation) - tgt) ** 2)
        assert r2 >= best - 1e-12


def spherical(pts, k):
    """(curvature, phi, theta) rows of every point's k-neighborhood."""
    normals, curv = _feature_arrays(pts, SpatialIndex(pts).knn_batch(pts, k))
    return np.column_stack([curv, *_angles(normals)])


def correspond(src_pts, src_sph, tgt_pts, tgt_sph, r_th, weights=(1.0, 1.0, 1.0)):
    index = SpatialIndex(tgt_pts)
    return _correspond_arrays(src_pts, src_sph, index.nearest(src_pts)[0], tgt_pts, tgt_sph,
                              _ball_table(index, r_th), weights)


def test_correspondences_self_match():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 3))
    sph = spherical(pts, 5)
    chosen, dc, ds = correspond(pts, sph, pts, sph, r_th=0.5)
    assert chosen.tolist() == list(range(30))
    assert (dc == 0.0).all()
    assert (ds == 0.0).all()


def test_correspondences_refinement_prefers_feature_match():
    # target A is nearest in space but far in features; B sits inside the
    # refinement ball with a near-identical descriptor
    src_pts = np.array([[0, 0, 0], [5, 5, 5], [5, 5, -5], [-5, 5, 5]], float)
    tgt_pts = np.array([[0.1, 0, 0], [0.12, 0.1, 0], [5, 5, 5], [5, 5, -5], [-5, 5, 5]], float)
    src_sph = np.array([[0.1, 0.0, 0.0]] * 4)
    tgt_sph = np.array([[0.3, 0.5, 0.3],     # A: ds = 0.2+0.5+0.3 = 1.0
                        [0.15, 0.0, 0.05],   # B: ds = 0.05+0+0.05 = 0.1
                        [0.1, 0.0, 0.0],
                        [0.1, 0.0, 0.0],
                        [0.1, 0.0, 0.0]])
    chosen, dc, _ = correspond(src_pts, src_sph, tgt_pts, tgt_sph, r_th=0.2)
    assert chosen[0] == 1  # refined away from the primary
    assert dc[0] == pytest.approx(np.sqrt(0.12 ** 2 + 0.01), rel=1e-12)
    # with a ball too small to reach B, the primary wins
    chosen, _, _ = correspond(src_pts, src_sph, tgt_pts, tgt_sph, r_th=0.05)
    assert chosen[0] == 0


def test_correspondences_degenerate_ball_equals_nearest():
    rng = np.random.default_rng(5)
    src_pts = rng.random((40, 3))
    tgt_pts = rng.random((50, 3)) + np.array([0.05, 0, 0])
    chosen, _, _ = correspond(src_pts, spherical(src_pts, 5), tgt_pts, spherical(tgt_pts, 5),
                              r_th=1e-9)
    from test_geometry import brute_knn
    for q, j in zip(src_pts, chosen):
        assert j == brute_knn(tgt_pts, q, 1)[0]


def reject(dc_values, ds_values=None, config=CsnIcpConfig()):
    dc = np.array(dc_values, float)
    ds = np.zeros_like(dc) if ds_values is None else np.array(ds_values, float)
    return _reject_mask(dc, ds, config)


def test_reject_keeps_all_at_median():
    assert reject([1.0] * 20, [0.5] * 20).sum() == 20


def test_reject_drops_outlier():
    keep = reject([1.0] * 100 + [100.0])
    assert keep[:100].all() and not keep[100]


def test_reject_too_few_survivors():
    # median 0 makes the cutoff 0, so only the two exact matches survive
    with pytest.raises(DivergenceError, match="2"):
        reject([0.0, 0.0, 1.0])


def test_reject_all_zero_distances():
    assert reject([0.0] * 10).sum() == 10


def test_reject_infinite_multipliers_keep_everything():
    config = CsnIcpConfig(dc_reject_multiplier=float("inf"),
                          ds_reject_multiplier=float("inf"))
    assert reject([0.0] * 10 + [5.0], [0.0] * 11, config).sum() == 11


def test_apply_transform_identity_and_isometry():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(25, 3))
    assert np.array_equal(RigidTransform.identity().apply(pts), pts)
    t = RigidTransform.from_axis_angle(unit((3, 1, 2)), 1.2, (0.3, 0.4, 0.5))
    moved = t.apply(pts)
    d0 = np.linalg.norm(pts[:12] - pts[12:24], axis=1)
    d1 = np.linalg.norm(moved[:12] - moved[12:24], axis=1)
    assert np.allclose(d0, d1, rtol=1e-10)


def test_csn_icp_identity():
    cloud = make_phantom(PhantomSpec("ellipsoid", 400, 1))
    report = csn_icp(cloud, cloud)
    assert report.converged
    assert report.iterations_used <= 2
    t = report.final_transforms[0]
    assert np.abs(t.rotation - np.eye(3)).max() < 1e-9
    assert np.abs(t.translation).max() < 1e-9
    assert report.final_rmse < 1e-9


def test_csn_icp_recovers_known_transform():
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 1500, 2))
    spec = PerturbationSpec(rotation_axis=tuple(unit((1, 1, 2))),
                            rotation_angle=np.radians(15.0),
                            translation=(0.05, -0.02, 0.03), seed=5)
    target, gt = perturb(cloud, spec)
    report = csn_icp(cloud, target)
    rec = report.final_transforms[0]
    assert np.degrees(rotation_angle_between(rec, gt)) < 0.5
    assert np.linalg.norm(rec.translation - gt.translation) < 1e-3


def test_csn_icp_noise_floor():
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 1500, 3))
    sigma = 0.002
    spec = PerturbationSpec(rotation_axis=(0.0, 0.0, 1.0),
                            rotation_angle=np.radians(10.0),
                            translation=(0.02, 0.01, -0.01),
                            noise_sigma=sigma, seed=9)
    target, _ = perturb(cloud, spec)
    report = csn_icp(cloud, target)
    assert report.final_rmse <= 2 * sigma


def turned_phantom():
    """The two-lobe phantom and a noisy copy turned 0.2 rad about y."""
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 1200, 4))
    spec = PerturbationSpec(rotation_axis=(0.0, 1.0, 0.0), rotation_angle=0.2,
                            translation=(0.03, 0.0, 0.0), noise_sigma=0.002, seed=2)
    return cloud, perturb(cloud, spec)[0]


def test_report_invariants():
    cloud, target = turned_phantom()
    for report in (csn_icp(cloud, target), icp_classic(cloud, target)):
        assert len(report.per_iteration_rmse) == report.iterations_used
        trace = report.per_iteration_rmse
        assert trace[-1] <= trace[0]
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
        assert report.accepted_pairs + report.rejected_pairs == len(cloud)


@pytest.mark.parametrize("register", [icp_classic, csn_icp])
def test_one_nearest_query_per_pose(monkeypatch, register):
    cloud, target = turned_phantom()
    knn_ks, nearest_calls = [], []
    knn_batch, nearest = SpatialIndex.knn_batch, SpatialIndex.nearest

    def counted_knn(self, queries, k):
        knn_ks.append(k)
        return knn_batch(self, queries, k)

    def counted_nearest(self, queries, prior=None):
        nearest_calls.append(len(queries))
        return nearest(self, queries, prior)

    monkeypatch.setattr(SpatialIndex, "knn_batch", counted_knn)
    monkeypatch.setattr(SpatialIndex, "nearest", counted_nearest)
    report = register(cloud, target)
    assert report.iterations_used > 2
    assert 1 not in knn_ks
    # the start pose, then one per candidate pose (a reverted step included)
    assert len(nearest_calls) <= report.iterations_used + 2


def count_index_work(monkeypatch) -> dict:
    """Point counts of every tree build, k > 1 query batch, eigen batch
    and ball batch from here on."""
    work = {"builds": [], "knn": [], "mats": [], "balls": []}
    init, knn_batch = SpatialIndex.__init__, SpatialIndex.knn_batch
    ball_batch, jacobi = SpatialIndex.ball_batch, geometry.jacobi_eigh3

    def counted_init(self, points):
        work["builds"].append(len(points))
        init(self, points)

    def counted_knn(self, queries, k):
        work["knn"].append(len(queries))
        return knn_batch(self, queries, k)

    def counted_balls(self, centers, radius):
        work["balls"].append(len(centers))
        return ball_batch(self, centers, radius)

    def counted_jacobi(cov):
        work["mats"].append(len(cov))
        return jacobi(cov)

    monkeypatch.setattr(SpatialIndex, "__init__", counted_init)
    monkeypatch.setattr(SpatialIndex, "knn_batch", counted_knn)
    monkeypatch.setattr(SpatialIndex, "ball_batch", counted_balls)
    monkeypatch.setattr(geometry, "jacobi_eigh3", counted_jacobi)
    return work


@pytest.mark.parametrize("partitions", [1, 2])
def test_one_moving_tree_per_run(monkeypatch, partitions):
    cloud, target = turned_phantom()
    work = count_index_work(monkeypatch)
    report = partition_register(cloud, target, CsnIcpConfig(partitions=partitions))
    assert report.iterations_used > 2
    # the target's tree and features, then one tree and one feature
    # estimate over the whole moving cloud, at its source pose, whatever
    # the number of bins
    assert work["builds"] == work["mats"] == [len(target), len(cloud)]


def report_json(report) -> str:
    return json.dumps(report_to_dict(report))


def test_second_run_onto_a_target_builds_only_the_moving_side(monkeypatch):
    cloud, target = turned_phantom()
    first = csn_icp(cloud, target)
    work = count_index_work(monkeypatch)
    second = csn_icp(cloud, target)
    n = len(cloud)
    assert work == {"builds": [n], "knn": [n], "mats": [n], "balls": []}
    fresh = csn_icp(cloud, PointCloud(target.points.copy()))
    assert report_json(first) == report_json(second) == report_json(fresh)


def test_changed_k_or_r_th_rebuilds_the_target_tables(monkeypatch):
    cloud, target = turned_phantom()
    csn_icp(cloud, target)
    work = count_index_work(monkeypatch)
    n, m = len(cloud), len(target)
    # each config replaces the tables of the one before it, so the
    # default config builds them again at the end
    for config in (CsnIcpConfig(k=12), CsnIcpConfig(r_th=0.04), CsnIcpConfig()):
        for key in work:
            work[key].clear()
        report = csn_icp(cloud, target, config)
        assert work == {"builds": [n], "knn": [m, n], "mats": [m, n], "balls": [m]}
        fresh = csn_icp(cloud, PointCloud(target.points.copy()), config)
        assert report_json(report) == report_json(fresh)
    # the checks still run before any table on a prepared target
    with pytest.raises(ValueError, match="bounding-box diagonal"):
        csn_icp(cloud, target, CsnIcpConfig(r_th=target.bbox_diagonal()))
    with pytest.raises(DegenerateGeometryError):
        csn_icp(cloud, target, CsnIcpConfig(k=len(cloud) + 1))


def test_icp_classic_and_rmse_share_one_target_tree(monkeypatch):
    cloud, target = turned_phantom()
    work = count_index_work(monkeypatch)
    report = icp_classic(cloud, target)
    moved = PointCloud(report.final_transforms[0].apply(cloud.points))
    assert metrics.rmse(moved, target) == pytest.approx(report.final_rmse, rel=1e-9)
    assert work["builds"] == [len(target)]


def test_target_state_goes_with_the_target():
    cloud, target = turned_phantom()
    gc.collect()
    held = len(geometry._DERIVED)
    csn_icp(cloud, target)
    icp_classic(cloud, target)
    # one entry, the target's: the moving cloud keeps none
    assert len(geometry._DERIVED) == held + 1
    gone = weakref.ref(target)
    del target
    gc.collect()
    assert gone() is None
    assert len(geometry._DERIVED) == held


@pytest.mark.parametrize("register, partitions", [
    (csn_icp, 1), (icp_classic, 1), (partition_register, 2),
], ids=["csn_icp", "icp_classic", "partition_register"])
def test_runs_repeat_bit_for_bit_and_traces_never_rise(register, partitions):
    cloud, target = turned_phantom()
    config = CsnIcpConfig(partitions=partitions)
    first, second = (register(cloud, target, config) for _ in range(2))
    for report in (first, second):
        assert len(report.final_transforms) == partitions
        trace = report.per_iteration_rmse
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def signature(r):
        return (b"".join(t.rotation.tobytes() + t.translation.tobytes()
                         for t in r.final_transforms),
                np.array(r.per_iteration_rmse).tobytes(),
                (r.accepted_pairs, r.rejected_pairs, r.iterations_used, r.converged))

    assert signature(first) == signature(second)


def test_r_th_must_be_below_target_diagonal(monkeypatch):
    cloud = make_phantom(PhantomSpec("ellipsoid", 300, 11))
    diag = cloud.bbox_diagonal()
    ball_calls = []
    monkeypatch.setattr(SpatialIndex, "ball_batch", lambda *args: ball_calls.append(args))
    for r_th in (1e9, diag):
        for register, partitions in ((csn_icp, 1), (partition_register, 2)):
            with pytest.raises(ValueError, match="bounding-box diagonal"):
                register(cloud, cloud, CsnIcpConfig(r_th=r_th, partitions=partitions))
    # rejected before the r_th-ball table is built
    assert ball_calls == []


def test_degenerate_config_reduces_to_classic():
    cloud = make_phantom(PhantomSpec("ellipsoid", 500, 5))
    spec = PerturbationSpec(rotation_axis=tuple(unit((2, 1, 1))),
                            rotation_angle=0.15, translation=(0.05, 0.02, 0.0),
                            noise_sigma=0.003, seed=3)
    target, _ = perturb(cloud, spec)
    config = CsnIcpConfig(feature_weights=(0.0, 0.0, 0.0),
                          dc_reject_multiplier=float("inf"),
                          ds_reject_multiplier=float("inf"))
    a = csn_icp(cloud, target, config)
    b = icp_classic(cloud, target, config)
    assert a.iterations_used == b.iterations_used
    assert a.per_iteration_rmse == b.per_iteration_rmse
    assert (a.accepted_pairs, a.rejected_pairs) == (b.accepted_pairs, b.rejected_pairs)
    for ta, tb in zip(a.final_transforms, b.final_transforms, strict=True):
        assert np.array_equal(ta.rotation, tb.rotation)
        assert np.array_equal(ta.translation, tb.translation)


def test_icp_classic_identity_and_recovery():
    # a sphere would leave the rotation unobservable, so use the lobed shape
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 1200, 6))
    report = icp_classic(cloud, cloud)
    assert report.final_rmse < 1e-9
    spec = PerturbationSpec(rotation_axis=(0.0, 0.0, 1.0),
                            rotation_angle=np.radians(18.0),
                            translation=(0.02, -0.04, 0.01), seed=4)
    target, gt = perturb(cloud, spec)
    report = icp_classic(cloud, target)
    assert np.degrees(rotation_angle_between(report.final_transforms[0], gt)) < 0.5


def test_icp_classic_rigid_equivariance():
    # moving both clouds by G moves the result by G: G^-1 T' G == T
    cloud, target = turned_phantom()
    g = RigidTransform.from_axis_angle(unit((0.3, -0.8, 0.5)), np.radians(70.0),
                                       (0.4, -0.1, 0.25))
    t = icp_classic(cloud, target).final_transforms[0]
    moved = icp_classic(PointCloud(g.apply(cloud.points)), PointCloud(g.apply(target.points)))
    back = g.inverse().compose(moved.final_transforms[0]).compose(g)
    assert np.degrees(rotation_angle_between(back, t)) < 1e-4
    assert np.abs(back.translation - t.translation).max() < 1e-9


def test_partition_indices_split():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.normal(size=(10, 3)))
    bins = partition_indices(cloud, 3)
    assert [len(b) for b in bins] == [4, 3, 3]
    assert sorted(np.concatenate(bins).tolist()) == list(range(10))
    # bins are contiguous in x
    x = cloud.points[:, 0]
    assert x[bins[0]].max() <= x[bins[1]].min()
    assert x[bins[1]].max() <= x[bins[2]].min()


def test_partition_one_equals_csn():
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 800, 8))
    spec = PerturbationSpec(rotation_axis=(0.0, 0.0, 1.0), rotation_angle=0.1,
                            translation=(0.02, 0.0, 0.0), seed=6)
    target, _ = perturb(cloud, spec)
    config = CsnIcpConfig(partitions=1)
    a = partition_register(cloud, target, config)
    b = csn_icp(cloud, target, config)
    assert a.per_iteration_rmse == b.per_iteration_rmse
    assert np.array_equal(a.final_transforms[0].rotation, b.final_transforms[0].rotation)


def two_motion_instance(seed, n=3000, angle_deg=10.0):
    source = make_phantom(PhantomSpec("two_lobe_pelvis", n, seed))
    pts = source.points
    left = pts[:, 0] < 0
    t_left = RigidTransform.from_axis_angle((0, 0, 1), np.radians(angle_deg))
    t_right = RigidTransform.from_axis_angle((0, 0, 1), np.radians(-angle_deg))
    c_left = pts[left].mean(axis=0)
    c_right = pts[~left].mean(axis=0)
    gt_left = RigidTransform(t_left.rotation, c_left - t_left.rotation @ c_left)
    gt_right = RigidTransform(t_right.rotation, c_right - t_right.rotation @ c_right)
    moved = pts.copy()
    moved[left] = gt_left.apply(pts[left])
    moved[~left] = gt_right.apply(pts[~left])
    return source, PointCloud(moved), gt_left, gt_right


def test_partition_register_two_motions():
    source, target, gt_left, gt_right = two_motion_instance(10)
    config = CsnIcpConfig(partitions=2)
    report = partition_register(source, target, config)
    assert len(report.final_transforms) == 2
    rec_left, rec_right = report.final_transforms
    assert np.degrees(rotation_angle_between(rec_left, gt_left)) < 1.0
    assert np.degrees(rotation_angle_between(rec_right, gt_right)) < 1.0
    single = partition_register(source, target, CsnIcpConfig(partitions=1))
    assert report.final_rmse < single.final_rmse


def test_partition_two_equals_csn_per_bin(monkeypatch):
    source, target, _, _ = two_motion_instance(12, n=800, angle_deg=6.0)
    config = CsnIcpConfig(partitions=2)
    ball_calls, starts, per_bin = [], [], []
    ball_batch, iterate = SpatialIndex.ball_batch, registration._iterate

    def counted(self, centers, radius):
        ball_calls.append(len(centers))
        return ball_batch(self, centers, radius)

    def captured(points, *args, align_centroids):
        starts.append((points, align_centroids))
        per_bin.append(iterate(points, *args, align_centroids=align_centroids))
        return per_bin[-1]

    monkeypatch.setattr(SpatialIndex, "ball_batch", counted)
    monkeypatch.setattr(registration, "_iterate", captured)
    report = partition_register(source, target, config)
    assert ball_calls == [len(target)]  # one ball table shared by both bins
    bins = partition_indices(source, 2)
    # one loop per bin, from the bin's own points, with no centroid shift
    assert len(starts) == 2
    for (points, align), b in zip(starts, bins):
        assert np.array_equal(points, source.points[b]) and align is False
    for got, rep in zip(report.final_transforms, per_bin):
        assert np.array_equal(got.rotation, rep.final_transforms[0].rotation)
        assert np.array_equal(got.translation, rep.final_transforms[0].translation)
    # the union trace: bins that stopped early hold their last RMSE
    iters = max(r.iterations_used for r in per_bin)
    assert report.iterations_used == iters
    padded = np.array([r.per_iteration_rmse + [r.per_iteration_rmse[-1]] * (iters - r.iterations_used)
                       for r in per_bin])
    sizes = np.array([b.size for b in bins], dtype=float)
    want = np.sqrt((sizes[:, None] * (padded * padded)).sum(axis=0) / sizes.sum())
    assert report.per_iteration_rmse == list(want)
    assert report.accepted_pairs == sum(r.accepted_pairs for r in per_bin)
    assert report.rejected_pairs == sum(r.rejected_pairs for r in per_bin)


def test_partition_bin_too_small():
    cloud = make_phantom(PhantomSpec("ellipsoid", 100, 11))
    with pytest.raises(DegenerateGeometryError, match="partition"):
        partition_register(cloud, cloud, CsnIcpConfig(partitions=9))


@pytest.mark.parametrize("register", [csn_icp, icp_classic])
def test_single_body_rejects_partitions(register):
    cloud = make_phantom(PhantomSpec("ellipsoid", 300, 11))
    with pytest.raises(ValueError, match="partition_register"):
        register(cloud, cloud, CsnIcpConfig(partitions=2))


def test_csn_icp_cloud_too_small():
    tiny = PointCloud(np.random.default_rng(1).random((5, 3)))
    with pytest.raises(DegenerateGeometryError):
        csn_icp(tiny, tiny)


def test_config_validation():
    with pytest.raises(ValueError):
        CsnIcpConfig(k=2)
    with pytest.raises(ValueError):
        CsnIcpConfig(r_th=0.0)
    with pytest.raises(ValueError):
        CsnIcpConfig(max_iterations=0)
    with pytest.raises(ValueError):
        CsnIcpConfig(partitions=0)
    with pytest.raises(ValueError):
        CsnIcpConfig(feature_weights=(1.0, -0.5, 1.0))


@pytest.mark.parametrize("values", [
    {"k": "abc"}, {"k": True}, {"k": 20.0}, {"max_iterations": 2.5},
    {"partitions": None}, {"r_th": "x"}, {"dc_reject_multiplier": False},
    {"rmse_tolerance": [1e-6]}, {"feature_weights": 5}, {"feature_weights": ("1", 1, 1)},
    {"r_th": float("inf")}, {"r_th": float("nan")},
    {"feature_weights": (float("nan"), 1, 1)}, {"feature_weights": (float("inf"), 1, 1)},
])
def test_config_rejects_wrong_types(values):
    with pytest.raises(ValueError, match=next(iter(values))):
        CsnIcpConfig(**values)


def test_config_normalizes_weights():
    config = CsnIcpConfig(k=np.int64(5), r_th=1, feature_weights=[1, 0.5, np.float64(2)])
    assert config.feature_weights == (1.0, 0.5, 2.0)
    assert all(type(w) is float for w in config.feature_weights)
