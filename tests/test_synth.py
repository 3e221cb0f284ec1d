import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bonereg import synth
from bonereg import (PerturbationSpec, PhantomSpec, PointCloud, SplitMix64, binary_close,
                     build_point_cloud, make_phantom, perturb, voxelize_to_stack)


def test_splitmix_batch_matches_scalar():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    scalar = [a.next_u64() for _ in range(100)]
    batch = b.u64_batch(100).tolist()
    assert scalar == batch
    # continuing after a batch stays in sync
    assert a.next_u64() == int(b.u64_batch(1)[0])


MASK64 = (1 << 64) - 1


def reference_splitmix(seed):
    """The module docstring's splitmix64 stream in Python ints."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def test_splitmix_golden_stream():
    # the standard splitmix64 outputs for seed 0
    golden = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert SplitMix64(0).u64_batch(3).tolist() == golden
    ref = reference_splitmix(0)
    assert [next(ref) for _ in range(3)] == golden
    g = SplitMix64(-5)
    ref = reference_splitmix(-5)
    assert [g.next_u64() for _ in range(50)] == [next(ref) for _ in range(50)]


@pytest.mark.parametrize("n, keep_fraction, noise_sigma", [
    (997, 0.7, 0.0), (997, 0.9, 0.01), (997, 0.001, 0.01), (997, 996 / 997, 0.01),
    (2, 0.5, 0.01), (1, 0.6, 0.01),
], ids=["keep-0.7", "keep-0.9-noise", "keep-1-noise", "keep-n-1-noise", "n-2-noise",
        "n-1-noise"])
def test_perturb_subsample_matches_reference_shuffle(n, keep_fraction, noise_sigma):
    cloud = (make_phantom(PhantomSpec("ellipsoid", n, 2)) if n >= 100
             else PointCloud(np.arange(3.0 * n).reshape(n, 3)))
    spec = PerturbationSpec(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0,
                            translation=(0, 0, 0), keep_fraction=keep_fraction,
                            noise_sigma=noise_sigma, seed=41)
    out, _ = perturb(cloud, spec)
    stream = reference_splitmix(41)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int((next(stream) >> 11) * 2.0 ** -53 * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    kept = sorted(perm[:round(keep_fraction * n)])
    want = cloud.points[kept]
    if noise_sigma > 0:
        # the noise starts after all n - 1 shuffle uniforms
        rng = SplitMix64(41)
        rng.u64_batch(n - 1)
        want = want + noise_sigma * rng.gaussians(3 * len(kept)).reshape(-1, 3)
    assert np.array_equal(out.points, want)


def test_splitmix_uniform_range_and_determinism():
    g = SplitMix64(7)
    u = g.uniform_batch(10000)
    assert (u >= 0).all() and (u < 1).all()
    assert SplitMix64(7).uniform_batch(10000).tolist() == u.tolist()
    assert abs(u.mean() - 0.5) < 0.02


def reference_gaussians(rng, n):
    """The module docstring's Box-Muller over ceil(n/2) pairs, in one batch."""
    pairs = (n + 1) // 2
    bits = rng.u64_batch(2 * pairs)
    u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = rad * np.cos(ang)
    out[1::2] = rad * np.sin(ang)
    return out[:n]


@pytest.mark.parametrize("block_pairs", [3, synth._GAUSS_BLOCK_PAIRS])
def test_gaussians_in_blocks_match_one_batch(monkeypatch, block_pairs):
    monkeypatch.setattr(synth, "_GAUSS_BLOCK_PAIRS", block_pairs)
    block = 2 * block_pairs
    g, ref = SplitMix64(2022), SplitMix64(2022)
    for n in (1, block - 1, block, block + 1, 3 * block + 5, 2):
        got = g.gaussians(n)
        assert got.shape == (n,)
        assert np.array_equal(got, reference_gaussians(ref, n))
        assert g._state == ref._state


def test_perturb_noise_working_memory_is_bounded():
    # noise is drawn in blocks and added in place, so about two point arrays
    # are live at once: the noise and the moved points, then the noise and
    # the copy the perturbed PointCloud keeps
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 30000, 7))
    spec = PerturbationSpec(rotation_axis=(0.0, 0.6, 0.8), rotation_angle=0.3,
                            translation=(0.1, -0.2, 0.05), noise_sigma=0.01, seed=11)
    perturb(cloud, spec)
    tracemalloc.start()
    try:
        out, _ = perturb(cloud, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(cloud)
    assert peak < 2.5e6


def test_gaussians_deterministic_and_standard():
    g = SplitMix64(99)
    x = g.gaussians(100001)
    assert SplitMix64(99).gaussians(100001).tolist() == x.tolist()
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02


def test_unit_sphere_phantom():
    cloud = make_phantom(PhantomSpec("ellipsoid", 5000, 3))
    r = np.linalg.norm(cloud.points, axis=1)
    assert np.abs(r - 1.0).max() < 1e-12


def test_ellipsoid_semi_axes():
    cloud = make_phantom(PhantomSpec("ellipsoid", 500, 3, semi_axes=(2.0, 1.0, 0.5)))
    q = (cloud.points[:, 0] / 2.0) ** 2 + cloud.points[:, 1] ** 2 \
        + (cloud.points[:, 2] / 0.5) ** 2
    assert np.abs(q - 1.0).max() < 1e-12


def test_phantom_determinism():
    a = make_phantom(PhantomSpec("two_lobe_pelvis", 2000, 42))
    b = make_phantom(PhantomSpec("two_lobe_pelvis", 2000, 42))
    assert a.points.tolist() == b.points.tolist()
    c = make_phantom(PhantomSpec("two_lobe_pelvis", 2000, 43))
    assert not np.array_equal(a.points, c.points)


def test_two_lobe_bimodal_x():
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 5000, 1,
                                     lobe_offset=(0.6, 0.0, 0.0)))
    x = cloud.points[:, 0]
    valley = np.sum(np.abs(x) < 0.15)
    peak_a = np.sum(np.abs(x - 0.6) < 0.15)
    peak_b = np.sum(np.abs(x + 0.6) < 0.15)
    assert valley < peak_a and valley < peak_b


def test_phantom_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec("cube", 500, 1)
    with pytest.raises(ValueError):
        PhantomSpec("ellipsoid", 50, 1)
    with pytest.raises(ValueError):
        PhantomSpec("ellipsoid", 500, 1, semi_axes=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="lobe_offset must be a 3-vector"):
        PhantomSpec("two_lobe_pelvis", 500, 1, lobe_offset=(0.6, 0.0))


def test_perturb_identity():
    cloud = make_phantom(PhantomSpec("ellipsoid", 500, 9))
    spec = PerturbationSpec(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0,
                            translation=(0.0, 0.0, 0.0), seed=1)
    out, t = perturb(cloud, spec)
    assert np.array_equal(out.points, cloud.points)
    assert np.array_equal(t.rotation, np.eye(3))


def test_perturb_pure_translation():
    cloud = make_phantom(PhantomSpec("ellipsoid", 500, 9))
    spec = PerturbationSpec(rotation_axis=(0.0, 1.0, 0.0), rotation_angle=0.0,
                            translation=(1.0, 2.0, 3.0), seed=1)
    out, t = perturb(cloud, spec)
    assert np.allclose(out.points, cloud.points + np.array([1.0, 2.0, 3.0]))
    assert np.allclose(t.translation, [1, 2, 3])


def test_perturb_exact_transform_residual():
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 1000, 5))
    axis = np.array([1.0, 2.0, -1.0])
    axis /= np.linalg.norm(axis)
    spec = PerturbationSpec(rotation_axis=tuple(axis), rotation_angle=0.4,
                            translation=(0.2, -0.1, 0.05), seed=8)
    out, t = perturb(cloud, spec)
    assert np.array_equal(out.points, t.apply(cloud.points))


def test_perturb_subsample():
    cloud = make_phantom(PhantomSpec("ellipsoid", 1000, 2))
    spec = PerturbationSpec(rotation_axis=(0.0, 0.0, 1.0), rotation_angle=0.0,
                            translation=(0.0, 0.0, 0.0), keep_fraction=0.7, seed=3)
    out, _ = perturb(cloud, spec)
    assert len(out) == 700
    # kept points are a subset of the originals, order preserved
    orig = {tuple(p) for p in cloud.points}
    assert all(tuple(p) in orig for p in out.points)


def test_perturb_noise_rms():
    cloud = make_phantom(PhantomSpec("ellipsoid", 10000, 4))
    sigma = 0.01
    spec = PerturbationSpec(rotation_axis=(0.0, 0.0, 1.0), rotation_angle=0.0,
                            translation=(0.0, 0.0, 0.0), noise_sigma=sigma, seed=5)
    out, _ = perturb(cloud, spec)
    disp = np.linalg.norm(out.points - cloud.points, axis=1)
    rms = np.sqrt(np.mean(disp ** 2))
    assert abs(rms - sigma * np.sqrt(3)) < 0.1 * sigma * np.sqrt(3)


def test_perturb_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(rotation_axis=(1.0, 1.0, 0.0), rotation_angle=0.0,
                         translation=(0, 0, 0))
    with pytest.raises(ValueError):
        PerturbationSpec(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0,
                         translation=(0, 0, 0), keep_fraction=0.0)
    with pytest.raises(ValueError):
        PerturbationSpec(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0,
                         translation=(0, 0, 0), noise_sigma=-1.0)
    with pytest.raises(ValueError, match="rotation_axis must be a 3-vector"):
        PerturbationSpec(rotation_axis=(1.0, 0.0), rotation_angle=0.0, translation=(0, 0, 0))
    with pytest.raises(ValueError, match="translation must be a 3-vector"):
        PerturbationSpec(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0,
                         translation=(0, 0, 0, 0))
    with pytest.raises(ValueError, match="empty cloud"):
        perturb(PointCloud(np.zeros((0, 3))),
                PerturbationSpec(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0,
                                 translation=(0, 0, 0)))


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", np.nan), ("noise_sigma", np.inf), ("rotation_angle", np.nan),
    ("rotation_axis", (np.nan, 0.0, 0.0)), ("translation", (0.0, np.inf, 0.0)),
])
def test_perturb_spec_rejects_non_finite(field, value):
    fields = dict(rotation_axis=(1.0, 0.0, 0.0), rotation_angle=0.0, translation=(0, 0, 0))
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        PerturbationSpec(**fields)


def test_voxelize_single_point():
    cloud = PointCloud(np.array([[0.3, 0.7, 0.1]]))
    stack = voxelize_to_stack(cloud, 1.0, 1.0, closing_iterations=0)
    assert len(stack) == 1
    assert stack.bits[0].sum() == 1
    # closing keeps a single pixel intact
    stack2 = voxelize_to_stack(cloud, 1.0, 1.0, closing_iterations=2)
    assert stack2.bits[0].sum() == 1


def test_voxelize_pitch_halving_doubles_dims():
    cloud = make_phantom(PhantomSpec("ellipsoid", 2000, 6))
    s1 = voxelize_to_stack(cloud, 0.2, 0.2, closing_iterations=0)
    s2 = voxelize_to_stack(cloud, 0.1, 0.2, closing_iterations=0)
    h1, w1 = s1.bits.shape[1:]
    h2, w2 = s2.bits.shape[1:]
    assert w2 in (2 * w1 - 1, 2 * w1)
    assert h2 in (2 * h1 - 1, 2 * h1)


def reference_voxelize(cloud, pixel_pitch, slice_spacing, closing_iterations):
    """The per-slice voxelize_to_stack: each z bin is binned and closed on
    its own."""
    pts = cloud.points
    lo = pts.min(axis=0)
    ix = np.floor((pts[:, 0] - lo[0]) / pixel_pitch).astype(int)
    iy = np.floor((pts[:, 1] - lo[1]) / pixel_pitch).astype(int)
    iz = np.floor((pts[:, 2] - lo[2]) / slice_spacing).astype(int)
    margin = max(closing_iterations, 0)
    width = int(ix.max()) + 1 + 2 * margin
    height = int(iy.max()) + 1 + 2 * margin
    slices = []
    for z in range(int(iz.max()) + 1):
        bits = np.zeros((height, width), dtype=np.uint8)
        sel = iz == z
        bits[iy[sel] + margin, ix[sel] + margin] = 1
        slices.append(binary_close(bits, closing_iterations))
    return slices


@pytest.mark.parametrize("closing_iterations", [0, 1, 2, 3])
def test_voxelize_matches_per_slice_reference(closing_iterations):
    rng = np.random.default_rng(closing_iterations)
    empty_bins = 0
    for _ in range(20):
        n = int(rng.integers(1, 400))
        cloud = PointCloud(rng.standard_normal((n, 3)) * rng.uniform(0.2, 1.0, 3))
        pitch, spacing = rng.uniform(0.05, 0.3, 2)
        stack = voxelize_to_stack(cloud, pitch, spacing, "CT", closing_iterations)
        want = reference_voxelize(cloud, pitch, spacing, closing_iterations)
        assert len(stack) == len(want)
        assert stack.manifest.slice_files == tuple(f"slice_{z:04d}.pgm"
                                                   for z in range(len(want)))
        for z, bits in enumerate(want):
            assert stack.bits[z].dtype == np.uint8 and stack.bits[z].flags.c_contiguous
            assert np.array_equal(stack.bits[z], bits)
        empty_bins += sum(not bits.any() for bits in want)
    assert empty_bins > 0


def test_voxelize_empty_cloud():
    with pytest.raises(ValueError, match="empty"):
        voxelize_to_stack(PointCloud(np.zeros((0, 3))), 1.0, 1.0)


@pytest.mark.parametrize("pixel_pitch, slice_spacing", [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0)])
def test_voxelize_refuses_bad_pitches(pixel_pitch, slice_spacing):
    cloud = PointCloud(np.array([[0.3, 0.7, 0.1]]))
    with pytest.raises(ValueError, match="pitches must be positive"):
        voxelize_to_stack(cloud, pixel_pitch, slice_spacing)


def test_voxelize_refuses_an_oversized_slice():
    """A slice over RasterGrid.MAX_PIXELS is refused from the cloud's x-y
    extent before a point is binned (at pitch 1e-4 the phantom needs
    about 2e4 x 2e4 pixels a slice). The slice count is not bounded: a
    fine slice spacing over a small slice still makes a deep stack."""
    cloud = make_phantom(PhantomSpec("ellipsoid", 300, 6))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^\d+ x \d+ grid at pixel pitch 0\.0001 "
                                             r"with a 2-pixel margin: over 16777216 pixels$"):
            voxelize_to_stack(cloud, 1e-4, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def hausdorff(a, b):
    # symmetric Hausdorff: each one-way maximum of nearest-neighbor distances
    def one_way(src, dst):
        return float(cKDTree(dst).query(src)[0].max())
    return max(one_way(a, b), one_way(b, a))


def test_voxelize_round_trip_hausdorff():
    phantom = make_phantom(PhantomSpec("ellipsoid", 20000, 12))
    pitch = 0.08
    stack = voxelize_to_stack(phantom, pitch, 1.5 * pitch)
    rebuilt = build_point_cloud(stack, 1.0)
    # undo normalization and align centroids (the voxel grid's origin is
    # the cloud's low corner, which the stack does not record)
    from bonereg import max_bone_extent_y
    scale = max_bone_extent_y(stack)
    restored = rebuilt.points * scale
    restored -= restored.mean(axis=0)
    original = phantom.points - phantom.points.mean(axis=0)
    assert hausdorff(restored, original) <= 2 * pitch
