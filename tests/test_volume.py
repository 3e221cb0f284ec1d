import numpy as np
import pytest

from bonereg import (MaskVolume, PointCloud, build_point_cloud, extract_surface,
                     interpolate_z, max_bone_extent_y, scale_factor)

from test_mask_io import make_stack


def catmull_rom(p0, p1, p2, p3, t):
    # independent scalar oracle, polynomial form
    return 0.5 * ((2 * p1) + (-p0 + p2) * t
                  + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t * t
                  + (-p0 + 3 * p1 - 3 * p2 + p3) * t ** 3)


def test_extent_single_slice():
    bits = np.zeros((32, 8))
    bits[10:21, 3] = 1  # bone rows 10..=20
    stack = make_stack([bits], pixel=1.0)
    assert max_bone_extent_y(stack) == 11


def test_extent_max_then_scale():
    a = np.zeros((16, 4))
    a[2:7, 1] = 1  # 5 rows
    b = np.zeros((16, 4))
    b[3:12, 2] = 1  # 9 rows
    stack = make_stack([a, b], pixel=2.0)
    assert max_bone_extent_y(stack) == 18


def test_extent_empty_stack_errors():
    stack = make_stack([np.zeros((4, 4))])
    with pytest.raises(ValueError, match="no bone content"):
        max_bone_extent_y(stack)


def test_scale_factor():
    mr = np.zeros((220, 8))
    mr[10:210, 4] = 1  # extent 200
    ct = np.zeros((220, 8))
    ct[50:150, 4] = 1  # extent 100
    assert scale_factor(make_stack([ct]), make_stack([mr])) == 2.0
    assert scale_factor(make_stack([ct]), make_stack([ct])) == 1.0


def test_interpolate_constant_stack():
    bits = np.zeros((6, 6))
    bits[2:4, 2:5] = 1
    stack = make_stack([bits, bits], pixel=1.0, spacing=5.0)
    vol = interpolate_z(stack)
    assert vol.bits.shape[0] == 6
    assert vol.voxel_pitch == (1.0, 1.0, 1.0)
    for z in range(6):
        assert np.array_equal(vol.bits[z], bits.astype(np.uint8))


def test_interpolate_midpoint_is_bone():
    # all-one then all-zero, spacing twice the pixel pitch: the middle
    # sample sits at t=0.5 where replicated-edge Catmull-Rom gives 0.5
    one = np.ones((3, 3))
    zero = np.zeros((3, 3))
    stack = make_stack([one, zero], pixel=1.0, spacing=2.0)
    vol = interpolate_z(stack)
    assert vol.bits.shape[0] == 3
    assert vol.bits[0].all()
    assert vol.bits[1].all()  # value exactly 0.5, threshold is inclusive
    assert not vol.bits[2].any()
    assert catmull_rom(1, 1, 0, 0, 0.5) == 0.5


def test_interpolate_matches_scalar_oracle():
    # 0,1,1,0 column profile, spacing = 4 pixel pitches so t runs over
    # exact dyadics and the oracle comparison is bit-exact
    profile = [0.0, 1.0, 1.0, 0.0]
    slices = [np.full((2, 2), v) for v in profile]
    stack = make_stack(slices, pixel=1.0, spacing=4.0)
    vol = interpolate_z(stack)
    assert vol.bits.shape[0] == 13
    padded = [profile[0]] + profile + [profile[-1]]
    for j in range(13):
        zeta = j / 4.0
        i = min(int(zeta), 2)
        t = zeta - i
        expected = catmull_rom(padded[i], padded[i + 1], padded[i + 2], padded[i + 3], t)
        assert vol.bits[j, 0, 0] == (1 if expected >= 0.5 else 0), f"sample {j}"


def test_interpolate_single_slice_errors():
    with pytest.raises(ValueError, match="at least 2"):
        interpolate_z(make_stack([np.ones((2, 2))]))


def surface_oracle(bits):
    # brute-force 6-neighbor check
    nz, ny, nx = bits.shape
    out = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not bits[z, y, x]:
                    continue
                exposed = False
                for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    zz, yy, xx = z + dz, y + dy, x + dx
                    if not (0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx) \
                            or not bits[zz, yy, xx]:
                        exposed = True
                        break
                if exposed:
                    out.append((z, y, x))
    return out


def test_surface_single_voxel():
    bits = np.zeros((3, 3, 3), dtype=np.uint8)
    bits[1, 1, 1] = 1
    cloud = extract_surface(MaskVolume(bits, (1.0, 1.0, 1.0)))
    assert cloud.points.tolist() == [[1.5, 1.5, 1.5]]


def test_surface_solid_block():
    bits = np.ones((3, 3, 3), dtype=np.uint8)
    vol = MaskVolume(bits, (1.0, 1.0, 1.0))
    cloud = extract_surface(vol)
    assert len(cloud) == 26  # everything but the center voxel
    assert len(surface_oracle(bits)) == 26
    assert len(extract_surface(vol, mode="full")) == 27


def test_surface_matches_oracle_random():
    rng = np.random.default_rng(5)
    bits = (rng.random((6, 5, 4)) < 0.5).astype(np.uint8)
    vol = MaskVolume(bits, (0.5, 0.5, 0.5))
    cloud = extract_surface(vol)
    expected = [((x + 0.5) * 0.5, (y + 0.5) * 0.5, (z + 0.5) * 0.5)
                for z, y, x in surface_oracle(bits)]
    assert np.allclose(cloud.points, expected)


@pytest.mark.parametrize("make, message", [
    (lambda: MaskVolume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0)), "voxel pitches"),
    (lambda: MaskVolume(np.zeros((2, 2, 2)), (1.0, 1.0)), "voxel pitches"),
    (lambda: extract_surface(MaskVolume(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0)), "shell"),
     "mode must be one of"),
    (lambda: build_point_cloud(ball_stack(), 0.0), "in_plane_scale must be positive"),
    (lambda: build_point_cloud(ball_stack(), np.nan), "in_plane_scale must be positive"),
], ids=["zero-pitch", "two-pitches", "surface-mode", "zero-scale", "nan-scale"])
def test_volume_refuses_bad_arguments(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_surface_empty_volume():
    vol = MaskVolume(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0))
    assert len(extract_surface(vol)) == 0


def ball_stack(radius_px=10, size=28, n_slices=9, pixel=1.0, spacing=2.0):
    # sphere sampled on a slice grid: bone where inside the ball
    slices = []
    zs = np.linspace(-radius_px, radius_px, n_slices)
    for z in zs:
        yy, xx = np.mgrid[0:size, 0:size]
        r2 = (yy - size / 2 + 0.5) ** 2 + (xx - size / 2 + 0.5) ** 2
        slices.append((r2 + z * z <= radius_px ** 2).astype(np.uint8))
    return make_stack(slices, pixel=pixel, spacing=spacing)


def test_build_cloud_normalized_extent():
    stack = ball_stack()
    cloud = build_point_cloud(stack, 1.0)
    ys = cloud.points[:, 1]
    extent = max_bone_extent_y(stack)
    pitch = stack.manifest.pixel_spacing_mm / extent  # one voxel, normalized
    assert abs((ys.max() - ys.min()) - 1.0) <= pitch + 1e-12


def test_build_cloud_scale_linearity():
    stack = ball_stack()
    c1 = build_point_cloud(stack, 1.0)
    c2 = build_point_cloud(stack, 2.0)
    # doubling the in-plane scale doubles x, y before normalization; the
    # normalizer also doubles, so x, y agree and z halves
    assert np.allclose(c2.points[:, :2], c1.points[:, :2], atol=1e-12)
    assert np.allclose(c2.points[:, 2], c1.points[:, 2] / 2.0, atol=1e-12)


def test_build_cloud_empty_errors():
    stack = make_stack([np.zeros((4, 4)), np.zeros((4, 4))])
    with pytest.raises(ValueError, match="no bone content"):
        build_point_cloud(stack, 1.0)


def test_build_cloud_translation_equivariance():
    base = np.zeros((20, 20))
    base[4:9, 5:11] = 1
    moved = np.roll(np.roll(base, 3, axis=0), 2, axis=1)
    s1 = make_stack([base, base, base], pixel=1.0, spacing=2.0)
    s2 = make_stack([moved, moved, moved], pixel=1.0, spacing=2.0)
    c1 = build_point_cloud(s1, 1.0)
    c2 = build_point_cloud(s2, 1.0)
    extent = max_bone_extent_y(s1)
    offset = np.array([2.0, 3.0, 0.0]) / extent  # (dx, dy) pixels, scaled
    assert np.allclose(c2.points, c1.points + offset, atol=1e-12)


def test_z_constant_stack_stays_z_constant():
    bits = np.zeros((8, 8))
    bits[2:6, 3:7] = 1
    stack = make_stack([bits] * 4, pixel=1.0, spacing=3.0)
    vol = interpolate_z(stack)
    for z in range(vol.bits.shape[0]):
        assert np.array_equal(vol.bits[z], vol.bits[0])
