import json

import numpy as np
import pytest

from bonereg import SliceMask, SliceStack, StackManifest, load_stack, write_stack


def make_stack(bits_list, pixel=1.0, spacing=5.0, modality="MR"):
    manifest = StackManifest(modality, pixel, spacing,
                             tuple(f"s{i:03d}.pgm" for i in range(len(bits_list))))
    slices = tuple(SliceMask(bits=np.asarray(b, dtype=np.uint8), z_index=i)
                   for i, b in enumerate(bits_list))
    return SliceStack(manifest, slices)


def write_pgm(path, arr, maxval=255):
    arr = np.asarray(arr, dtype=np.uint8)
    h, w = arr.shape
    path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode() + arr.tobytes())


def write_manifest(path, names, pixel=0.2, spacing=1.0, modality="MR"):
    path.write_text(json.dumps({
        "modality": modality,
        "pixel_spacing_mm": pixel,
        "slice_spacing_mm": spacing,
        "slices": list(names),
    }))


def test_identity_load(tmp_path):
    mask = np.zeros((64, 64), dtype=np.uint8)
    mask[10:20, 30:40] = 255
    for i in range(3):
        write_pgm(tmp_path / f"m{i}.pgm", mask)
    write_manifest(tmp_path / "manifest.json", [f"m{i}.pgm" for i in range(3)],
                   pixel=1 / 5, spacing=1.0)
    stack = load_stack(tmp_path / "manifest.json")
    assert len(stack) == 3
    assert [sl.z_index for sl in stack.slices] == [0, 1, 2]
    for sl in stack.slices:
        assert np.array_equal(sl.bits, (mask > 0).astype(np.uint8))


def test_nonzero_pixels_map_to_one(tmp_path):
    gray = np.array([[0, 128, 255]], dtype=np.uint8)
    write_pgm(tmp_path / "g.pgm", gray)
    write_manifest(tmp_path / "manifest.json", ["g.pgm"])
    stack = load_stack(tmp_path / "manifest.json")
    assert stack.slices[0].bits.tolist() == [[0, 1, 1]]


def test_dimension_mismatch(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "b.pgm", np.zeros((4, 5), dtype=np.uint8))
    write_manifest(tmp_path / "manifest.json", ["a.pgm", "b.pgm"])
    with pytest.raises(ValueError, match="slice is"):
        load_stack(tmp_path / "manifest.json")


def test_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_stack(tmp_path / "nope.json")
    write_manifest(tmp_path / "manifest.json", ["gone.pgm"])
    with pytest.raises(FileNotFoundError, match="gone.pgm"):
        load_stack(tmp_path / "manifest.json")


def test_bad_manifests(tmp_path):
    with pytest.raises(ValueError):
        StackManifest("MR", 0.0, 1.0, ("a.pgm",))
    with pytest.raises(ValueError):
        StackManifest("MR", 1.0, -1.0, ("a.pgm",))
    with pytest.raises(ValueError):
        StackManifest("MR", 1.0, 1.0, ())
    with pytest.raises(ValueError):
        StackManifest("MR", 1.0, 1.0, ("a.pgm", "a.pgm"))
    with pytest.raises(ValueError):
        StackManifest("XR", 1.0, 1.0, ("a.pgm",))
    with pytest.raises(ValueError, match="finite"):
        StackManifest("MR", np.inf, 1.0, ("a.pgm",))
    with pytest.raises(ValueError, match="finite"):
        StackManifest("MR", 1.0, np.inf, ("a.pgm",))


def test_mask_validation():
    with pytest.raises(ValueError):
        SliceMask(bits=np.array([[0, 2]]), z_index=0)
    with pytest.raises(ValueError):
        SliceMask(bits=np.zeros((2, 2)), z_index=-1)


def test_stack_invariants():
    manifest = StackManifest("CT", 1.0, 1.0, ("a.pgm", "b.pgm"))
    a = SliceMask(bits=np.zeros((2, 2)), z_index=0)
    b = SliceMask(bits=np.zeros((2, 2)), z_index=0)
    with pytest.raises(ValueError, match="increasing"):
        SliceStack(manifest, (a, b))
    with pytest.raises(ValueError, match="count"):
        SliceStack(manifest, (a,))


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(5):
        n = int(rng.integers(1, 6))
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        bits = [rng.integers(0, 2, size=(h, w)) for _ in range(n)]
        stack = make_stack(bits, pixel=float(rng.uniform(0.1, 2)),
                           spacing=float(rng.uniform(0.1, 5)))
        manifest_path = write_stack(stack, tmp_path / f"out{trial}")
        assert load_stack(manifest_path) == stack


def test_write_creates_directory(tmp_path):
    stack = make_stack([np.ones((2, 2))])
    path = write_stack(stack, tmp_path / "deep" / "deeper")
    assert path.is_file()


def test_write_to_unwritable_target(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    stack = make_stack([np.ones((2, 2))])
    with pytest.raises(OSError):
        write_stack(stack, blocker)


def test_load_preserves_manifest_order(tmp_path):
    # distinct masks named so sorted order differs from manifest order
    masks = [np.full((2, 2), i % 2, dtype=np.uint8) for i in range(3)]
    names = ["zz.pgm", "aa.pgm", "mm.pgm"]
    for name, m in zip(names, masks):
        write_pgm(tmp_path / name, m * 255)
    write_manifest(tmp_path / "manifest.json", names)
    stack = load_stack(tmp_path / "manifest.json")
    assert stack.manifest.slice_files == tuple(names)
    for i, m in enumerate(masks):
        assert np.array_equal(stack.slices[i].bits, m)


def test_pgm_comment_header(tmp_path):
    body = np.array([[255, 0]], dtype=np.uint8)
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 1\n255\n" + body.tobytes())
    write_manifest(tmp_path / "manifest.json", ["c.pgm"])
    assert load_stack(tmp_path / "manifest.json").slices[0].bits.tolist() == [[1, 0]]
