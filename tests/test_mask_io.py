import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bonereg import MaskVolume, SliceMask, SliceStack, StackManifest, load_stack, write_stack


def make_stack(bits_list, pixel=1.0, spacing=5.0, modality="MR"):
    manifest = StackManifest(modality, pixel, spacing,
                             tuple(f"s{i:03d}.pgm" for i in range(len(bits_list))))
    return SliceStack(manifest, np.asarray(bits_list, dtype=np.uint8))


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
    masks = []
    for i in range(3):
        mask = np.zeros((64, 64), dtype=np.uint8)
        mask[10 + i:20, 30:40] = 255
        write_pgm(tmp_path / f"m{i}.pgm", mask)
        masks.append(mask)
    write_manifest(tmp_path / "manifest.json", [f"m{i}.pgm" for i in range(3)],
                   pixel=1 / 5, spacing=1.0)
    stack = load_stack(tmp_path / "manifest.json")
    assert len(stack) == 3
    assert stack.bits.shape == (3, 64, 64)
    # bits[z] is the mask of the z-th manifest file
    for z, mask in enumerate(masks):
        assert stack.bits[z].dtype == np.uint8 and stack.bits[z].flags.c_contiguous
        assert np.array_equal(stack.bits[z], (mask > 0).astype(np.uint8))


def test_nonzero_pixels_map_to_one(tmp_path):
    gray = np.array([[0, 128, 255]], dtype=np.uint8)
    write_pgm(tmp_path / "g.pgm", gray)
    write_manifest(tmp_path / "manifest.json", ["g.pgm"])
    stack = load_stack(tmp_path / "manifest.json")
    assert stack.bits[0].tolist() == [[0, 1, 1]]


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
    with pytest.raises(ValueError, match="only 0/1"):
        SliceMask(bits=np.array([[0, 2]]))
    assert SliceMask(np.eye(2)) == SliceMask(np.eye(2, dtype=bool))
    assert SliceMask(np.eye(2)) != SliceMask(np.zeros((2, 2)))
    # a non-mask is never equal, whatever it holds
    assert SliceMask(np.eye(2)) != "mask"
    assert SliceMask.__eq__(SliceMask(np.eye(2)), np.eye(2)) is NotImplemented


def test_stack_invariants():
    manifest = StackManifest("CT", 1.0, 1.0, ("a.pgm", "b.pgm"))
    with pytest.raises(ValueError, match="3D"):
        SliceStack(manifest, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="only 0/1"):
        SliceStack(manifest, np.full((2, 2, 2), 2))
    for n in (1, 3):
        with pytest.raises(ValueError, match="count"):
            SliceStack(manifest, np.zeros((n, 2, 2)))
    stack = SliceStack(manifest, np.zeros((2, 2, 2)))
    assert stack != stack.manifest
    assert SliceStack.__eq__(stack, stack.bits) is NotImplemented


def names(n):
    return tuple(f"s{i}.pgm" for i in range(n))


@pytest.mark.parametrize("make, ndim, what", [
    (lambda bits: SliceMask(bits), 2, "mask"),
    (lambda bits: SliceStack(StackManifest("MR", 1.0, 1.0, names(len(bits))), bits), 3, "stack"),
    (lambda bits: MaskVolume(bits, (1.0, 1.0, 1.0)), 3, "volume"),
], ids=["SliceMask", "SliceStack", "MaskVolume"])
def test_binary_bits_check(make, ndim, what):
    shape = (2, 3, 4)[:ndim]
    for wrong in (shape[:-1], shape + (1,)):
        with pytest.raises(ValueError, match=f"^{what} bits must be {ndim}D$"):
            make(np.zeros(wrong, dtype=np.uint8))
    two = np.zeros(shape, dtype=np.uint8)
    two.flat[-1] = 2
    with pytest.raises(ValueError, match=f"^{what} bits must contain only 0/1 values$"):
        make(two)
    for dtype in (bool, np.uint8):
        given_bits = (np.arange(np.prod(shape)).reshape(shape) % 3 == 0).astype(dtype)
        kept = make(given_bits).bits
        assert kept.dtype == np.uint8 and kept.flags.c_contiguous
        assert np.array_equal(kept, given_bits)
        given_bits[...] = 0  # the holder keeps its own copy
        assert kept.any()
        # and the copy is read-only, so it stays 0/1
        with pytest.raises(ValueError, match="read-only"):
            kept[(0,) * ndim] = 7
        assert np.array_equal(make(kept).bits, kept)


def test_stack_bits_stay_binary(tmp_path):
    stack = make_stack([[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
    with pytest.raises(ValueError, match="read-only"):
        stack.bits[0, 0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        stack.bits[1] = 0
    assert load_stack(write_stack(stack, tmp_path)) == stack


@settings(max_examples=40, deadline=None)
@given(bits=st.tuples(st.integers(1, 5), st.integers(1, 19), st.integers(1, 19)).flatmap(
           lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))),
       pixel=st.floats(1e-3, 1e3), spacing=st.floats(1e-3, 1e3))
def test_round_trip_exact(bits, pixel, spacing):
    stack = make_stack(bits, pixel=pixel, spacing=spacing)
    with tempfile.TemporaryDirectory() as out:
        assert load_stack(write_stack(stack, out)) == stack


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
        assert np.array_equal(stack.bits[i], m)


@pytest.mark.parametrize("raw, message", [
    (b"P2\n2 1\n255\n0 0\n", "not a binary PGM"),
    (b"P5\n2 1", "truncated PGM header"),
    (b"P5\n2 1\n65535\n" + bytes(4), "only 8-bit PGM supported"),
    (b"P5\n2 1\n0\n" + bytes(2), "only 8-bit PGM supported"),
    (b"P5\n2 2\n255\n" + bytes(3), "pixel data truncated"),
    (b"P5\n-1 4\n255\n", "slice is -1x4, needs at least one pixel"),
    (b"P5\n-1 -1\n255\n", "slice is -1x-1, needs at least one pixel"),
    (b"P5\n0 0\n255\n", "slice is 0x0, needs at least one pixel"),
], ids=["p2", "header", "maxval-16-bit", "maxval-0", "data", "width-negative",
        "both-negative", "no-pixels"])
def test_malformed_pgm(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    write_manifest(tmp_path / "manifest.json", ["bad.pgm"])
    with pytest.raises(ValueError) as exc:
        load_stack(tmp_path / "manifest.json")
    assert str(exc.value).startswith(f"{path}: {message}")


def test_pgm_comment_header(tmp_path):
    body = np.array([[255, 0]], dtype=np.uint8)
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 1\n255\n" + body.tobytes())
    write_manifest(tmp_path / "manifest.json", ["c.pgm"])
    assert load_stack(tmp_path / "manifest.json").bits[0].tolist() == [[1, 0]]
