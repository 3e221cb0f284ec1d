"""Binary mask stack IO: a JSON manifest plus 8-bit binary PGM slice files.

Any nonzero pixel counts as bone. A stack holds its masks as one
(slice, row, col) array whose first axis follows the manifest's file list,
which is in ascending z order and never reordered on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODALITIES = ("CT", "MR")


@dataclass(frozen=True)
class StackManifest:
    modality: str
    pixel_spacing_mm: float
    slice_spacing_mm: float
    slice_files: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "slice_files", tuple(self.slice_files))
        if self.modality not in MODALITIES:
            raise ValueError(f"modality must be one of {MODALITIES}, got {self.modality!r}")
        if not (0 < self.pixel_spacing_mm < np.inf and 0 < self.slice_spacing_mm < np.inf):
            raise ValueError("pixel and slice spacing must be positive and finite")
        if len(self.slice_files) == 0:
            raise ValueError("manifest lists no slices")
        if len(set(self.slice_files)) != len(self.slice_files):
            raise ValueError("manifest lists duplicate slice files")


def _binary(bits, ndim: int, what: str) -> np.ndarray:
    """A read-only, C-ordered uint8 copy of bits, which must have ndim
    axes and hold only 0/1 values (bool included); read-only, so the
    check holds for as long as the copy lives."""
    bits = np.asarray(bits)
    if bits.ndim != ndim:
        raise ValueError(f"{what} bits must be {ndim}D")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"{what} bits must contain only 0/1 values")
    out = bits.astype(np.uint8, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SliceMask:
    """One binary slice: bits[row, col] with 1 = bone."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _binary(self.bits, 2, "mask"))

    def __eq__(self, other):
        if not isinstance(other, SliceMask):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)


@dataclass(frozen=True, eq=False)
class SliceStack:
    """A binary mask stack: bits[z, row, col] with 1 = bone, where bits[z]
    is the mask of the z-th file the manifest lists."""

    manifest: StackManifest
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _binary(self.bits, 3, "stack"))
        if len(self.bits) != len(self.manifest.slice_files):
            raise ValueError("slice count does not match manifest")

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other):
        if not isinstance(other, SliceStack):
            return NotImplemented
        return self.manifest == other.manifest and np.array_equal(self.bits, other.bits)


def numbered_stack(bits, modality: str, pixel_spacing_mm: float,
                   slice_spacing_mm: float) -> SliceStack:
    """A stack of the (slice, row, col) bits whose files are named
    slice_0000.pgm, slice_0001.pgm, ... in slice order."""
    names = tuple(f"slice_{i:04d}.pgm" for i in range(len(bits)))
    return SliceStack(StackManifest(modality, float(pixel_spacing_mm),
                                    float(slice_spacing_mm), names), bits)


def _read_pgm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    pos = 2
    header = []
    while len(header) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        header.append(int(raw[start:pos]))
    pos += 1  # single whitespace byte terminating the header
    width, height, maxval = header
    if width < 1 or height < 1:
        raise ValueError(f"{path}: slice is {width}x{height}, needs at least one pixel")
    if not 0 < maxval < 256:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    need = width * height
    data = raw[pos:pos + need]
    if len(data) != need:
        raise ValueError(f"{path}: pixel data truncated")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width)


def _write_pgm(path: Path, gray: np.ndarray) -> None:
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.astype(np.uint8).tobytes())


def _field(doc: dict, key: str, convert, default=None):
    """convert(doc[key]), or convert(default) for an absent key when a
    default is given. A missing key raises KeyError; a value that convert
    rejects raises ValueError naming the key."""
    value = doc[key] if default is None else doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} has a wrong-typed value: {value!r}") from None


def _file_names(value) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(name, str) for name in value)):
        raise TypeError("expected a list of file names")
    return tuple(value)


def load_stack(manifest_path) -> SliceStack:
    """Load and validate a mask stack from its manifest file.

    Pixel values above zero map to 1. Slice order follows the manifest.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    doc = json.loads(manifest_path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{manifest_path}: manifest must hold a JSON object")
    try:
        manifest = StackManifest(
            modality=doc["modality"],
            pixel_spacing_mm=_field(doc, "pixel_spacing_mm", float),
            slice_spacing_mm=_field(doc, "slice_spacing_mm", float),
            slice_files=_field(doc, "slices", _file_names),
        )
    except KeyError as exc:
        raise ValueError(f"{manifest_path}: manifest is missing key {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    base = manifest_path.parent
    grays = []
    for name in manifest.slice_files:
        p = base / name
        if not p.is_file():
            raise FileNotFoundError(f"slice file not found: {p}")
        gray = _read_pgm(p)
        if grays and gray.shape != grays[0].shape:
            shape = grays[0].shape
            raise ValueError(
                f"{p}: slice is {gray.shape[1]}x{gray.shape[0]}, "
                f"expected {shape[1]}x{shape[0]}")
        grays.append(gray)
    return SliceStack(manifest, np.stack(grays) > 0)


def write_stack(stack: SliceStack, out_dir) -> Path:
    """Write manifest.json plus one PGM per slice; returns the manifest path.

    Loading the returned path reproduces the stack bit-exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, bits in zip(stack.manifest.slice_files, stack.bits):
        _write_pgm(out_dir / name, bits * 255)
    doc = {
        "modality": stack.manifest.modality,
        "pixel_spacing_mm": stack.manifest.pixel_spacing_mm,
        "slice_spacing_mm": stack.manifest.slice_spacing_mm,
        "slices": list(stack.manifest.slice_files),
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(doc, indent=2) + "\n")
    return manifest_path
