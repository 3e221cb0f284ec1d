"""Deterministic synthetic clouds: phantoms, perturbations, voxelization.

All randomness flows from an explicit splitmix-style 64-bit generator so
any reimplementation can reproduce the streams bit-exactly. The state
update and output mix are:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

A uniform double in [0, 1) takes the top 53 bits: (output >> 11) * 2^-53.
Gaussians come from Box-Muller pairs over two consecutive outputs, with
the first uniform shifted into (0, 1]:

    u1 <- ((bits1 >> 11) + 1) * 2^-53
    u2 <- (bits2 >> 11) * 2^-53
    g1 <- sqrt(-2 ln u1) * cos(2 pi u2)
    g2 <- sqrt(-2 ln u1) * sin(2 pi u2)

gaussians(n) always consumes whole pairs (ceil(n/2) of them). Outputs
are computed in batches in wrapping uint64 arithmetic
(SplitMix64.u64_batch); a single draw is a batch of one. gaussians fills
its output a fixed number of pairs at a time, each block taking the next
outputs of the same stream, so its draws and the generator state after
them are those of one batch, and its temporaries stay one block long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .mask_io import SliceStack, _field, numbered_stack
from .metrics import RasterGrid, binary_close
from .registration import RigidTransform

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Box-Muller pairs per block of SplitMix64.gaussians
_GAUSS_BLOCK_PAIRS = 1 << 11

PHANTOM_SHAPES = ("ellipsoid", "two_lobe_pelvis")

# two-lobe geometry: slightly unequal lobes avoid an exactly symmetric
# phantom, and the bridge spans the gap between them
_LOBE_AXES_A = (0.45, 0.60, 0.50)
_LOBE_AXES_B = (0.42, 0.55, 0.48)
_BRIDGE_HALF_YZ = (0.18, 0.15)


class SplitMix64:
    """The documented splitmix-style generator; see the module docstring
    for the exact update formulas."""

    def __init__(self, seed: int):
        self._state = int(seed) % 2 ** 64

    def next_u64(self) -> int:
        return int(self.u64_batch(1)[0])

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return float(self.uniform_batch(1)[0])

    def u64_batch(self, n: int) -> np.ndarray:
        """The next n outputs, in stream order."""
        if n == 0:
            return np.zeros(0, dtype=np.uint64)
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = int(z[-1])
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform_batch(self, n: int) -> np.ndarray:
        return (self.u64_batch(n) >> np.uint64(11)) * 2.0 ** -53

    def gaussians(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller pairs, written into one
        output _GAUSS_BLOCK_PAIRS pairs at a time; the blocks take the
        stream in order, so the draws are those of a single batch."""
        pairs = (n + 1) // 2
        out = np.empty(2 * pairs)
        for start in range(0, pairs, _GAUSS_BLOCK_PAIRS):
            stop = min(start + _GAUSS_BLOCK_PAIRS, pairs)
            bits = self.u64_batch(2 * (stop - start))
            u1 = ((bits[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
            u2 = (bits[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            rad = np.sqrt(-2.0 * np.log(u1))
            ang = 2.0 * np.pi * u2
            out[2 * start:2 * stop:2] = rad * np.cos(ang)
            out[2 * start + 1:2 * stop:2] = rad * np.sin(ang)
        return out[:n]


@dataclass(frozen=True)
class PhantomSpec:
    """Deterministic phantom description.

    semi_axes applies to the ellipsoid shape; lobe_offset places the two
    lobes of the pelvis-like shape at +offset and -offset.
    """

    shape: str
    point_count: int
    seed: int
    lobe_offset: tuple[float, float, float] = (0.6, 0.0, 0.0)
    semi_axes: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.shape not in PHANTOM_SHAPES:
            raise ValueError(f"shape must be one of {PHANTOM_SHAPES}")
        if self.point_count < 100:
            raise ValueError("point_count must be at least 100")
        offset = tuple(float(x) for x in self.lobe_offset)
        axes = tuple(float(x) for x in self.semi_axes)
        if len(offset) != 3:
            raise ValueError("lobe_offset must be a 3-vector")
        if len(axes) != 3 or min(axes) <= 0:
            raise ValueError("semi_axes must be three positive values")
        object.__setattr__(self, "lobe_offset", offset)
        object.__setattr__(self, "semi_axes", axes)


@dataclass(frozen=True)
class PerturbationSpec:
    """Rigid motion plus optional subsampling and Gaussian noise."""

    rotation_axis: tuple[float, float, float]
    rotation_angle: float
    translation: tuple[float, float, float]
    noise_sigma: float = 0.0
    keep_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        axis = tuple(float(x) for x in self.rotation_axis)
        if len(axis) != 3:
            raise ValueError("rotation_axis must be a 3-vector")
        norm = float(np.linalg.norm(axis))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("rotation_axis must be a unit vector")
        trans = tuple(float(x) for x in self.translation)
        if len(trans) != 3:
            raise ValueError("translation must be a 3-vector")
        values = (*axis, self.rotation_angle, *trans, self.noise_sigma, self.keep_fraction)
        if not np.isfinite(values).all():
            raise ValueError("perturbation values must be finite")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        object.__setattr__(self, "rotation_axis", axis)
        object.__setattr__(self, "translation", trans)


def _ellipsoid_surface(rng: SplitMix64, n: int, axes) -> np.ndarray:
    """Surface samples of x^2/a^2 + y^2/b^2 + z^2/c^2 = 1, from a uniform
    sphere direction per point. Stream: n uniforms for the elevations,
    then n for the azimuths."""
    u = rng.uniform_batch(n)
    v = rng.uniform_batch(n)
    cz = 1.0 - 2.0 * u
    sz = np.sqrt(np.maximum(0.0, 1.0 - cz * cz))
    ang = 2.0 * np.pi * v
    a, b, c = axes
    return np.column_stack([a * sz * np.cos(ang), b * sz * np.sin(ang), c * cz])


def _box_lateral_surface(rng: SplitMix64, n: int, half) -> np.ndarray:
    """Samples on the four faces of a box that are parallel to its long
    (x) axis. Stream per batch: n face picks, n axial coords, n cross
    coords."""
    hx, hy, hz = half
    face = np.minimum((rng.uniform_batch(n) * 4).astype(int), 3)
    x = (2.0 * rng.uniform_batch(n) - 1.0) * hx
    t = 2.0 * rng.uniform_batch(n) - 1.0
    y = np.where(face == 0, hy, np.where(face == 1, -hy, t * hy))
    z = np.where(face < 2, t * hz, np.where(face == 2, hz, -hz))
    return np.column_stack([x, y, z])


def make_phantom(spec: PhantomSpec) -> PointCloud:
    """Deterministic phantom cloud for a spec; identical specs give
    bit-identical clouds.

    The pelvis-like shape is two ellipsoid lobes at +/- lobe_offset joined
    by a block, with 40/40/20 percent of the points on lobe A, lobe B and
    the bridge."""
    rng = SplitMix64(spec.seed)
    if spec.shape == "ellipsoid":
        return PointCloud(_ellipsoid_surface(rng, spec.point_count, spec.semi_axes))
    offset = np.asarray(spec.lobe_offset, dtype=float)
    n = spec.point_count
    n_a = (2 * n) // 5
    n_b = (2 * n) // 5
    n_bridge = n - n_a - n_b
    a = _ellipsoid_surface(rng, n_a, _LOBE_AXES_A) + offset
    b = _ellipsoid_surface(rng, n_b, _LOBE_AXES_B) - offset
    hx = max(0.55 * float(np.linalg.norm(offset)), 0.1)
    bridge = _box_lateral_surface(rng, n_bridge, (hx,) + _BRIDGE_HALF_YZ)
    return PointCloud(np.vstack([a, b, bridge]))


def perturb(cloud: PointCloud, spec: PerturbationSpec) -> tuple[PointCloud, RigidTransform]:
    """Subsample, rigidly transform, then add isotropic Gaussian noise.

    Returns the perturbed cloud and the exact transform that was applied.
    Stream order: when keep_fraction < 1, n - 1 uniforms u drive a
    Fisher-Yates shuffle that picks the kept points (the swap for
    i = n-1, ..., 1 takes j = floor(u * (i + 1)) from the next uniform);
    then, when noise_sigma > 0, 3m gaussians supply the noise in
    point-major x, y, z order. All n - 1 uniforms are drawn, but only the
    swaps for i = n-1, ..., m run: the later ones only reorder perm[:m],
    and the kept points are taken in sorted index order."""
    rng = SplitMix64(spec.seed)
    pts = cloud.points
    n = len(pts)
    if n == 0:
        raise ValueError("empty cloud")
    if spec.keep_fraction < 1.0:
        m = max(1, int(round(spec.keep_fraction * n)))
        picks = (rng.uniform_batch(n - 1) * np.arange(n, 1, -1)).astype(np.int64)
        perm = np.arange(n)
        for i, j in zip(range(n - 1, m - 1, -1), picks[:n - m].tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        pts = pts[np.sort(perm[:m])]
    transform = RigidTransform.from_axis_angle(spec.rotation_axis, spec.rotation_angle,
                                               spec.translation)
    out = transform.apply(pts)
    if spec.noise_sigma > 0:
        noise = rng.gaussians(3 * len(pts)).reshape(-1, 3)
        noise *= spec.noise_sigma
        noise += out  # float addition commutes: bit for bit out + noise
        out = noise
    return PointCloud(out), transform


def voxelize_to_stack(cloud: PointCloud, pixel_pitch: float, slice_spacing: float,
                      modality: str = "MR", closing_iterations: int = 2) -> SliceStack:
    """Bin points to a voxel grid anchored at the cloud's low corner; the
    (z bin, row, col) volume is the stack's bits, each slice closed on its
    own by one binary_close call to form solid regions.

    The in-plane border is padded by closing_iterations pixels so the
    closing never clips at the image edge. The slice size comes from the
    cloud's x-y extent (RasterGrid.size_covering), and a slice over
    RasterGrid.MAX_PIXELS is refused before any point is binned; the
    slice count is not bounded."""
    if not (pixel_pitch > 0 and slice_spacing > 0):
        raise ValueError("pitches must be positive")
    if len(cloud) == 0:
        raise ValueError("empty cloud")
    lo, hi = cloud.bounding_box()
    margin = max(closing_iterations, 0)
    width, height = RasterGrid.size_covering(lo, hi, pixel_pitch, margin)
    pts = cloud.points
    ix = np.floor((pts[:, 0] - lo[0]) / pixel_pitch).astype(int)
    iy = np.floor((pts[:, 1] - lo[1]) / pixel_pitch).astype(int)
    iz = np.floor((pts[:, 2] - lo[2]) / slice_spacing).astype(int)
    volume = np.zeros((int(iz.max()) + 1, height, width), dtype=np.uint8)
    volume[iz, iy + margin, ix + margin] = 1
    return numbered_stack(binary_close(volume, closing_iterations), modality,
                          pixel_pitch, slice_spacing)


def _floats(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError("expected a list of numbers")
    return tuple(float(x) for x in value)


def phantom_spec_from_dict(doc: dict) -> PhantomSpec:
    if not isinstance(doc, dict):
        raise ValueError("phantom spec must be a JSON object")
    kwargs = {"shape": doc["shape"], "point_count": _field(doc, "point_count", int),
              "seed": _field(doc, "seed", int)}
    for key in ("lobe_offset", "semi_axes"):
        if key in doc:
            kwargs[key] = _field(doc, key, _floats)
    return PhantomSpec(**kwargs)


def perturbation_spec_from_dict(doc: dict) -> PerturbationSpec:
    if not isinstance(doc, dict):
        raise ValueError("perturbation spec must be a JSON object")
    return PerturbationSpec(
        rotation_axis=_field(doc, "rotation_axis", _floats),
        rotation_angle=_field(doc, "rotation_angle", float),
        translation=_field(doc, "translation", _floats),
        noise_sigma=_field(doc, "noise_sigma", float, 0.0),
        keep_fraction=_field(doc, "keep_fraction", float, 1.0),
        seed=_field(doc, "seed", int, 0),
    )
