"""The bonereg benchmark workloads: seeded inputs, one case, output checks.

Every input comes from bonereg.synth (SplitMix64, make_phantom, perturb,
voxelize_to_stack) driven by the workload seed. setup() builds a
workload's case list, run() executes one case and is the only timed
part, and score() checks the case's output and measures its error
against the ground truth that setup() kept.

Perturbations are stratified. Case i of n draws its rotation axis from
the i-th of n equal-height bands of the upper hemisphere (azimuths
golden-angle spaced) and its angle from one of n equal slices of the
workload's angle range, the slices dealt to the cases in a fixed
low-discrepancy order. Iteration counts, and so case times, depend
mostly on axis and angle; stratifying gives every run an even spread of
both, so the case mix stays alike from seed to seed while every value
still comes from the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bonereg import cli, registration
from bonereg.cloud import PointCloud
from bonereg.mask_io import write_stack
from bonereg.registration import (CsnIcpConfig, RigidTransform, partition_indices,
                                  rotation_angle_between)
from bonereg.synth import (PerturbationSpec, PhantomSpec, SplitMix64, make_phantom,
                           perturb, voxelize_to_stack)

NOISE_SIGMA = 0.002
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# lobe centers of the two-lobe phantom (PhantomSpec's default lobe_offset)
LOBE_CENTER = np.array([0.6, 0.0, 0.0])


@dataclass
class Outcome:
    """Checked result of one case. error is None when every check passed."""

    accuracy: dict
    signature: bytes
    error: str | None


def _stratified(rng: SplitMix64, i: int, n: int, lo: float, hi: float) -> float:
    """Uniform draw from the i-th of n equal slices of [lo, hi)."""
    return lo + (hi - lo) * (i + rng.uniform()) / n


def _slice_order(n: int) -> list[int]:
    """Angle slice for each case: a fixed permutation of range(n) that
    does not follow the axis bands."""
    return [int(j) for j in np.argsort((np.arange(n) * GOLDEN) % 1.0, kind="stable")]


def _hemisphere_axis(rng: SplitMix64, i: int, n: int) -> tuple[float, float, float]:
    """Unit axis from the i-th of n equal-height bands of the z >= 0
    hemisphere (equal height means equal area)."""
    z = _stratified(rng, i, n, 0.0, 1.0)
    phi = 2.0 * math.pi * (i * GOLDEN + rng.uniform() / n)
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


def _offset(rng: SplitMix64, half_width: float) -> tuple[float, float, float]:
    return tuple(half_width * (2.0 * rng.uniform() - 1.0) for _ in range(3))


def _pivot_transform(axis, degrees: float, pivot, shift) -> RigidTransform:
    """Rotation by degrees about axis through pivot, then a shift."""
    r = RigidTransform.from_axis_angle(axis, math.radians(degrees)).rotation
    return RigidTransform(r, pivot - r @ pivot + np.asarray(shift))


def _report_error(report, fail_deg: float, rot_err: float) -> str | None:
    """Why a registration report fails the gate, or None."""
    for t in report.final_transforms:
        if not (np.isfinite(t.rotation).all() and np.isfinite(t.translation).all()):
            return "non-finite transform"
    if not report.per_iteration_rmse or not np.isfinite(report.per_iteration_rmse).all():
        return "missing or non-finite rmse trace"
    if report.iterations_used < 1 or min(report.accepted_pairs, report.rejected_pairs) < 0:
        return "bad iteration or pair counts"
    if not report.converged:
        return f"not converged after {report.iterations_used} iterations"
    if not rot_err < fail_deg:
        return f"rotation error {rot_err:.4g} deg over {fail_deg} deg"
    return None


def _signature(report) -> bytes:
    return b"".join(t.rotation.tobytes() + t.translation.tobytes()
                    for t in report.final_transforms) \
        + np.asarray(report.per_iteration_rmse).tobytes()


def _registered_count(source: PointCloud, transforms, bins) -> int:
    return sum(t.apply(source.points[b]).shape[0] for t, b in zip(transforms, bins))


class CloudCsn:
    """csn_icp with the default config on a seeded rigid perturbation of
    the two-lobe phantom; no files or stacks.

    At 2000 points the basin ends near 30 deg (a 29.6 deg move ended
    17 deg off at this commit), so moves stay within 10 to 25 deg.
    """

    name = "cloud-csn"
    fail_deg = 0.5

    def __init__(self, points: int = 2000, cases: int = 24):
        self.points = points
        self.cases = cases

    def setup(self, seed: int, workdir: Path) -> list:
        rng = SplitMix64(seed)
        target = make_phantom(PhantomSpec("two_lobe_pelvis", self.points, rng.next_u64()))
        order = _slice_order(self.cases)
        cases = []
        for i in range(self.cases):
            spec = PerturbationSpec(
                rotation_axis=_hemisphere_axis(rng, i, self.cases),
                rotation_angle=math.radians(_stratified(rng, order[i], self.cases, 10.0, 25.0)),
                translation=_offset(rng, 0.05), noise_sigma=NOISE_SIGMA,
                keep_fraction=0.9, seed=rng.next_u64())
            moving, truth = perturb(target, spec)
            cases.append((moving, target, truth))
        return cases

    def run(self, case):
        moving, target, _ = case
        return registration.csn_icp(moving, target)

    def score(self, case, report) -> Outcome:
        moving, _, truth = case
        est = report.final_transforms[0]
        want = truth.inverse()
        rot = math.degrees(rotation_angle_between(est, want))
        accuracy = {"rot_err_deg": rot,
                    "trans_err": float(np.linalg.norm(est.translation - want.translation)),
                    "rmse": report.final_rmse, "iterations": report.iterations_used,
                    "accepted": report.accepted_pairs, "rejected": report.rejected_pairs}
        error = _report_error(report, self.fail_deg, rot)
        if error is None and _registered_count(moving, [est], [slice(None)]) != len(moving):
            error = "registered point count differs from source"
        return Outcome(accuracy, _signature(report), error)


class PartitionArticulated:
    """partition_register with partitions=2 on the phantom whose x<0 and
    x>=0 halves move by different rigid transforms, each a rotation about
    its own lobe center plus a small shift."""

    name = "partition-articulated"
    fail_deg = 0.5

    def __init__(self, points: int = 2000, cases: int = 16):
        self.points = points
        self.cases = cases

    def setup(self, seed: int, workdir: Path) -> list:
        rng = SplitMix64(seed)
        target = make_phantom(PhantomSpec("two_lobe_pelvis", self.points, rng.next_u64()))
        pts = target.points
        neg = pts[:, 0] < 0.0
        n = self.cases
        order = _slice_order(n)
        cases = []
        for i in range(n):
            t_neg = _pivot_transform(_hemisphere_axis(rng, i, n),
                                     _stratified(rng, order[i], n, 4.0, 10.0),
                                     -LOBE_CENTER, _offset(rng, 0.02))
            t_pos = _pivot_transform(_hemisphere_axis(rng, n - 1 - i, n),
                                     _stratified(rng, order[n - 1 - i], n, 4.0, 10.0),
                                     LOBE_CENTER, _offset(rng, 0.02))
            moved = np.where(neg[:, None], t_neg.apply(pts), t_pos.apply(pts))
            noise = SplitMix64(rng.next_u64()).gaussians(moved.size).reshape(-1, 3)
            moving = PointCloud(moved + NOISE_SIGMA * noise)
            cases.append((moving, target, neg, t_neg, t_pos))
        return cases

    def run(self, case):
        moving, target = case[:2]
        return registration.partition_register(moving, target, CsnIcpConfig(partitions=2))

    def score(self, case, report) -> Outcome:
        moving, _, neg, t_neg, t_pos = case
        bins = partition_indices(moving, 2)
        rot = trans = 0.0
        for b, est in zip(bins, report.final_transforms):
            # score each bin against the transform most of its points carry
            want = (t_neg if neg[b].mean() >= 0.5 else t_pos).inverse()
            rot = max(rot, math.degrees(rotation_angle_between(est, want)))
            trans = max(trans, float(np.linalg.norm(est.translation - want.translation)))
        accuracy = {"rot_err_deg": rot, "trans_err": trans, "rmse": report.final_rmse,
                    "iterations": report.iterations_used,
                    "accepted": report.accepted_pairs, "rejected": report.rejected_pairs}
        error = _report_error(report, self.fail_deg, rot)
        if error is None and len(report.final_transforms) != 2:
            error = f"{len(report.final_transforms)} transforms for 2 partitions"
        elif error is None and _registered_count(
                moving, report.final_transforms, bins) != len(moving):
            error = "registered point count differs from source"
        return Outcome(accuracy, _signature(report), error)


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for ln in fh if ln.strip())


class StackCli:
    """bonereg build-cloud, register --algorithm icp and evaluate, in
    process through bonereg.cli.main, on a CT stack of the phantom and an
    MR stack of a perturbed copy written by setup().

    Rotations are about axes in the y-z plane, across the phantom's long
    x axis. Classic ICP on these stacks does not recover rotations with
    an x component (3.7 to 13.9 deg left over from 6 to 14 deg starts at
    this commit), so those are a known limit kept out of this workload.
    The CT in-plane scale error (1.04 to 1.2 instead of 1) shows here
    and inflates the rotation error; the threshold allows for it.
    """

    name = "stack-cli"
    fail_deg = 4.0

    def __init__(self, phantom_points: int = 30000, cases: int = 16, pitch: float = 0.05):
        self.phantom_points = phantom_points
        self.cases = cases
        self.pitch = pitch

    def setup(self, seed: int, workdir: Path) -> list:
        rng = SplitMix64(seed)
        phantom = make_phantom(PhantomSpec("two_lobe_pelvis", self.phantom_points,
                                           rng.next_u64()))
        ct = write_stack(voxelize_to_stack(phantom, self.pitch, 0.04, "CT"), workdir / "ct")
        order = _slice_order(self.cases)
        cases = []
        for i in range(self.cases):
            psi = math.radians(_stratified(rng, i, self.cases, 0.0, 180.0))
            spec = PerturbationSpec(
                rotation_axis=(0.0, math.cos(psi), math.sin(psi)),
                rotation_angle=math.radians(_stratified(rng, order[i], self.cases, 6.0, 14.0)),
                translation=_offset(rng, 0.05), noise_sigma=NOISE_SIGMA,
                seed=rng.next_u64())
            moved, truth = perturb(phantom, spec)
            mr = write_stack(voxelize_to_stack(moved, self.pitch, 0.06, "MR"),
                             workdir / f"mr{i}")
            cases.append((ct, mr, truth, workdir / f"case{i}"))
        return cases

    def run(self, case):
        ct, mr, _, out = case
        clouds, reg, ev = out / "clouds", out / "reg", out / "eval"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = (cli.main(["build-cloud", str(ct), str(mr), "--out", str(clouds)]),
                     cli.main(["register", str(clouds / "mr_cloud.xyz"),
                               str(clouds / "ct_cloud.xyz"), "--algorithm", "icp",
                               "--out", str(reg)]),
                     cli.main(["evaluate", str(reg / "registered.xyz"),
                               str(clouds / "ct_cloud.xyz"), "--out", str(ev)]))
        return codes, sink.getvalue()

    def score(self, case, raw) -> Outcome:
        _, _, truth, out = case
        codes, text = raw
        if codes != (0, 0, 0):
            return Outcome({}, b"", f"exit codes {codes}: {text.strip()[-200:]}")
        try:
            rep_text = (out / "reg" / "report.json").read_text()
            ov_text = (out / "eval" / "overlap.json").read_text()
            rep, ov = json.loads(rep_text), json.loads(ov_text)
            t = rep["final_transforms"][0]
            est = RigidTransform(np.array(t["R"], dtype=float), np.array(t["T"], dtype=float))
            rot = math.degrees(rotation_angle_between(est, truth.inverse()))
            accuracy = {"rot_err_deg": rot, "rmse": float(rep["per_iteration_rmse"][-1]),
                        "iou": float(ov["iou"]), "dice": float(ov["dice"]),
                        "iterations": int(rep["iterations_used"]),
                        "accepted": int(rep["accepted_pairs"]),
                        "rejected": int(rep["rejected_pairs"])}
            scores = [float(ov[k]) for k in ("iou", "dice", "d_mr", "d_ct")]
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            return Outcome({}, b"", f"missing or malformed output: {exc!r}")
        signature = (rep_text + ov_text).encode()
        values = [accuracy["rmse"], float(ov["rmse"])] + scores
        if not all(math.isfinite(v) for v in values):
            return Outcome(accuracy, signature, "non-finite report field")
        if not all(0.0 <= s <= 1.0 for s in scores):
            return Outcome(accuracy, signature, f"overlap scores outside [0, 1]: {scores}")
        if _line_count(out / "reg" / "registered.xyz") != \
                _line_count(out / "clouds" / "mr_cloud.xyz"):
            return Outcome(accuracy, signature, "registered point count differs from source")
        if not rep["converged"]:
            return Outcome(accuracy, signature, "not converged")
        if not rot < self.fail_deg:
            return Outcome(accuracy, signature,
                           f"rotation error {rot:.4g} deg over {self.fail_deg} deg")
        return Outcome(accuracy, signature, None)


WORKLOADS = {w.name: w for w in (CloudCsn, PartitionArticulated, StackCli)}
