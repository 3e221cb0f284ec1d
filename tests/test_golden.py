"""Golden outputs: the sha256 of every file one small stack run of the
CLI writes (build-cloud, register --algorithm icp, evaluate), of the
stacks that run reads, of the moved clouds and the report JSON of a few
in-memory registrations, pinned in golden.json with the numpy and scipy
versions that made them.

A change that moves an output byte fails here. When it is meant to, the
new digests go into golden.json in the same change, written by running
this file as a script:

    PYTHONPATH=src python tests/test_golden.py

which names every key whose digest changed, or says none did. With
--check it only compares: it writes nothing, and exits 1 if any digest
changed.

    PYTHONPATH=src python tests/test_golden.py --check

Another numpy or scipy may round differently, so on other versions the
test fails and names both sets of versions.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

from bonereg import (CsnIcpConfig, PerturbationSpec, PhantomSpec, PointCloud, RigidTransform,
                     csn_icp, icp_classic, make_phantom, partition_indices, partition_register,
                     perturb, report_to_dict, rotation_angle_between, voxelize_to_stack,
                     write_stack)
from bonereg.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
STACK_FILES = ("clouds/ct_cloud.xyz", "clouds/mr_cloud.xyz", "reg/registered.xyz",
               "reg/report.json", "eval/overlap.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stack_run_digests(workdir: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Write a CT stack of a two-lobe phantom and an MR stack of a rotated,
    shifted, noisy copy, run the three commands on them and hash what they
    write. Returns the digests of the stack files (each manifest and PGM,
    by its path under workdir) and of the command outputs."""
    phantom = make_phantom(PhantomSpec("two_lobe_pelvis", 10000, 11))
    moved, _ = perturb(phantom, PerturbationSpec(
        rotation_axis=(0.0, 0.6, 0.8), rotation_angle=math.radians(8.0),
        translation=(0.02, -0.01, 0.015), noise_sigma=0.002, seed=5))
    ct = write_stack(voxelize_to_stack(phantom, 0.06, 0.05, "CT"), workdir / "ct")
    mr = write_stack(voxelize_to_stack(moved, 0.06, 0.08, "MR"), workdir / "mr")
    out = workdir / "out"
    codes = (main(["build-cloud", str(ct), str(mr), "--out", str(out / "clouds")]),
             main(["register", str(out / "clouds" / "mr_cloud.xyz"),
                   str(out / "clouds" / "ct_cloud.xyz"), "--algorithm", "icp",
                   "--out", str(out / "reg")]),
             main(["evaluate", str(out / "reg" / "registered.xyz"),
                   str(out / "clouds" / "ct_cloud.xyz"), "--out", str(out / "eval")]))
    assert codes == (0, 0, 0)
    stacks = {path.relative_to(workdir).as_posix(): sha256(path.read_bytes())
              for stack in (ct, mr) for path in sorted(stack.parent.iterdir())}
    return stacks, {name: sha256((out / name).read_bytes()) for name in STACK_FILES}


def registration_cases() -> dict:
    """name -> (register, source, target, config, made): csn_icp on two
    10-25 degree moves of a two-lobe phantom, icp_classic on the first,
    and partition_register on the phantom with its x < 0 and x >= 0 halves
    turned apart. made holds the transforms that took the target to the
    source: the move, or the x < 0 half's and the x >= 0 half's, where
    source point i is target point i moved."""
    target = make_phantom(PhantomSpec("two_lobe_pelvis", 1500, 13))
    moves = [perturb(target, PerturbationSpec(
        rotation_axis=axis, rotation_angle=math.radians(degrees), translation=shift,
        noise_sigma=0.002, keep_fraction=0.9, seed=seed))
        for axis, degrees, shift, seed in (((0.48, 0.6, 0.64), 12.0, (0.03, -0.02, 0.01), 21),
                                           ((-0.6, 0.0, 0.8), 22.0, (-0.04, 0.01, 0.03), 22))]
    pts = target.points
    halves = [RigidTransform.from_axis_angle(axis, math.radians(6.0), shift)
              for axis, shift in (((0.0, 1.0, 0.3), (0.01, 0.0, 0.0)),
                                  ((0.2, 0.0, 1.0), (0.0, -0.01, 0.0)))]
    articulated = PointCloud(np.where(pts[:, :1] < 0.0, halves[0].apply(pts), halves[1].apply(pts)))
    return {"csn_icp_a": (csn_icp, moves[0][0], target, CsnIcpConfig(), moves[0][1:]),
            "csn_icp_b": (csn_icp, moves[1][0], target, CsnIcpConfig(), moves[1][1:]),
            "icp_classic": (icp_classic, moves[0][0], target, CsnIcpConfig(), moves[0][1:]),
            "partition_register_2": (partition_register, articulated, target,
                                     CsnIcpConfig(partitions=2), tuple(halves))}


def registration_digests() -> dict[str, str]:
    """sha256 of each case's report JSON. Every case runs twice onto its
    target and once onto a fresh copy of it, and all three reports must
    be equal."""
    out = {}
    for name, (register, source, target, config, _) in registration_cases().items():
        fresh = PointCloud(target.points.copy())
        texts = {json.dumps(report_to_dict(register(source, onto, config)))
                 for onto in (target, target, fresh)}
        assert len(texts) == 1, f"{name}: reports differ between runs"
        out[name] = sha256(texts.pop().encode())
    return out


def move_digests() -> dict[str, str]:
    """sha256 of the points of the two subsampled, noisy moves that the
    csn_icp cases register."""
    cases = registration_cases()
    return {name: sha256(cases[name][1].points.tobytes()) for name in ("csn_icp_a", "csn_icp_b")}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def pinned_golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    pinned = {k: golden[k] for k in ("numpy", "scipy")}
    assert versions() == pinned, (
        f"golden digests are pinned for numpy {pinned['numpy']} and scipy {pinned['scipy']}, "
        f"this is numpy {np.__version__} and scipy {scipy.__version__}")
    return golden


@pytest.fixture(scope="module")
def stack_run(tmp_path_factory):
    return stack_run_digests(tmp_path_factory.mktemp("stack_run"))


def test_stack_cli_outputs_match_golden(stack_run):
    assert stack_run[1] == pinned_golden()["stack_cli"]


def test_synth_outputs_match_golden(stack_run):
    assert {"stacks": stack_run[0], "moves": move_digests()} == pinned_golden()["synth"]


def test_registration_reports_match_golden():
    assert registration_digests() == pinned_golden()["registration"]


# bounds on (rotation error in degrees, translation error), one pair per bin
# for partition_register_2. With the numpy and scipy pinned in golden.json the
# errors are csn_icp_a 0.0177 and 1.8e-4, csn_icp_b 0.0126 and 1.0e-4,
# icp_classic 0.0184 and 1.1e-4, and partition_register_2 0.00055 and 2.2e-6,
# then 0 and 1e-15; the two halves are 7.2 degrees apart
ACCURACY = {"csn_icp_a": [(0.05, 5e-4)], "csn_icp_b": [(0.05, 5e-4)],
            "icp_classic": [(0.05, 5e-4)],
            "partition_register_2": [(0.005, 2e-5), (0.005, 2e-5)]}


@pytest.mark.parametrize("name", ACCURACY)
def test_registration_cases_recover_their_transforms(name):
    """Each case recovers the inverse of the transforms that made it; each
    partition bin is scored against the half most of its points carry. It
    reads no pinned versions, so it runs on any numpy and scipy."""
    register, source, target, config, made = registration_cases()[name]
    report = register(source, target, config)
    if len(made) == 1:
        wants = [made[0].inverse()]
    else:
        below = target.points[:, 0] < 0.0
        wants = [made[0 if below[b].mean() >= 0.5 else 1].inverse()
                 for b in partition_indices(source, len(made))]
    errors = [(math.degrees(rotation_angle_between(got, want)),
               float(np.linalg.norm(got.translation - want.translation)))
              for got, want in zip(report.final_transforms, wants, strict=True)]
    assert all(rot < rot_max and trans < trans_max
               for (rot, trans), (rot_max, trans_max) in zip(errors, ACCURACY[name])), errors


def flat(doc: dict, prefix: str = "") -> dict[str, str]:
    """Leaves of nested dicts by their slash-joined key path."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(flat(value, f"{prefix}{key}/"))
        else:
            out[prefix + key] = value
    return out


if __name__ == "__main__":
    import contextlib
    import io
    import sys
    import tempfile

    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        stacks, outputs = stack_run_digests(Path(tmp))
    old = flat(json.loads(GOLDEN.read_text())) if GOLDEN.exists() else {}
    doc = {**versions(), "stack_cli": outputs, "registration": registration_digests(),
           "synth": {"stacks": stacks, "moves": move_digests()}}
    if not check:
        GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
    new = flat(doc)
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in changed:
        print(f"changed {key}: {old.get(key)} -> {new.get(key)}")
    if not changed:
        print("no digest changed")
    sys.exit(1 if check and changed else 0)
