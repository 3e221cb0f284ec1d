"""Golden outputs: the sha256 of every file one small stack run of the
CLI writes (build-cloud, register --algorithm icp, evaluate), pinned in
golden.json with the numpy and scipy versions that made them.

A change that moves an output byte fails here. When it is meant to, the
new digests go into golden.json in the same change, written by running
this file as a script:

    PYTHONPATH=src python tests/test_golden.py

Another numpy or scipy may round differently, so on other versions the
test fails and names both sets of versions.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy

from bonereg import (PerturbationSpec, PhantomSpec, make_phantom, perturb, voxelize_to_stack,
                     write_stack)
from bonereg.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
STACK_FILES = ("clouds/ct_cloud.xyz", "clouds/mr_cloud.xyz", "reg/registered.xyz",
               "reg/report.json", "eval/overlap.json")


def stack_run_digests(workdir: Path) -> dict[str, str]:
    """Write a CT stack of a two-lobe phantom and an MR stack of a rotated,
    shifted, noisy copy, run the three commands on them and hash what they
    write."""
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
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in STACK_FILES}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_stack_cli_outputs_match_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    pinned = {k: golden[k] for k in ("numpy", "scipy")}
    assert versions() == pinned, (
        f"golden digests are pinned for numpy {pinned['numpy']} and scipy {pinned['scipy']}, "
        f"this is numpy {np.__version__} and scipy {scipy.__version__}")
    assert stack_run_digests(tmp_path) == golden["stack_cli"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        digests = stack_run_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({**versions(), "stack_cli": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
