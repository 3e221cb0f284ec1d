import json
import tracemalloc

import numpy as np
import pytest

import bonereg
from bonereg import (PhantomSpec, PointCloud, RigidTransform, evaluate_slices, load_xyz,
                     make_phantom, perturbation_spec_from_dict, phantom_spec_from_dict,
                     save_xyz, voxelize_to_stack, write_stack)
from bonereg import cli
from bonereg.cli import main


def test_public_names_resolve():
    for name in bonereg.__all__:
        getattr(bonereg, name)
    namespace = {}
    exec("from bonereg import *", namespace)
    assert set(bonereg.__all__) <= set(namespace)


def write_specs(tmp_path, phantom=None, perturbation=None):
    pdoc = phantom or {"shape": "two_lobe_pelvis", "point_count": 2000, "seed": 7}
    vdoc = perturbation or {"rotation_axis": [0.0, 0.0, 1.0],
                            "rotation_angle": 0.2,
                            "translation": [0.05, 0.0, -0.02],
                            "noise_sigma": 0.002, "keep_fraction": 1.0, "seed": 3}
    pp = tmp_path / "phantom.json"
    vp = tmp_path / "perturb.json"
    pp.write_text(json.dumps(pdoc))
    vp.write_text(json.dumps(vdoc))
    return pp, vp


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_writes_four_files(tmp_path, capsys):
    pp, vp = write_specs(tmp_path)
    code, out, err = run(["synth", pp, vp, "--out", tmp_path / "o"], capsys)
    assert code == 0, err
    names = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert names == ["perturbed.xyz", "phantom.xyz", "summary.json", "transform.json"]
    t = RigidTransform.from_json((tmp_path / "o" / "transform.json").read_text())
    assert abs(t.rotation_angle() - 0.2) < 1e-12


def test_synth_deterministic(tmp_path, capsys):
    pp, vp = write_specs(tmp_path)
    for d in ("a", "b"):
        code, _, _ = run(["synth", pp, vp, "--out", tmp_path / d, "--voxelize", 0.05, 0.08],
                         capsys)
        assert code == 0
    for name in ("phantom.xyz", "perturbed.xyz", "transform.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for sub in ("phantom_stack", "perturbed_stack"):
        a_files = sorted((tmp_path / "a" / sub).iterdir())
        for f in a_files:
            assert f.read_bytes() == (tmp_path / "b" / sub / f.name).read_bytes()


def test_synth_invalid_keep_fraction(tmp_path, capsys):
    pp, vp = write_specs(tmp_path, perturbation={
        "rotation_axis": [0.0, 0.0, 1.0], "rotation_angle": 0.0,
        "translation": [0, 0, 0], "keep_fraction": 0.0})
    code, _, err = run(["synth", pp, vp, "--out", tmp_path / "o"], capsys)
    assert code == 1
    assert "keep_fraction" in err


def test_synth_seed_overrides_both_specs(tmp_path, capsys):
    pp, vp = write_specs(tmp_path)
    code, _, err = run(["synth", pp, vp, "--out", tmp_path / "o", "--seed", 11], capsys)
    assert code == 0, err
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["phantom_spec"]["seed"] == summary["perturbation_spec"]["seed"] == 11
    # the same outputs as spec files that hold seed 11 themselves
    (tmp_path / "seeded").mkdir()
    docs = [{**json.loads(p.read_text()), "seed": 11} for p in (pp, vp)]
    pp, vp = write_specs(tmp_path / "seeded", *docs)
    code, _, err = run(["synth", pp, vp, "--out", tmp_path / "s"], capsys)
    assert code == 0, err
    for name in ("phantom.xyz", "perturbed.xyz", "transform.json", "summary.json"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "s" / name).read_bytes()


def test_register_identity(tmp_path, capsys):
    cloud = make_phantom(PhantomSpec("ellipsoid", 500, 2))
    save_xyz(cloud, tmp_path / "c.xyz")
    code, out, err = run(["register", tmp_path / "c.xyz", tmp_path / "c.xyz",
                          "--out", tmp_path / "r"], capsys)
    assert code == 0, err
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert report["converged"] is True
    r = np.array(report["final_transforms"][0]["R"])
    t = np.array(report["final_transforms"][0]["T"])
    assert np.abs(r - np.eye(3)).max() < 1e-9
    assert np.abs(t).max() < 1e-9
    assert (tmp_path / "r" / "registered.xyz").exists()


def test_register_two_point_cloud_degenerate(tmp_path, capsys):
    save_xyz(PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]])), tmp_path / "two.xyz")
    code, _, err = run(["register", tmp_path / "two.xyz", tmp_path / "two.xyz",
                        "--out", tmp_path / "r", "--algorithm", "icp"], capsys)
    assert code == 1
    assert "at least 3" in err
    code, _, err = run(["register", tmp_path / "two.xyz", tmp_path / "two.xyz",
                        "--out", tmp_path / "r"], capsys)
    assert code == 1
    assert "k=20" in err


def test_register_nine_column_xyz_exit_1(tmp_path, capsys):
    rng = np.random.default_rng(1)
    np.savetxt(tmp_path / "nine.xyz", rng.random((30, 9)), fmt="%.9g")
    with pytest.raises(ValueError, match="expected 3 columns, found 9"):
        load_xyz(tmp_path / "nine.xyz")
    code, _, err = run(["register", tmp_path / "nine.xyz", tmp_path / "nine.xyz",
                        "--out", tmp_path / "r"], capsys)
    assert code == 1
    assert "expected 3 columns" in err
    assert not (tmp_path / "r").exists()


def test_register_non_convergence_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    save_xyz(PointCloud(rng.random((400, 3))), tmp_path / "a.xyz")
    save_xyz(PointCloud(rng.random((400, 3))), tmp_path / "b.xyz")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rmse_tolerance": 1e-15}))
    code, _, err = run(["register", tmp_path / "a.xyz", tmp_path / "b.xyz",
                        "--out", tmp_path / "r", "--max-iter", 2, "--config", cfg], capsys)
    assert code == 2
    assert (tmp_path / "r" / "report.json").exists()  # partial output still written


@pytest.mark.parametrize("doc", [{"k": "abc"}, {"r_th": "x"}, {"feature_weights": 5},
                                 {"max_iterations": 2.5}, 7,
                                 {"record_correspondences": True}, {"center_align": False},
                                 {"r_th": float("inf")}, {"r_th": float("nan")}])
def test_register_bad_config_exit_1(tmp_path, capsys, doc):
    save_xyz(make_phantom(PhantomSpec("ellipsoid", 100, 2)), tmp_path / "a.xyz")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(["register", tmp_path / "a.xyz", tmp_path / "a.xyz",
                        "--out", tmp_path / "o", "--config", cfg], capsys)
    assert code == 1
    assert err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_register_r_th_past_target_exit_1(tmp_path, capsys):
    save_xyz(make_phantom(PhantomSpec("ellipsoid", 100, 2)), tmp_path / "a.xyz")
    code, _, err = run(["register", tmp_path / "a.xyz", tmp_path / "a.xyz",
                        "--out", tmp_path / "o", "--r-th", 1e9], capsys)
    assert code == 1
    assert err.startswith("error:") and "bounding-box diagonal" in err
    assert not (tmp_path / "o").exists()


def test_register_partitions_flag(tmp_path, capsys):
    cloud = make_phantom(PhantomSpec("two_lobe_pelvis", 1500, 4))
    save_xyz(cloud, tmp_path / "c.xyz")
    code, _, err = run(["register", tmp_path / "c.xyz", tmp_path / "c.xyz",
                        "--out", tmp_path / "r", "--partitions", 2], capsys)
    assert code == 0, err
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert len(report["final_transforms"]) == 2
    code, _, err = run(["register", tmp_path / "c.xyz", tmp_path / "c.xyz",
                        "--out", tmp_path / "r2", "--partitions", 2,
                        "--algorithm", "icp"], capsys)
    assert code == 1
    assert "csn-icp" in err


def test_register_one_partition_writes_the_csn_icp_report(tmp_path, capsys):
    phantom = make_phantom(PhantomSpec("two_lobe_pelvis", 1500, 4))
    moved = RigidTransform.from_axis_angle((0.0, 0.0, 1.0), 0.1, (0.02, 0.0, 0.0)).apply(
        phantom.points)
    save_xyz(phantom, tmp_path / "t.xyz")
    save_xyz(PointCloud(moved), tmp_path / "s.xyz")
    code, _, err = run(["register", tmp_path / "s.xyz", tmp_path / "t.xyz",
                        "--out", tmp_path / "r"], capsys)
    assert code == 0, err
    want = bonereg.csn_icp(load_xyz(tmp_path / "s.xyz"), load_xyz(tmp_path / "t.xyz"))
    assert json.loads((tmp_path / "r" / "report.json").read_text()) == \
        json.loads(json.dumps(bonereg.report_to_dict(want)))


def test_build_cloud_and_evaluate(tmp_path, capsys):
    phantom = make_phantom(PhantomSpec("ellipsoid", 8000, 5,
                                       semi_axes=(0.8, 1.0, 0.7)))
    pitch = 0.06
    ct = voxelize_to_stack(phantom, pitch, 1.25 * pitch, modality="CT")
    mr = voxelize_to_stack(phantom, pitch, 5 * pitch, modality="MR")
    ct_manifest = write_stack(ct, tmp_path / "ct")
    mr_manifest = write_stack(mr, tmp_path / "mr")
    code, out, err = run(["build-cloud", ct_manifest, mr_manifest,
                          "--out", tmp_path / "clouds"], capsys)
    assert code == 0, err
    ct_cloud = load_xyz(tmp_path / "clouds" / "ct_cloud.xyz")
    mr_cloud = load_xyz(tmp_path / "clouds" / "mr_cloud.xyz")
    assert len(ct_cloud) > 0 and len(mr_cloud) > 0
    code, out, err = run(["evaluate", tmp_path / "clouds" / "mr_cloud.xyz",
                          tmp_path / "clouds" / "ct_cloud.xyz",
                          "--out", tmp_path / "eval"], capsys)
    assert code == 0, err
    doc = json.loads((tmp_path / "eval" / "overlap.json").read_text())
    assert set(doc) >= {"iou", "dice", "d_mr", "d_ct", "rmse"}


def test_build_cloud_missing_manifest(tmp_path, capsys):
    code, _, err = run(["build-cloud", tmp_path / "missing.json",
                        tmp_path / "missing.json", "--out", tmp_path / "o"], capsys)
    assert code == 1
    assert "missing.json" in err


def test_build_cloud_empty_bone(tmp_path, capsys):
    from test_mask_io import make_stack
    empty = make_stack([np.zeros((8, 8)), np.zeros((8, 8))])
    m = write_stack(empty, tmp_path / "empty")
    code, _, err = run(["build-cloud", m, m, "--out", tmp_path / "o"], capsys)
    assert code == 1
    assert "no bone content" in err


@pytest.mark.parametrize("key", ["pixel_spacing_mm", "slice_spacing_mm"])
def test_build_cloud_infinite_spacing_exit_1(tmp_path, capsys, key):
    from test_mask_io import make_stack
    bits = np.zeros((8, 8))
    bits[2:6, 3:5] = 1
    m = write_stack(make_stack([bits, bits]), tmp_path / "s")
    doc = json.loads(m.read_text())
    doc[key] = float("inf")
    m.write_text(json.dumps(doc))  # written as the JSON extension Infinity
    code, _, err = run(["build-cloud", m, m, "--out", tmp_path / "o"], capsys)
    assert code == 1
    assert err.startswith("error:") and "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "pixel_spacing_mm": None},
    lambda doc: {**doc, "slice_spacing_mm": "thin"},
    lambda doc: {**doc, "slices": 5},
    lambda doc: {**doc, "slices": [1, 2]},
    lambda doc: {k: v for k, v in doc.items() if k != "slice_spacing_mm"},
], ids=["list", "null-spacing", "string-spacing", "int-slices", "int-names", "no-spacing"])
def test_build_cloud_malformed_manifest_exit_1(tmp_path, capsys, edit):
    from test_mask_io import make_stack
    bits = np.zeros((8, 8))
    bits[2:6, 3:5] = 1
    m = write_stack(make_stack([bits, bits]), tmp_path / "s")
    m.write_text(json.dumps(edit(json.loads(m.read_text()))))
    code, _, err = run(["build-cloud", m, m, "--out", tmp_path / "o"], capsys)
    assert code == 1
    assert err.startswith("error:") and str(m) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("phantom, perturbation, seed, message", [
    (None, [1], None, "must hold a JSON object"),
    (None, [1], 5, "must hold a JSON object"),
    ("point", None, 5, "must hold a JSON object"),
    (None, {"rotation_axis": [0, 0, 1], "rotation_angle": 0.1, "translation": 5},
     None, "translation"),
    (None, {"rotation_axis": [0, 0, 1], "rotation_angle": None, "translation": [0, 0, 0]},
     None, "rotation_angle"),
    (None, {"rotation_axis": [0, 0, 1], "rotation_angle": 0.1, "translation": [0, 0, 0],
            "noise_sigma": float("nan")}, None, "finite"),
    ({"shape": "ellipsoid", "point_count": "many", "seed": 1}, None, None, "point_count"),
    ({"shape": "ellipsoid", "point_count": float("inf"), "seed": 1}, None, None,
     "point_count"),
    ({"shape": "ellipsoid", "point_count": 500, "seed": 1, "semi_axes": "123"}, None, None,
     "semi_axes"),
], ids=["list-perturbation", "list-perturbation-seed", "string-phantom-seed",
        "int-translation", "null-angle", "nan-noise", "string-count", "inf-count",
        "string-axes"])
def test_synth_malformed_spec_exit_1(tmp_path, capsys, phantom, perturbation, seed, message):
    pp, vp = write_specs(tmp_path, phantom, perturbation)
    flags = [] if seed is None else ["--seed", seed]
    code, _, err = run(["synth", pp, vp, "--out", tmp_path / "o", *flags], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_spec_from_dict_rejects_non_objects():
    with pytest.raises(ValueError, match="phantom spec must be a JSON object"):
        phantom_spec_from_dict([1])
    with pytest.raises(ValueError, match="perturbation spec must be a JSON object"):
        perturbation_spec_from_dict("spec")


def test_evaluate_self_is_perfect(tmp_path, capsys):
    cloud = make_phantom(PhantomSpec("ellipsoid", 3000, 6))
    save_xyz(cloud, tmp_path / "c.xyz")
    code, _, err = run(["evaluate", tmp_path / "c.xyz", tmp_path / "c.xyz",
                        "--out", tmp_path / "e"], capsys)
    assert code == 0, err
    doc = json.loads((tmp_path / "e" / "overlap.json").read_text())
    assert doc["rmse"] == 0.0
    assert doc["d_mr"] == 0.0 and doc["d_ct"] == 0.0
    assert all(row.get("d_mr", 0.0) == 0.0 and row.get("d_ct", 0.0) == 0.0
               for row in doc["slices"])


def test_evaluate_empty_input(tmp_path, capsys):
    (tmp_path / "empty.xyz").write_text("")
    cloud = make_phantom(PhantomSpec("ellipsoid", 300, 6))
    save_xyz(cloud, tmp_path / "c.xyz")
    code, _, err = run(["evaluate", tmp_path / "empty.xyz", tmp_path / "c.xyz",
                        "--out", tmp_path / "e"], capsys)
    assert code == 1


def test_reslice_command(tmp_path, capsys):
    cloud = make_phantom(PhantomSpec("ellipsoid", 4000, 8))
    save_xyz(cloud, tmp_path / "c.xyz")
    code, _, err = run(["reslice", tmp_path / "c.xyz", "--out", tmp_path / "slices",
                        "--slices", 5], capsys)
    assert code == 0, err
    from bonereg import load_stack
    stack = load_stack(tmp_path / "slices" / "manifest.json")
    assert len(stack) == 5
    assert stack.bits.sum() > 0
    # the masks are the bands evaluate_slices scores on the saved cloud
    saved = load_xyz(tmp_path / "c.xyz")
    per_slice = evaluate_slices(saved, saved, 5).per_slice
    assert [int(bits.sum()) for bits in stack.bits] == [r["a_mr"] for r in per_slice]
    code, _, err = run(["reslice", tmp_path / "c.xyz", "--out", tmp_path / "one",
                        "--z-center", 0.0, "--thickness", 0.2], capsys)
    assert code == 0, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags, message", [
    ("evaluate", ["--pixel-pitch", 0], "pixel pitch"),
    ("evaluate", ["--pixel-pitch", -0.1], "pixel pitch"),
    ("evaluate", ["--pixel-pitch", "nan"], "pixel pitch"),
    ("evaluate", ["--closing-iters", -1], "closing iterations"),
    ("reslice", ["--pixel-pitch", 0], "pixel pitch"),
    ("reslice", ["--pixel-pitch", "inf"], "pixel pitch"),
    ("reslice", ["--closing-iters", -3], "closing iterations"),
    ("reslice", ["--slices", 0], "--slices"),
    ("reslice", ["--z-center", "nan", "--thickness", 0.1], "z center"),
    ("reslice", ["--z-center", 0.0, "--thickness", "inf"], "thickness"),
    ("evaluate", ["--thickness", "inf"], "thickness"),
    # grids past RasterGrid.MAX_PIXELS: about 10^10 pixels, an x-y span
    # that overflows to inf, and margins of 10^7 and 10^400 closing
    # iterations (the second too large for a float)
    ("evaluate", ["--pixel-pitch", 1e-5], "pixels"),
    ("reslice", ["--pixel-pitch", 1e-5], "pixels"),
    ("reslice", ["--pixel-pitch", 1e-320], "pixels"),
    ("evaluate", ["--closing-iters", 10**7], "pixels"),
    ("reslice", ["--closing-iters", 10**400], "pixels"),
    # one band at --z-center has no default thickness
    ("reslice", ["--z-center", 0.0], "--thickness is required with --z-center"),
    ("evaluate", ["--slices", 0], "slice_count"),
    # bands too thin to hold a point leave every mask empty
    ("evaluate", ["--thickness", 1e-12], "no slice contains bone content"),
])
def test_grid_arguments_exit_1(tmp_path, capsys, command, flags, message):
    save_xyz(make_phantom(PhantomSpec("ellipsoid", 300, 6)), tmp_path / "c.xyz")
    inputs = [tmp_path / "c.xyz"] * (2 if command == "evaluate" else 1)
    tracemalloc.start()
    try:
        code, _, err = run([command, *inputs, "--out", tmp_path / "o", *flags], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # refused before any grid-sized array is made
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "o").exists()


def test_synth_oversized_voxel_slice_exit_1(tmp_path, capsys):
    pp, vp = write_specs(tmp_path)
    code, _, err = run(["synth", pp, vp, "--out", tmp_path / "s",
                        "--voxelize", 1e-4, 1e-4], capsys)
    assert code == 1
    assert err.startswith("error:") and "over 16777216 pixels" in err
    assert not (tmp_path / "s" / "phantom_stack").exists()


def test_load_xyz_ragged_rows_name_the_line(tmp_path):
    (tmp_path / "ragged.xyz").write_text("0 0 0\n1 1 1\n\n2 2\n3 3 3\n")
    with pytest.raises(ValueError, match="line 4: expected 3 columns, found 2"):
        load_xyz(tmp_path / "ragged.xyz")


def test_bad_arguments_exit_1(tmp_path, capsys):
    code, _, err = run(["register", "a.xyz"], capsys)  # missing positional
    assert code == 1
    code, _, err = run(["no-such-command"], capsys)
    assert code == 1


def test_register_determinism(tmp_path, capsys):
    pp, vp = write_specs(tmp_path)
    run(["synth", pp, vp, "--out", tmp_path / "s"], capsys)
    for d in ("r1", "r2"):
        code, _, _ = run(["register", tmp_path / "s" / "phantom.xyz",
                          tmp_path / "s" / "perturbed.xyz", "--out", tmp_path / d], capsys)
        assert code == 0
    for name in ("report.json", "registered.xyz"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_main_runs_a_command_replaced_after_the_first_call(tmp_path, capsys, monkeypatch):
    # main keeps its parser, but looks the command up on the module per call
    xyz = tmp_path / "missing.xyz"
    argv = ["register", xyz, xyz, "--out", tmp_path / "r"]
    code, _, err = run(argv, capsys)
    assert code == 1 and "missing.xyz" in err
    seen = []
    monkeypatch.setattr(cli, "cmd_register", lambda args: seen.append(args) or 7)
    code, _, _ = run(argv, capsys)
    assert code == 7
    assert [(a.command, a.source, a.algorithm) for a in seen] == \
        [("register", str(xyz), "csn-icp")]


SCIPY_PROBE = """
import json, sys
from bonereg.cli import main

steps = []
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    steps.append([code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")])
print(json.dumps(steps))
"""


def test_commands_without_an_index_leave_scipy_out(tmp_path, fresh_python):
    pp, vp = write_specs(tmp_path)
    s, c = tmp_path / "s", tmp_path / "c"
    commands = [
        ["synth", pp, vp, "--out", s, "--voxelize", 0.05, 0.08],
        ["build-cloud", s / "phantom_stack" / "manifest.json",
         s / "perturbed_stack" / "manifest.json", "--out", c],
        ["reslice", s / "phantom.xyz", "--out", tmp_path / "slices"],
        ["register", c / "mr_cloud.xyz", c / "ct_cloud.xyz", "--algorithm", "icp",
         "--out", tmp_path / "r"],
    ]
    doc = json.dumps([[str(a) for a in argv] for argv in commands])
    steps = json.loads(fresh_python(SCIPY_PROBE, doc).splitlines()[-1])
    assert [code for code, _ in steps] == [0, 0, 0, 0]
    assert [loaded for _, loaded in steps[:3]] == [[], [], []]
    # register builds a k-d tree, so the probe does see scipy.spatial load
    assert "scipy.spatial" in steps[3][1]


def test_refused_evaluate_leaves_scipy_out(tmp_path, fresh_python):
    # band_plan and the first reslice check every argument before the
    # target's k-d tree is built, so a refusal never loads scipy
    save_xyz(make_phantom(PhantomSpec("ellipsoid", 300, 6)), tmp_path / "c.xyz")
    evaluate = ["evaluate", tmp_path / "c.xyz", tmp_path / "c.xyz", "--out", tmp_path / "o"]
    bad = [["--pixel-pitch", 0], ["--slices", 0], ["--thickness", "inf"],
           ["--closing-iters", -1]]
    doc = json.dumps([[str(a) for a in evaluate + flags] for flags in bad])
    steps = json.loads(fresh_python(SCIPY_PROBE, doc).splitlines()[-1])
    assert steps == [[1, []]] * len(bad)
