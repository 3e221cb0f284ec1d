"""Command-line frontend binding the pipeline end to end.

Exit codes: 0 success, 1 input or algorithm error (a malformed or
wrong-typed --config file included), 2 registration hit the iteration
cap without converging (the report is still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .cloud import PointCloud, load_xyz, save_xyz
from .mask_io import load_stack, numbered_stack, write_stack
from .metrics import band_plan, evaluate_slices, overlap_report_to_dict, reslice
# csn_icp is unused here but stays: bench/tracing.py patches cli.csn_icp by name
from .registration import (CsnIcpConfig, RegistrationError, csn_icp, icp_classic,
                           partition_indices, partition_register, report_to_dict)
from .synth import (make_phantom, perturb, perturbation_spec_from_dict,
                    phantom_spec_from_dict, voxelize_to_stack)
from .volume import build_point_cloud, scale_factor


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_object(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise CliError(f"{path} must hold a JSON object")
    return doc


_CONFIG_KEYS = {f.name for f in fields(CsnIcpConfig)}


def _load_config(args) -> CsnIcpConfig:
    """Build the registration config: defaults, overridden by --config
    file values, overridden by command-line flags."""
    values = {}
    if getattr(args, "config", None):
        doc = _read_object(args.config)
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    for flag, key in (("k", "k"), ("r_th", "r_th"), ("max_iter", "max_iterations"),
                      ("partitions", "partitions")):
        v = getattr(args, flag, None)
        if v is not None:
            values[key] = v
    return CsnIcpConfig(**values)


def cmd_build_cloud(args) -> int:
    ct = load_stack(args.ct_manifest)
    mr = load_stack(args.mr_manifest)
    scale = scale_factor(ct, mr)
    mr_cloud = build_point_cloud(mr, 1.0, args.mode)
    ct_cloud = build_point_cloud(ct, scale, args.mode)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_xyz(ct_cloud, out / "ct_cloud.xyz")
    save_xyz(mr_cloud, out / "mr_cloud.xyz")
    print(f"ct_cloud.xyz: {len(ct_cloud)} points")
    print(f"mr_cloud.xyz: {len(mr_cloud)} points")
    print(f"ct in-plane scale: {scale:.9g}")
    return 0


def cmd_register(args) -> int:
    config = _load_config(args)
    source = load_xyz(args.source)
    target = load_xyz(args.target)
    if args.algorithm == "icp":
        if config.partitions > 1:
            raise CliError("partitions require --algorithm csn-icp")
        report = icp_classic(source, target, config)
    else:
        report = partition_register(source, target, config)
    moved = np.empty_like(source.points)
    for b, t in zip(partition_indices(source, config.partitions), report.final_transforms):
        moved[b] = t.apply(source.points[b])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report_to_dict(report))
    save_xyz(PointCloud(moved), out / "registered.xyz")
    print(f"converged: {report.converged} after {report.iterations_used} iterations")
    print(f"final rmse: {report.final_rmse:.9g}")
    return 0 if report.converged else 2


def cmd_evaluate(args) -> int:
    moving = load_xyz(args.registered)
    target = load_xyz(args.target)
    report = evaluate_slices(moving, target, slice_count=args.slices,
                             thickness=args.thickness, pixel_pitch=args.pixel_pitch,
                             closing_iterations=args.closing_iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "overlap.json", overlap_report_to_dict(report))
    print(f"rmse: {report.rmse:.9g}")
    print(f"iou: {report.iou:.6f}  dice: {report.dice:.6f}")
    print(f"d_mr: {report.d_mr:.6f}  d_ct: {report.d_ct:.6f}  (means over slices)")
    return 0


def cmd_synth(args) -> int:
    phantom_doc = _read_object(args.phantom_spec)
    perturb_doc = _read_object(args.perturbation_spec)
    if args.seed is not None:
        phantom_doc["seed"] = args.seed
        perturb_doc["seed"] = args.seed
    pspec = phantom_spec_from_dict(phantom_doc)
    vspec = perturbation_spec_from_dict(perturb_doc)
    phantom = make_phantom(pspec)
    perturbed, transform = perturb(phantom, vspec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_xyz(phantom, out / "phantom.xyz")
    save_xyz(perturbed, out / "perturbed.xyz")
    (out / "transform.json").write_text(transform.to_json() + "\n")
    _write_json(out / "summary.json", {
        "phantom_points": len(phantom),
        "perturbed_points": len(perturbed),
        "phantom_spec": phantom_doc,
        "perturbation_spec": perturb_doc,
    })
    if args.voxelize:
        pitch, spacing = args.voxelize
        write_stack(voxelize_to_stack(phantom, pitch, spacing), out / "phantom_stack")
        write_stack(voxelize_to_stack(perturbed, pitch, spacing), out / "perturbed_stack")
    print(f"phantom.xyz: {len(phantom)} points")
    print(f"perturbed.xyz: {len(perturbed)} points")
    return 0


def cmd_reslice(args) -> int:
    if args.slices < 1:
        raise CliError("--slices must be at least 1")
    cloud = load_xyz(args.cloud)
    lo, hi = cloud.bounding_box()  # raises on an empty cloud
    # --z-center replaces the planned bands with its one band, so plan one
    slices = args.slices if args.z_center is None else 1
    centers, thickness, grid = band_plan(lo, hi, slices, args.thickness,
                                         args.pixel_pitch, args.closing_iters)
    if args.z_center is not None:
        if args.thickness is None:
            raise CliError("--thickness is required with --z-center")
        centers = [args.z_center]
    bits = np.stack([reslice(cloud, zc, thickness, grid, args.closing_iters).bits
                     for zc in centers])
    path = write_stack(numbered_stack(bits, args.modality, grid.pixel_pitch, thickness), args.out)
    print(f"wrote {len(bits)} slice masks to {path.parent}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built on the first call and kept for the process."""
    parser = _Parser(prog="bonereg",
                     description="Bone point-cloud construction, registration and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-cloud", help="build normalized CT and MR clouds from mask stacks")
    b.add_argument("ct_manifest")
    b.add_argument("mr_manifest")
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--mode", choices=["surface", "full"], default="surface")

    r = sub.add_parser("register", help="register a source cloud onto a target cloud")
    r.add_argument("source")
    r.add_argument("target")
    r.add_argument("--out", required=True)
    r.add_argument("--algorithm", choices=["csn-icp", "icp"], default="csn-icp")
    r.add_argument("--config", help="JSON file with CsnIcpConfig fields")
    r.add_argument("--partitions", type=int)
    r.add_argument("--k", type=int)
    r.add_argument("--r-th", dest="r_th", type=float)
    r.add_argument("--max-iter", dest="max_iter", type=int)

    e = sub.add_parser("evaluate", help="score a registered cloud against its target")
    e.add_argument("registered")
    e.add_argument("target")
    e.add_argument("--out", required=True)
    e.add_argument("--slices", type=int, default=8)
    e.add_argument("--thickness", type=float)
    e.add_argument("--pixel-pitch", dest="pixel_pitch", type=float)
    e.add_argument("--closing-iters", dest="closing_iters", type=int, default=2)

    s = sub.add_parser("synth", help="generate a phantom, a perturbed copy and the ground truth")
    s.add_argument("phantom_spec")
    s.add_argument("perturbation_spec")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, help="override the seed in both spec files")
    s.add_argument("--voxelize", nargs=2, type=float, metavar=("PIXEL_PITCH", "SLICE_SPACING"),
                   help="also write voxelized mask stacks")

    rs = sub.add_parser("reslice", help="extract 2D region masks from a cloud")
    rs.add_argument("cloud")
    rs.add_argument("--out", required=True)
    rs.add_argument("--z-center", dest="z_center", type=float)
    rs.add_argument("--thickness", type=float)
    rs.add_argument("--slices", type=int, default=8)
    rs.add_argument("--pixel-pitch", dest="pixel_pitch", type=float)
    rs.add_argument("--closing-iters", dest="closing_iters", type=int, default=2)
    rs.add_argument("--modality", choices=["CT", "MR"], default="MR")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # looked up per call, so a cmd_* replaced on the module (bench/tracing.py
    # wraps three) runs from the next call on
    commands = {"build-cloud": cmd_build_cloud, "register": cmd_register,
                "evaluate": cmd_evaluate, "synth": cmd_synth, "reslice": cmd_reslice}
    try:
        return commands[args.command](args)
    except (RegistrationError, ValueError, KeyError, OSError, json.JSONDecodeError,
            CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
