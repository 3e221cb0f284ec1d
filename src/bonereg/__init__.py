"""Rigid multimodal bone point-cloud registration from 2D mask stacks."""

from .cloud import LocalFeatures, PointCloud, load_xyz, save_xyz
from .mask_io import SliceMask, SliceStack, StackManifest, load_stack, write_stack
from .volume import (MaskVolume, build_point_cloud, extract_surface,
                     interpolate_z, max_bone_extent_y, scale_factor)
from .geometry import SpatialIndex, d_c, d_s, estimate_features, jacobi_eigh3
from .registration import (CsnIcpConfig, DegenerateGeometryError, DivergenceError,
                           RegistrationError, RegistrationReport, RigidTransform,
                           apply_transform, csn_icp, icp_classic, partition_indices,
                           partition_register, report_to_dict,
                           rotation_angle_between, solve_rigid)
from .metrics import (ConfusionCounts, OverlapReport, RasterGrid, binary_close,
                      confusion, d_mr_d_ct, dice, evaluate_slices, iou,
                      overlap_report_to_dict, reslice, rmse)
from .synth import (PerturbationSpec, PhantomSpec, SplitMix64, make_phantom,
                    perturb, perturbation_spec_from_dict, phantom_spec_from_dict,
                    voxelize_to_stack)

__version__ = "0.1.0"

__all__ = [
    "LocalFeatures", "PointCloud", "load_xyz", "save_xyz",
    "SliceMask", "SliceStack", "StackManifest", "load_stack", "write_stack",
    "MaskVolume", "build_point_cloud", "extract_surface", "interpolate_z",
    "max_bone_extent_y", "scale_factor",
    "SpatialIndex", "d_c", "d_s", "estimate_features", "jacobi_eigh3",
    "CsnIcpConfig", "DegenerateGeometryError", "DivergenceError",
    "RegistrationError", "RegistrationReport", "RigidTransform", "apply_transform",
    "csn_icp", "icp_classic", "partition_indices", "partition_register",
    "report_to_dict", "rotation_angle_between", "solve_rigid",
    "ConfusionCounts", "OverlapReport", "RasterGrid", "binary_close", "confusion",
    "d_mr_d_ct", "dice", "evaluate_slices", "iou", "overlap_report_to_dict",
    "reslice", "rmse",
    "PerturbationSpec", "PhantomSpec", "SplitMix64", "make_phantom", "perturb",
    "perturbation_spec_from_dict", "phantom_spec_from_dict", "voxelize_to_stack",
]
