"""Tests of the benchmark itself: repeatability, tracing and the result
contract. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from bonereg import geometry, registration  # noqa: E402
from workloads import CloudCsn, PartitionArticulated, StackCli  # noqa: E402

TINY = [CloudCsn(points=400, cases=2), PartitionArticulated(points=400, cases=2),
        StackCli(phantom_points=4000, cases=1, pitch=0.1)]
COUNTS = ("registration.iterations", "registration.accepted", "registration.rejected",
          "geometry.index_builds", "geometry.ball_pairs")
ACCURACY = ("rot_err_deg_max", "trans_err_max", "iou_p50", "dice_p50")


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_runs_repeat_and_tracing_changes_no_result(workload, tmp_path):
    plain = [harness.measure(workload, 7, 0, False, tmp_path / f"plain{i}") for i in range(2)]
    traced = [harness.measure(workload, 7, 0, True, tmp_path / f"traced{i}") for i in range(2)]
    for r in plain + traced:
        assert r.correct, r.failures
        assert r.attempted >= 1 and r.failed == 0
    ref = plain[0]
    for r in plain[1:] + traced:
        assert r.accuracy == ref.accuracy
        assert r.end_to_end["rmse_p50"] == ref.end_to_end["rmse_p50"]
        assert {k: r.also_printed.get(k) for k in ACCURACY} == \
            {k: ref.also_printed.get(k) for k in ACCURACY}
    assert {k: traced[0].per_layer[k] for k in COUNTS} == \
        {k: traced[1].per_layer[k] for k in COUNTS}
    assert set(traced[0].per_layer) == set(harness.PER_LAYER)
    assert traced[0].per_layer["registration.iterations"] > 0
    assert plain[0].per_layer == {}


def test_tracer_restores_the_package():
    before = (vars(geometry.SpatialIndex)["knn_batch"], registration.csn_icp)
    tracer = harness.Tracer()
    tracer.install()
    assert vars(geometry.SpatialIndex)["knn_batch"] is not before[0]
    tracer.uninstall()
    assert (vars(geometry.SpatialIndex)["knn_batch"], registration.csn_icp) == before


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {k: u for k, (u, _) in harness.PER_LAYER.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cloud-csn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
