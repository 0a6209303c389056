"""Smoke test of the benchmark at a tiny scale.

    python -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = harness.Scale(
    galleries=2, clients=4, faces=3, utterances=3, unknown_clients=2,
    identify_probes=10, verify_probes=8, check_probes=4,
)


def test_workloads_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == harness.WORKLOADS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    result = harness.run(workload, seed=7, seconds=0.3, trace=trace, work_dir=tmp_path, scale=TINY)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    if trace:
        traced = result["details"]["trace"]
        self_total = sum(row["self_s"] for row in traced["spans"].values())
        assert 0.0 < self_total <= traced["wall_s"]


def test_damaged_model_file_counts_as_failure(tmp_path, monkeypatch):
    # If load_model stopped checking the CRC, the flipped copy would load.
    from biomm import pipeline

    result = harness.run("verify-c20", seed=7, seconds=0.1, trace=False, work_dir=tmp_path, scale=TINY)
    assert result["failed"] == 0
    real_load = pipeline.load_model
    monkeypatch.setattr(
        pipeline, "load_model",
        lambda path: real_load(path) if Path(path).name != "damaged.txt" else None,
    )
    result = harness.run("verify-c20", seed=7, seconds=0.1, trace=False, work_dir=tmp_path, scale=TINY)
    assert result["failed"] == 2 * TINY.galleries and not result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "identify-c20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
