"""
Smoke test of the benchmark: every workload at a tiny size, with no
timing gate, so the result does not depend on the machine.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracing
from ulamcodes import perm_core, ulam_code, verify

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
TINY_POOL = {"decode-gv64": 13, "decode-rs1024": 2, "audit-concat512": 2}


def tiny(name: str) -> harness.Workload:
    return dataclasses.replace(harness.WORKLOADS[name], pool=TINY_POOL[name])


def test_workloads_match_benchmark_json():
    assert list(harness.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(TINY_POOL) == set(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY_POOL))
def test_untraced_run_is_correct_and_repeats(name):
    first = harness.run_untraced(tiny(name), 7, 0, setup_reps=1)
    again = harness.run_untraced(tiny(name), 7, 0, setup_reps=1)
    assert list(first["metrics"]) == END_TO_END
    assert all(value > 0 for value, _ in first["metrics"].values())
    assert first["correct"] and first["failed"] == 0
    assert first["detail"]["error_rate"] == 0
    assert first["detail"]["digest"] == again["detail"]["digest"]
    assert first["detail"].get("decode_success_frac") == again["detail"].get("decode_success_frac")
    other_seed = harness.run_untraced(tiny(name), 8, 0, setup_reps=1)
    assert other_seed["detail"]["digest"] != first["detail"]["digest"]


@pytest.mark.parametrize("name", list(TINY_POOL))
def test_traced_run_matches_untraced_outputs(name):
    plain = harness.run_untraced(tiny(name), 7, 0, setup_reps=1)
    traced = tracing.run_traced(tiny(name), 7, 0, setup_reps=1)
    assert list(traced["metrics"]) == PER_LAYER
    assert traced["correct"] and traced["failed"] == 0
    assert traced["detail"]["digest"] == traced["detail"]["untraced_digest"] == plain["detail"]["digest"]
    # the rebound module names are restored
    assert ulam_code.ulam_distance is perm_core.ulam_distance
    assert ulam_code.apply_stage.__module__ == "ulamcodes.ulam_code"
    assert verify.encode is ulam_code.encode
    metrics = {key: value for key, (value, _) in traced["metrics"].items()}
    if name == "decode-gv64":
        assert metrics["fields.ops_per_decode"] == 0
        assert metrics["perm_core.ulam_distance_calls"] > 0
    elif name == "decode-rs1024":
        assert metrics["fields.ops_per_decode"] > 0
        assert metrics["fields.ops_per_encode"] > 0
    else:
        assert metrics["block_codes.decode_word_ms"] == 0
        assert metrics["verify.encode_calls_per_pair"] > 0
        assert metrics["fields.ops_per_encode"] > 0


def test_over_reporting_distance_kernel_is_caught(monkeypatch):
    # the library's LCS under-reports by n, so every Ulam distance it gives
    # is inflated and decode's final check rejects every input; the harness
    # measures distances itself and must object
    real = perm_core.lcs_length
    monkeypatch.setattr(perm_core, "lcs_length", lambda a, b: real(a, b) - len(a))
    out = harness.run_untraced(tiny("decode-gv64"), 7, 0, setup_reps=1)
    assert not out["correct"]
    assert out["failed"] > 0
    assert out["detail"]["decode_success_frac"] == 0


def test_reference_distance():
    assert harness.reference_distance((0, 1, 2, 3), (0, 1, 2, 3)) == 0
    assert harness.reference_distance((0, 1, 2, 3), (1, 2, 3, 0)) == 1
    assert harness.reference_distance((0, 1, 2, 3), (3, 2, 1, 0)) == 3


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_result_line():
    proc = run_cli(ROOT, "--workload", "audit-concat512", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END


def test_cli_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "decode-gv64", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_rejects_unknown_workload():
    proc = run_cli(ROOT, "--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
