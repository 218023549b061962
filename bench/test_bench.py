"""Smoke test of the benchmark at its smallest sizes; not a timing gate.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: _result(_run(w["name"], 1)) for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_named_with_units_and_verified(workload):
    detail, result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_ratio"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(detail["provenance"]) == {"python", "nproc", "commit", "seed", "src_lines"}


def test_per_layer_metrics_named_with_units_and_verified(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for detail, result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert detail["failed_ratio"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_every_span_is_emitted_and_self_times_add_up(traced):
    seen = set()
    for detail, _ in traced.values():
        recorded = json.loads(Path(detail["spans_file"]).read_text())
        seen |= {span["name"] for span in recorded}
        for job in {span["job"] for span in recorded}:
            mine = [s for s in recorded if s["job"] == job]
            roots = sum(s["end"] - s["start"] for s in mine if s["parent"] is None)
            assert sum(s["self"] for s in mine) == pytest.approx(roots, rel=1e-9, abs=1e-9)
    assert seen == {span.name for span in spans.SPANS}


def test_wasted_usual_products_are_counted(traced):
    metrics = traced["soft_decision"][1]["metrics"]
    assert metrics["softmatrix.MagnitudeMatrix.usual_product.useful_ratio"]["value"] == 0.5
    assert metrics["identify.column_min.calls"]["value"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
