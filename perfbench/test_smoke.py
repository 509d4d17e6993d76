"""Smoke self-test of the benchmark: each workload at its reduced size.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["fail_frac"] == 0
    return detail, result


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = _result(workload, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert {"nproc", "cpu_model", "numpy", "scipy", "blas_threads"} <= set(detail["env"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_in_nested_spans(workload):
    detail, result = _result(workload, 1)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    spans = json.loads((ROOT / detail["spans"]).read_text())
    assert spans
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            assert span["name"] == "op"
        else:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_has_ten_ops_beyond_it_and_is_never_below_the_median():
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    assert tail([float(i) for i in range(20)]) == (9.5, 50.0, 10)
    assert tail([float(i) for i in range(21)]) == (10.0, 100.0 * 11 / 21, 10)
    assert tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
