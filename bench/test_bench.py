"""Smoke test of the benchmark itself, at tiny grid sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``
(about 15 s on two cores).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"} and metric["unit"], name
        assert isinstance(metric["value"], float), name
    return result


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    proc = run_bench("--workload", "short_runs_reports", "--seed", "3", "--seconds", "0.1",
                     "--trace", trace, "--smoke")
    metrics = result_of(proc)["metrics"]
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared


def test_all_workloads_print_one_row_each(tmp_path):
    spans = tmp_path / "spans.npz"
    proc = run_bench("--workload", "all", "--seconds", "0.1", "--smoke", "--spans", str(spans))
    result = result_of(proc)
    names = [w["name"] for w in SPEC["workloads"]]
    summary = proc.stdout.split("end to end:\n", 1)[1].splitlines()[:-1]
    assert [row.split()[0] for row in summary] == sorted(names)
    for row in summary:
        for metric in SPEC["end_to_end"]:
            assert f"{metric['name']}=" in row and f" {metric['unit']} [" in row
    for workload in names:
        assert result["metrics"][f"{workload}.objective.calls"]["value"] > 0
        assert (tmp_path / f"spans-{workload}.npz").is_file()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "bench2d_serial", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
