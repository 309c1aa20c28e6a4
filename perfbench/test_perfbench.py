"""Checks of the benchmark itself, on small inputs.

    python -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

SCALE = 0.01
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tracing_fidelity(name):
    """tracer.py matches python -m fractalseq byte for byte and
    exit code for exit code on every op, and its counts repeat exactly."""
    first = run.run_workload(name, 7, 1, trace=True, scale=SCALE)
    second = run.run_workload(name, 7, 1, trace=True, scale=SCALE)
    assert first["failed"] == 0, first["failures"]
    assert second["failed"] == 0, second["failures"]
    assert first["context"]["span_counts"] == second["context"]["span_counts"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric():
    record = run.run_workload("construct", 3, 1, trace=False, scale=SCALE)
    assert record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in record["metrics"].values())


def test_wrong_oracle_is_counted_as_failure(monkeypatch):
    real = workloads.render
    monkeypatch.setattr(workloads, "render", lambda fmt, terms: real(fmt, terms) + b"\n")
    record = run.run_workload("generate", 3, 1, trace=False, scale=SCALE)
    assert not record["correct"]
    assert record["failed"] == record["context"]["samples"]


def test_child_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    spawner = run.Spawner(tmp_path)
    try:
        sample = spawner.cli(run.SETUP_ARGV)
    finally:
        spawner.close()
    assert sample.out == b"1\n" and sample.code == 0
    assert sample.maxrss_kb < 100 * 1024


def test_per_layer_metrics_are_documented():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.MOVES)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0)
    assert run.tail([float(i) for i in range(64)]) == (84, 53.0)


def test_compare_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, [v * 0.95 for v in parent], "higher", 0.1)["verdict"] == "within bound"
    noisy = [50.0, 150, 60, 140, 100, 100, 70, 130, 90, 110]
    assert compare.verdict(noisy, parent, "lower", 0.1)["verdict"] == "unresolved"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
