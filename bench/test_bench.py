"""Tests of the benchmark harness itself, at tiny input sizes.

    python3 -m pytest -q bench

Each test runs ``bench/run.py`` as a subprocess, exactly as the benchmark is
meant to be run, and reads the result object on its last line.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(cwd: str, *args: str, flags: tuple = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int) -> tuple:
    """(report, result) of one tiny run; cached so tests share runs."""
    proc = _invoke(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                   "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report, result = run(workload, 1, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert report["failed_frac"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert report["tail"]["samples"] == report["queries"]
    for key in ("python", "commit", "src_sha256", "nproc"):
        assert key in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    report, result = run(workload, 1, 1)
    _check_metrics(result, SPEC["per_layer"])
    assert set(report["digests"].values()) == {run(workload, 1, 0)[0]["digest"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_for_a_seed(workload):
    first = run(workload, 1, 0)[0]["digest"]
    again = _invoke(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.3",
                    "--size", "tiny")
    assert json.loads(again.stdout.strip().splitlines()[-2])["report"]["digest"] == first


def test_refuses_optimized_interpreter():
    proc = _invoke(ROOT, "--workload", "words-warm", "--seed", "1", "--seconds", "0.3",
                   "--size", "tiny", flags=("-O",))
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _invoke(str(tmp_path), "--workload", "words-warm", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    sys.path.insert(0, HERE)
    from run import tail_percentile

    assert tail_percentile(list(range(1000))) == (99, 10, 989)
    assert tail_percentile(list(range(30)))[0] == 50
