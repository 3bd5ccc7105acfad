"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest bench/tests -q

They check that every workload emits every metric named in BENCHMARK.json
with its unit, that the worker count does not change report.json, that the
output checks catch a wrong p-value or statistic, and that the command fails
in a directory without the idstats sources. Two strict xfails keep two
program defects the benchmark found visible until they are fixed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import flows  # noqa: E402
import iteration  # noqa: E402
import workloads  # noqa: E402
from idstats.density import cv_bandwidth, default_cv_candidates  # noqa: E402
from idstats.density import js_distance_from_masses  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_generator_is_seeded_and_byte_identical():
    first = flows.generate_csv(300, seed=3)
    assert first == flows.generate_csv(300, seed=3)
    assert first != flows.generate_csv(300, seed=4)
    lines = first.decode().splitlines()
    assert lines[0].split(",") == list(flows.COLUMNS)
    assert len(lines) == 301


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in declared:
        assert f"{metric['name']} = " in proc.stdout


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The tiny pipeline workload run at threads=1 and at threads=2."""
    work = tmp_path_factory.mktemp("threads")
    workload = workloads.build("pipeline_8k", tiny=True)
    (work / "flows.csv").write_bytes(flows.generate_csv(workload.n_rows, seed=7))
    reports = {}
    for threads in (1, 2):
        out = f"out{threads}"
        spec = {
            "src": str(ROOT / "src"),
            "stages": list(workload.timed_stages),
            "config": workloads.run_config(
                workload, str(work / "flows.csv"), str(work / out), 7, threads
            ),
            "mode": "plain",
        }
        result = iteration.run_iteration(spec)
        assert result["failed"] == {}
        reports[threads] = json.loads((work / out / "report.json").read_text())
    return work, reports


def test_worker_count_does_not_change_the_report(tiny_runs):
    _, reports = tiny_runs
    for threads, report in reports.items():
        assert report["config"].pop("threads") == threads
        report["config"].pop("output")
    assert reports[1] == reports[2]


def test_checks_pass_on_real_output_and_catch_corruption(tiny_runs, tmp_path):
    work, _ = tiny_runs
    out = tmp_path / "out"
    shutil.copytree(work / "out1", out)
    # the plot paths in the report are relative to the output directory
    assert checks.check_wy(out) == []

    report_path = out / "report.json"
    pristine = report_path.read_text()
    report = json.loads(pristine)
    report["stages"]["wy"]["results"][0]["p_value"] += 1e-9
    report_path.write_text(json.dumps(report))
    assert [stage for stage, _ in checks.check_wy(out)] == ["wy"]

    report = json.loads(pristine)
    report["stages"]["wy"]["results"][1]["statistic"] += 2e-5
    report_path.write_text(json.dumps(report))
    assert any("oracle" in message for _, message in checks.check_wy(out))

    report = json.loads(pristine)
    report["stages"]["wy"]["max_trace"][0] = 1.0
    report_path.write_text(json.dumps(report))
    assert any("T = 1" in message for _, message in checks.check_wy(out))


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "wy_cv_8k", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "binned CV raises when a bounded, bimodal sample of >= 4096 values spans "
    "fewer than ~22 Scott bandwidths: the widest candidate kernel outgrows the "
    "FFT length; bulk_30k holds its wy stage out until this is fixed"
))
def test_binned_cv_handles_a_bounded_bimodal_sample():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.beta(6.0, 4.0, 2400), rng.beta(1.6, 12.0, 2400)])
    cv_bandwidth(x, candidates=default_cv_candidates(x, 10), folds=3, seed=0)


@pytest.mark.xfail(strict=True, reason=(
    "a positive subnormal mass whose midpoint underflows to 0 makes the JS "
    "divergence infinite, which is clamped to T = 1"
))
def test_js_distance_survives_an_underflowing_midpoint():
    p = np.array([1.0, 5e-324])
    q = np.array([1.0, 0.0])
    assert js_distance_from_masses(p, q) < 1e-6
