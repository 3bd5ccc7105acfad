"""End-to-end stage runs through the CLI: artifacts, report, exit codes."""

from __future__ import annotations

import csv
import fcntl
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest

from idstats import cli

CONFIG_YAML = """\
input: data.csv
output: out
seed: 9
threads: 1
schema:
  rate: numeric
  delay: numeric
  bytes: numeric
  jitter: numeric
  proto:
    role: categorical
    encoding: dummy
  label: label
preprocess:
  test_fraction: 0.25
  correlation_threshold: 0.9
  rfe:
    keep_threshold: 0.02
    n_trees: 15
cv:
  k: 4
  models:
    forest:
      n_trees: [8, 16]
      max_depth: [5]
density:
  policy: scott
  grid_size: 96
wy:
  classes: [attack, flood]
  permutations: 24
  bandwidth: scott
  grid_size: 96
"""


def write_dataset(path: Path) -> None:
    rng = np.random.default_rng(42)
    rows = []
    for label, count, mu_rate, mu_delay in (
        ("normal", 90, 0.0, 0.0),
        ("attack", 70, 2.5, 0.0),
        ("flood", 50, 2.5, 3.0),
    ):
        rate = rng.normal(mu_rate, 1.0, count)
        delay = rng.normal(mu_delay, 1.0, count)
        for i in range(count):
            rows.append(
                (
                    f"{rate[i]:.6f}",
                    f"{delay[i]:.6f}",
                    f"{2.0 * rate[i] + rng.normal(0.0, 0.05):.6f}",
                    f"{rng.normal(0.0, 1.0):.6f}",
                    rng.choice(["tcp", "udp"]),
                    label,
                )
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rate", "delay", "bytes", "jitter", "proto", "label"])
        writer.writerows(rows)


def run_all_stages(cfg_path: Path) -> None:
    for command in ("preprocess", "cv", "density", "wy", "report"):
        rc = cli.main([command, "--config", str(cfg_path)])
        assert rc == 0, command


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("pipeline")
    write_dataset(base / "data.csv")
    (base / "run.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    run_all_stages(base / "run.yaml")
    return base


def test_report_envelope(run_dir):
    report = json.loads((run_dir / "out" / "report.json").read_text())
    assert report["format"] == "idstats-report"
    assert report["version"] == 1
    assert report["tool"]["name"] == "idstats"
    assert report["seed"] == 9
    assert set(report["stages"]) == {"preprocess", "cv", "density", "wy"}
    assert report["config"]["cv"]["k"] == 4
    # wall-clock metadata lives in run_meta.json, never in the report
    assert "started" not in (run_dir / "out" / "report.json").read_text()
    meta = json.loads((run_dir / "out" / "run_meta.json").read_text())
    assert set(meta["stages"]) == set(report["stages"])
    assert all("started" in v for v in meta["stages"].values())


def test_preprocess_artifacts_and_feature_drops(run_dir):
    out = run_dir / "out"
    assert (out / "artifacts" / "preprocessed.npz").exists()
    state = json.loads((out / "artifacts" / "state.json").read_text())
    # bytes is a near-affine copy of rate: one of the two must fall to the
    # correlation filter with both coefficients in the reason
    dropped = {d["feature"] for d in state["correlation_dropped"]}
    assert len(dropped & {"rate", "bytes"}) == 1
    assert all(f not in state["selected"] for f in dropped)
    assert "delay" in state["selected"]
    with open(out / "tables" / "dropped_features.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["Stage"] for r in rows} <= {"correlation", "rfe"}
    with open(out / "tables" / "selected_features.csv", newline="") as fh:
        selected_rows = list(csv.DictReader(fh))
    assert [r["Feature"] for r in selected_rows] == state["selected"]


def test_cv_stage_reports_best_model(run_dir):
    fragment = json.loads((run_dir / "out" / "fragments" / "cv.json").read_text())
    assert fragment["k"] == 4
    assert fragment["best"]["family"] == "forest"
    assert fragment["best"]["params"]["n_trees"] in (8, 16)
    assert (run_dir / "out" / "artifacts" / "best_model.json").exists()
    with open(run_dir / "out" / "tables" / "cv_metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {
        "Model", "Split", "Precision", "Recall", "F1", "RocAuc", "F1Range", "Stable"
    }
    f1 = {r["Split"]: float(r["F1"]) for r in rows if r["Model"] == "forest"}
    assert f1["test"] > 0.8
    with open(run_dir / "out" / "tables" / "confusion_test.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["True\\Predicted", "attack", "flood", "normal"]


def test_density_stage_writes_curves(run_dir):
    out = run_dir / "out"
    fragment = json.loads((out / "fragments" / "density.json").read_text())
    state = json.loads((out / "artifacts" / "state.json").read_text())
    analyzed = [f for f in state["selected"] if f not in state["indicator_columns"]]
    for feature in analyzed:
        assert (out / "plotdata" / f"density_{feature}.csv").exists()
    with open(out / "tables" / "shape_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["Class"] for r in rows} == {"normal", "attack", "flood"}
    assert {r["Feature"] for r in rows} == set(analyzed)
    assert all(float(r["Q1"]) <= float(r["Median"]) <= float(r["Q3"]) for r in rows)
    assert set(fragment["features"]) == set(analyzed)


def test_wy_stage_results_and_decision(run_dir):
    fragment = json.loads((run_dir / "out" / "fragments" / "wy.json").read_text())
    assert fragment["classes"] == ["attack", "flood"]
    assert fragment["permutations"] == 24
    assert fragment["bandwidth_policy"] == "scott"
    assert len(fragment["max_trace"]) == 24
    by_feature = {r["feature"]: r for r in fragment["results"]}
    # delay separates attack from flood by three sigma; jitter is pure noise
    assert by_feature["delay"]["p_value"] == pytest.approx(1 / 25)
    assert by_feature["delay"]["p_display"] == f"<{1 / 24:.3g}"
    assert fragment["decision"]["rejected"]["delay"] is True
    if "jitter" in by_feature:
        assert by_feature["jitter"]["p_value"] > 0.05
    with open(run_dir / "out" / "tables" / "wy_results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0].keys() == {"Feature", "Jensen-Shannon Distance", "p-value"}
    with open(
        run_dir / "out" / "plotdata" / "wy_delay.csv", newline=""
    ) as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "density_a", "density_b", "mass_a", "mass_b"]


def test_rerunning_stages_reproduces_the_report_byte_for_byte(run_dir):
    report_path = run_dir / "out" / "report.json"
    before = report_path.read_bytes()
    run_all_stages(run_dir / "run.yaml")
    assert report_path.read_bytes() == before


def test_outputs_do_not_depend_on_the_worker_count(tmp_path):
    write_dataset(tmp_path / "data.csv")
    (tmp_path / "run.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        for command in ("preprocess", "cv"):
            rc = cli.main(
                [command, "--config", str(tmp_path / "run.yaml"),
                 "--out", str(out), "--threads", threads]
            )
            assert rc == 0, command
        outputs.append(
            [
                (out / name).read_bytes()
                for name in (
                    "fragments/preprocess.json",
                    "fragments/cv.json",
                    "artifacts/best_model.json",
                )
            ]
        )
    assert outputs[0] == outputs[1]


def test_seed_override_changes_the_report(run_dir, capsys):
    rc = cli.main(
        ["preprocess", "--config", str(run_dir / "run.yaml"),
         "--seed", "11", "--out", str(run_dir / "out-alt")]
    )
    assert rc == 0
    assert "preprocess: wrote" in capsys.readouterr().out
    fragment = json.loads(
        (run_dir / "out-alt" / "fragments" / "preprocess.json").read_text()
    )
    baseline = json.loads(
        (run_dir / "out" / "fragments" / "preprocess.json").read_text()
    )
    assert fragment["counts"] == baseline["counts"]
    assert fragment != baseline  # the split and RFE streams moved


def test_wy_cli_overrides(run_dir):
    out = str(run_dir / "out-wy")
    assert cli.main(
        ["preprocess", "--config", str(run_dir / "run.yaml"), "--out", out]
    ) == 0
    rc = cli.main(
        ["wy", "--config", str(run_dir / "run.yaml"), "--out", out,
         "--permutations", "12", "--bandwidth", "silverman", "--alpha", "0.1",
         "--classes", "normal,attack"]
    )
    assert rc == 0
    fragment = json.loads(
        (run_dir / "out-wy" / "fragments" / "wy.json").read_text()
    )
    assert fragment["permutations"] == 12
    assert fragment["bandwidth_policy"] == "silverman"
    assert fragment["alpha"] == 0.1
    assert fragment["classes"] == ["normal", "attack"]
    assert len(fragment["max_trace"]) == 12


def test_stage_order_is_enforced(tmp_path, capsys):
    write_dataset(tmp_path / "data.csv")
    (tmp_path / "run.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    rc = cli.main(["cv", "--config", str(tmp_path / "run.yaml")])
    assert rc == 2
    assert "preprocess stage first" in capsys.readouterr().err
    rc = cli.main(["report", "--config", str(tmp_path / "run.yaml")])
    assert rc == 2


def test_usage_and_config_errors_exit_1(tmp_path, capsys):
    write_dataset(tmp_path / "data.csv")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(CONFIG_YAML, encoding="utf-8")

    assert cli.main(["preprocess", "--config", str(tmp_path / "nope.yaml")]) == 1
    assert cli.main(["frobnicate", "--config", str(cfg)]) == 1
    assert cli.main(["wy", "--config", str(cfg), "--classes", "onlyone"]) == 1
    assert cli.main(["wy", "--config", str(cfg), "--bandwidth", "kernelx"]) == 1

    bad = tmp_path / "bad.yaml"
    bad.write_text(CONFIG_YAML + "unknown_section: 1\n", encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unknown_section" in err


def test_json_config_is_accepted(tmp_path):
    import yaml

    write_dataset(tmp_path / "data.csv")
    doc = yaml.safe_load(CONFIG_YAML)
    (tmp_path / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(tmp_path / "run.json")]) == 0
    assert (tmp_path / "out" / "artifacts" / "state.json").exists()


def test_busy_output_directory_exits_3(tmp_path, capsys):
    write_dataset(tmp_path / "data.csv")
    (tmp_path / "run.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    with open(out / ".lock", "w", encoding="utf-8") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc = cli.main(["preprocess", "--config", str(tmp_path / "run.yaml")])
    assert rc == 3
    assert "in use" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    (tmp_path / "run.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    rc = cli.main(["preprocess", "--config", str(tmp_path / "run.yaml")])
    assert rc == 2
    assert "preprocess" in capsys.readouterr().err
