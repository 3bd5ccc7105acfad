"""End-to-end stage runs through the CLI: artifacts, report, exit codes."""

from __future__ import annotations

import csv
import fcntl
import json
import shutil
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from idstats import cli, pipeline, trees
from idstats.config import parse_config
from idstats.errors import DataError, DataQualityWarning
from idstats.evaluation import confusion_matrix
from idstats.pipeline import run_stage

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
    # the saved model reproduces the refit's test confusion matrix
    doc = (run_dir / "out" / "artifacts" / "best_model.json").read_text(encoding="utf-8")
    model = trees.model_from_dict(json.loads(doc))
    with np.load(run_dir / "out" / "artifacts" / "preprocessed.npz") as data:
        names = data["feature_names"].tolist()
        X_test = data["X_test"][:, [names.index(s) for s in data["selected"].tolist()]]
        y_test = data["y_test"]
    predicted = trees.predict_labels(model, X_test)
    cm = confusion_matrix(y_test, predicted, len(fragment["confusion"]["classes"]))
    assert cm.tolist() == fragment["confusion"]["test"]
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


def _run_outputs(base: Path, config: str, threads: str, stages) -> dict:
    """Every deterministic output file of a fresh run, by relative path."""
    (base / "run.yaml").write_text(config, encoding="utf-8")
    out = base / "out"
    shutil.rmtree(out, ignore_errors=True)
    for command in stages:
        rc = cli.main(
            [command, "--config", str(base / "run.yaml"), "--out", str(out),
             "--threads", threads]
        )
        assert rc == 0, command
    files = [out / "report.json", *(out / "artifacts").glob("*.json")]
    for folder in ("fragments", "tables", "plotdata"):
        files += (out / folder).rglob("*")
    return {str(f.relative_to(out)): f.read_bytes() for f in files if f.is_file()}


def test_outputs_do_not_depend_on_the_worker_count(tmp_path):
    write_dataset(tmp_path / "data.csv")
    two_families = CONFIG_YAML.replace(
        "      max_depth: [5]\n",
        "      max_depth: [5]\n    gbdt:\n      rounds: [2, 3]\n      max_depth: [2]\n",
    )
    variants = {
        # observed statistics and bandwidth CV on the pool, two CV families
        "cv": two_families.replace("bandwidth: scott", "bandwidth: cv"),
        # scott bandwidths refit on every permutation, one CV family
        "scott": CONFIG_YAML,
    }
    for name, config in variants.items():
        stages = ("preprocess", "cv", "density", "wy")
        serial = _run_outputs(tmp_path, config, "1", stages)
        pooled = _run_outputs(tmp_path, config, "2", stages)
        # the config echo names the thread count; nothing else may differ
        echo = b'"threads": 2,'
        assert pooled["report.json"].count(echo) == 1
        pooled["report.json"] = pooled["report.json"].replace(echo, b'"threads": 1,')
        assert sorted(pooled) == sorted(serial), name
        for path in serial:
            assert pooled[path] == serial[path], (name, path)
        assert "fragments/wy.json" in serial and "tables/cv_metrics.csv" in serial


def test_worker_warnings_reach_the_caller_in_order(tmp_path):
    write_dataset(tmp_path / "data.csv")
    rng = np.random.default_rng(7)
    extra = [("rare", 2), ("few", 6)]  # 1 and 4 training rows after the split
    with open(tmp_path / "data.csv", "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            [*(f"{v:.6f}" for v in rng.normal(1.0, 1.0, 4)), "tcp", label]
            for label, count in extra
            for _ in range(count)
        )
    config = CONFIG_YAML.replace("classes: [attack, flood]", "classes: [few, attack]")
    runs = []
    for threads in ("1", "2"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _run_outputs(tmp_path, config, threads, ("preprocess", "density", "wy"))
        runs.append(
            [str(w.message) for w in caught if issubclass(w.category, DataQualityWarning)]
        )
    assert runs[1] == runs[0]
    assert any("class 'rare' has one row" in m for m in runs[0])
    assert sum("class 'few' has only 4 rows" in m for m in runs[0]) == 1


def _wy_config_with_small_classes(tmp_path: Path, classes: str, policy: str):
    """The CLI dataset plus 'rare' (1 training row) and 'pair' (2), as a
    RunConfig whose wy stage tests ``classes`` under ``policy``."""
    write_dataset(tmp_path / "data.csv")
    rng = np.random.default_rng(8)
    with open(tmp_path / "data.csv", "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            [*(f"{v:.6f}" for v in rng.normal(0.5, 1.0, 4)), "tcp", label]
            for label, count in (("rare", 2), ("pair", 3))
            for _ in range(count)
        )
    text = CONFIG_YAML.replace("classes: [attack, flood]", f"classes: {classes}")
    doc = yaml.safe_load(text.replace("bandwidth: scott", f"bandwidth: {policy}"))
    cfg = parse_config(doc, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        run_stage(cfg, "preprocess")
    return cfg


@pytest.mark.parametrize("policy", ["scott", "silverman", "cv"])
def test_wy_rejects_a_one_row_class_under_every_policy(tmp_path, policy):
    cfg = _wy_config_with_small_classes(tmp_path, "[rare, attack]", policy)
    with pytest.raises(DataError, match="class 'rare' has 1 row"):
        run_stage(cfg, "wy")
    assert not (cfg.output / "fragments" / "wy.json").exists()


def test_wy_cv_rejects_a_class_with_fewer_rows_than_folds(tmp_path):
    cfg = _wy_config_with_small_classes(tmp_path, "[attack, pair]", "cv")
    with pytest.raises(DataError, match=r"'pair' has 2 row\(s\); .* cv needs at least 3"):
        run_stage(cfg, "wy")
    (tmp_path / "scott").mkdir()
    scott = _wy_config_with_small_classes(tmp_path / "scott", "[attack, pair]", "scott")
    with pytest.warns(DataQualityWarning, match="class 'pair' has only 2 rows"):
        run_stage(scott, "wy")
    assert (scott.output / "fragments" / "wy.json").exists()


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


def _report_config_wy(run_dir: Path, tmp_path: Path, wy_section: dict | None) -> dict:
    """report.json's wy echo, re-merged from the module run's fragments under
    a config whose wy section is ``wy_section`` (None leaves the section out)."""
    shutil.copytree(run_dir / "out" / "fragments", tmp_path / "out" / "fragments")
    doc = yaml.safe_load(CONFIG_YAML)
    doc["input"] = str(run_dir / "data.csv")
    del doc["wy"]
    if wy_section is not None:
        doc["wy"] = wy_section
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main(["report", "--config", str(tmp_path / "run.yaml")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    return report["config"]["wy"]


def test_report_echoes_the_wy_defaults(run_dir, tmp_path):
    assert _report_config_wy(run_dir, tmp_path, None) == {
        "classes": None,
        "permutations": 1000,
        "alpha": 0.05,
        "bandwidth": "cv",
        "grid_size": 512,
        "cv_candidates": 10,
        "cv_folds": 3,
        "features": None,
    }


def test_report_echoes_every_wy_key(run_dir, tmp_path):
    section = {
        "classes": ["flood", "normal"],
        "permutations": 7,
        "alpha": 0.2,
        "bandwidth": "silverman",
        "grid_size": 33,
        "cv_candidates": 4,
        "cv_folds": 2,
        "features": ["delay", "rate"],
    }
    assert _report_config_wy(run_dir, tmp_path, section) == {
        "classes": ["flood", "normal"],
        "permutations": 7,
        "alpha": 0.2,
        "bandwidth": "silverman",
        "grid_size": 33,
        "cv_candidates": 4,
        "cv_folds": 2,
        "features": ["delay", "rate"],
    }


def _colliding_names_config(tmp_path: Path):
    """The CLI dataset with delay and jitter renamed to 'Mean Delay' and
    'Mean_Delay', both listed for density and wy, after preprocess ran."""
    write_dataset(tmp_path / "data.csv")
    lines = (tmp_path / "data.csv").read_text(encoding="utf-8").split("\n", 1)
    header = lines[0].replace("delay", "Mean Delay").replace("jitter", "Mean_Delay")
    (tmp_path / "data.csv").write_text(header + "\n" + lines[1], encoding="utf-8")
    doc = yaml.safe_load(CONFIG_YAML)
    schema = doc["schema"]
    doc["schema"] = {
        {"delay": "Mean Delay", "jitter": "Mean_Delay"}.get(name, name): role
        for name, role in schema.items()
    }
    features = ["rate", "Mean Delay", "Mean_Delay"]
    doc["density"]["features"] = features
    doc["wy"]["features"] = features
    cfg = parse_config(doc, tmp_path)
    run_stage(cfg, "preprocess")
    return cfg


@pytest.mark.parametrize("stage", ["density", "wy"])
def test_features_sharing_a_plot_file_name_are_rejected(tmp_path, stage):
    cfg = _colliding_names_config(tmp_path)
    message = (
        "features 'Mean Delay' and 'Mean_Delay' would share the plot-data "
        "file name 'Mean_Delay'"
    )
    with pytest.raises(DataError, match=message):
        run_stage(cfg, stage)
    assert not (cfg.output / "plotdata").exists()
    assert not (cfg.output / "fragments" / f"{stage}.json").exists()


@pytest.mark.parametrize("stage", ["density", "wy"])
def test_feature_errors_name_their_stage_once(tmp_path, monkeypatch, stage):
    cfg = _colliding_names_config(tmp_path)
    section = getattr(cfg, stage)
    load = pipeline.load_artifacts
    # an empty selection, for the case where no feature is listed
    monkeypatch.setattr(pipeline, "load_artifacts", lambda out: replace(load(out), selected=[]))
    cases = {
        "features 'Mean Delay' and 'Mean_Delay' would share": section,
        r"unknown feature\(s\) bogus": replace(section, features=("rate", "bogus")),
        "no continuous features survive selection": replace(section, features=None),
    }
    for message, options in cases.items():
        with pytest.raises(DataError, match=f"^{stage}: {message}") as caught:
            run_stage(replace(cfg, **{stage: options}), stage)
        assert str(caught.value).count(stage) == 1


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
    assert cli.main(["wy", "--config", str(cfg), "--classes", "a,b,c"]) == 1
    assert cli.main(["wy", "--config", str(cfg), "--classes", "a,"]) == 1
    assert cli.main(["wy", "--config", str(cfg), "--bandwidth", "kernelx"]) == 1

    bad = tmp_path / "bad.yaml"
    bad.write_text(CONFIG_YAML + "unknown_section: 1\n", encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "unknown_section" in err


def test_bad_wy_flags_and_a_missing_class_pair_exit_1(run_dir, tmp_path, capsys):
    shutil.copytree(run_dir / "out" / "artifacts", tmp_path / "out" / "artifacts")
    text = CONFIG_YAML.replace("input: data.csv", f"input: {run_dir / 'data.csv'}")
    (tmp_path / "run.yaml").write_text(text, encoding="utf-8")
    (tmp_path / "nopair.yaml").write_text(
        text.replace("  classes: [attack, flood]\n", ""), encoding="utf-8"
    )
    assert cli.main(["wy", "--config", str(tmp_path / "run.yaml"), "--alpha", "2"]) == 1
    assert "alpha must be in (0, 1)" in capsys.readouterr().err
    rc = cli.main(["wy", "--config", str(tmp_path / "run.yaml"), "--permutations", "0"])
    assert rc == 1
    assert "permutations must be >= 1" in capsys.readouterr().err
    assert cli.main(["wy", "--config", str(tmp_path / "nopair.yaml")]) == 1
    assert "needs a class pair" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fragments" / "wy.json").exists()


def test_json_config_is_accepted(tmp_path):
    import yaml

    write_dataset(tmp_path / "data.csv")
    doc = yaml.safe_load(CONFIG_YAML)
    (tmp_path / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(tmp_path / "run.json")]) == 0
    assert (tmp_path / "out" / "artifacts" / "state.json").exists()


@pytest.mark.parametrize(
    "key, text",
    [
        # a second top-level section
        ("wy", CONFIG_YAML + "wy:\n  permutations: 8\n"),
        # a schema column given two roles
        ("rate", CONFIG_YAML.replace("  rate: numeric\n", "  rate: numeric\n  rate: drop\n")),
        # a nested grid key
        ("n_trees", CONFIG_YAML.replace(
            "      n_trees: [8, 16]\n", "      n_trees: [8, 16]\n      n_trees: [4]\n"
        )),
    ],
    ids=["section", "schema_column", "nested_key"],
)
def test_a_yaml_key_given_twice_in_one_mapping_exits_1(tmp_path, capsys, key, text):
    # the parser would keep the last value and silently drop the first
    write_dataset(tmp_path / "data.csv")
    (tmp_path / "run.yaml").write_text(text, encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(tmp_path / "run.yaml")]) == 1
    err = capsys.readouterr().err
    repeat = [i for i, line in enumerate(text.splitlines(), 1) if line.strip().startswith(key)]
    assert err.startswith("config error: ")
    assert f"found key {key!r} twice" in err and f"line {repeat[-1]}," in err
    assert not (tmp_path / "out").exists()


def test_a_json_key_given_twice_in_one_object_exits_1(tmp_path, capsys):
    write_dataset(tmp_path / "data.csv")
    text = json.dumps(yaml.safe_load(CONFIG_YAML))
    (tmp_path / "run.json").write_text('{"seed": 3, ' + text[1:], encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(tmp_path / "run.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "found key 'seed' twice" in err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "cell, message",
    [(b"caf\xe9", "not UTF-8 text"), (b"x" * 140_000, "field larger than field limit")],
    ids=["latin1_byte", "oversized_field"],
)
def test_an_undecodable_or_malformed_csv_record_exits_2(tmp_path, capsys, cell, message):
    data = tmp_path / "data.csv"
    write_dataset(data)
    line = len(data.read_bytes().splitlines()) + 1
    with open(data, "ab") as handle:
        handle.write(b"1.0,0.5,2.0,0.1," + cell + b",normal\n")
    (tmp_path / "run.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    rc = cli.main(["preprocess", "--config", str(tmp_path / "run.yaml")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: preprocess: ")
    assert f"data.csv: line {line}: {message}" in err


def test_a_write_that_fails_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    from idstats import pipeline, trees
    from idstats.atomic import atomic_open

    def failing_rows():
        yield [2]
        raise RuntimeError("writer died")

    table = tmp_path / "table.csv"
    pipeline._write_csv(table, ["a"], [[1]])
    with pytest.raises(RuntimeError, match="writer died"):
        pipeline._write_csv(table, ["a"], failing_rows())
    assert table.read_bytes() == b"a\r\n1\r\n"

    doc = tmp_path / "doc.json"
    pipeline._write_json(doc, {"a": 1})
    with pytest.raises(TypeError):
        pipeline._write_json(doc, {"a": object()})
    assert json.loads(doc.read_text(encoding="utf-8")) == {"a": 1}

    model = tmp_path / "model.json"
    X = np.arange(8.0).reshape(4, 2)
    trees.save_model(trees.fit_majority(X, np.array([0, 1, 1, 1])), str(model))
    saved = model.read_bytes()
    # json.dump writes the first keys before it meets the bad value
    monkeypatch.setattr(trees, "model_to_dict", lambda m: {"format": 1, "bad": object()})
    with pytest.raises(TypeError):
        trees.save_model(None, str(model))
    assert model.read_bytes() == saved

    arrays = tmp_path / "arrays.npz"
    with atomic_open(arrays, "wb") as handle:
        np.savez(handle, x=np.arange(3))
    with pytest.raises(RuntimeError, match="writer died"):
        with atomic_open(arrays, "wb") as handle:
            handle.write(b"PK partial")
            raise RuntimeError("writer died")
    assert np.load(arrays)["x"].tolist() == [0, 1, 2]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "arrays.npz", "doc.json", "model.json", "table.csv",
    ]


def test_json_documents_write_numpy_values_as_python_values(tmp_path):
    from idstats import pipeline

    doc = {
        "scalars": {
            "i": np.int64(-7),
            "b": np.bool_(True),
            "f32": np.float32(0.1),
            "f64": np.float64(1 / 3),
        },
        "arrays": {
            "ints": np.arange(3),
            "floats": np.array([[0.5, -1.25]]),
            "empty": np.zeros(0),
        },
        "nested": (1, (2.5, np.int64(3)), [np.float64(2.0), np.bool_(False)]),
    }
    path = tmp_path / "doc.json"
    pipeline._write_json(path, doc)
    assert path.read_text(encoding="utf-8") == textwrap.dedent("""\
        {
          "arrays": {
            "empty": [],
            "floats": [
              [
                0.5,
                -1.25
              ]
            ],
            "ints": [
              0,
              1,
              2
            ]
          },
          "nested": [
            1,
            [
              2.5,
              3
            ],
            [
              2.0,
              false
            ]
          ],
          "scalars": {
            "b": true,
            "f32": 0.10000000149011612,
            "f64": 0.3333333333333333,
            "i": -7
          }
        }
    """)
