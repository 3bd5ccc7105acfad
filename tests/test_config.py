"""Config parsing: values are checked before any computation starts."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
import yaml

from idstats import config
from idstats.config import apply_overrides, config_echo, parse_config
from idstats.errors import ConfigError, DataQualityWarning
from idstats.tabular import ColumnTable, LabelVocabulary
from idstats.trees import RfeConfig
from idstats.wytest import WyConfig, class_pair_columns


def doc(**sections) -> dict:
    return {"input": "flows.csv", "schema": {"x": "numeric", "y": "label"}} | sections


def test_rfe_max_depth_accepts_null_and_integers():
    assert parse_config(doc()).preprocess.rfe.max_depth is None
    cfg = parse_config(doc(preprocess={"rfe": {"max_depth": None}}))
    assert cfg.preprocess.rfe.max_depth is None
    cfg = parse_config(doc(preprocess={"rfe": {"max_depth": 6}}))
    assert cfg.preprocess.rfe.max_depth == 6
    for bad in ("deep", True, 2.5):
        with pytest.raises(ConfigError, match="max_depth"):
            parse_config(doc(preprocess={"rfe": {"max_depth": bad}}))


def test_cv_grids_accept_every_valid_value_kind():
    models = {
        "forest": {
            "n_trees": [5, 10],
            "max_depth": [None, 0, 8],
            "min_leaf": [1, 3],
            "max_features": ["sqrt", 2, None],
            "bootstrap": [True, False],
            "seed": [0, 7],
        },
        "gbdt": {
            "rounds": [10],
            "learning_rate": [0.1, 1],
            "n_bins": [2, 255],
            "lambda_reg": [0, 1.5],
            "min_child_weight": [1e-3],
        },
        "tree": {"max_depth": [3], "min_leaf": [2]},
        "majority": {"seed": [1]},
    }
    cfg = parse_config(doc(cv={"models": models}))
    # values are kept as written, so the config echo does not change
    assert cfg.cv.models == models


@pytest.mark.parametrize(
    "family, key, bad",
    [
        ("forest", "n_trees", "many"),
        ("forest", "n_trees", True),
        ("forest", "n_trees", 0),
        ("forest", "n_trees", 2.0),
        ("forest", "max_depth", "deep"),
        ("forest", "max_depth", False),
        ("forest", "max_depth", -1),
        ("forest", "max_features", "log2"),
        ("forest", "max_features", 0),
        ("forest", "bootstrap", 1),
        ("forest", "seed", -3),
        ("gbdt", "rounds", None),
        ("gbdt", "learning_rate", True),
        ("gbdt", "learning_rate", "0.1"),
        ("gbdt", "n_bins", 1),
        ("tree", "min_leaf", 0),
        ("gbdt", "learning_rate", -0.5),
        ("gbdt", "learning_rate", 0),
        ("gbdt", "learning_rate", float("nan")),
        ("gbdt", "learning_rate", float("inf")),
        ("gbdt", "lambda_reg", -1),
        ("gbdt", "lambda_reg", float("inf")),
        ("gbdt", "min_child_weight", -1e-3),
        ("gbdt", "min_child_weight", float("nan")),
    ],
)
def test_cv_grids_reject_values_of_the_wrong_kind(family, key, bad):
    models = {family: {key: [bad]}}
    with pytest.raises(ConfigError, match=f"{family}.{key}"):
        parse_config(doc(cv={"models": models}))


@pytest.mark.parametrize("family", ["forest", "majority"])
def test_an_empty_grid_is_a_config_error(family):
    message = f"config.cv.models.{family} must list at least one parameter"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(doc(cv={"models": {family: {}}}))


@pytest.mark.parametrize(
    "section, key, bad, message",
    [
        ("wy", "permutations", 0, "permutations"),
        ("wy", "alpha", 2, "alpha"),
        ("wy", "bandwidth", "foo", "policy"),
        ("wy", "cv_folds", 1, "cv_folds"),
        ("wy", "cv_candidates", 0, "cv_candidates"),
        ("wy", "grid_size", 1, "grid_size"),
        ("wy", "classes", ["A", "A"], "distinct"),
        ("density", "policy", "foo", "policy"),
        ("density", "grid_size", 1, "grid_size"),
        ("density", "features", [], "features"),
        ("wy", "features", [], "features"),
        ("density", "features", ["a", "b", "a"], "features lists 'a' more than once"),
        ("wy", "features", ["b", "b"], "features lists 'b' more than once"),
        ("wy", "classes", ["", "Wormhole"], "two non-empty class names"),
        ("wy", "classes", ["A"], "two non-empty class names"),
        ("wy", "classes", ["A", "B", "C"], "two non-empty class names"),
        # frozen bandwidths are gone: the key is unknown, not ignored
        ("wy", "refit_bandwidths", False, "'refit_bandwidths'"),
    ],
)
def test_wy_and_density_values_are_rejected_at_parse_time(section, key, bad, message):
    with pytest.raises(ConfigError, match=f"config.{section}: .*{message}"):
        parse_config(doc(**{section: {key: bad}}))


@pytest.mark.parametrize("exponent", [".nan", ".inf", "-.inf"])
def test_a_non_finite_power_exponent_is_rejected_at_parse_time(exponent):
    text = f"""
input: flows.csv
schema: {{x: numeric, y: label}}
preprocess:
  engineered:
    - {{source: x, transform: power, exponent: {exponent}}}
"""
    message = "config.preprocess.engineered[0]: power transform needs a finite exponent"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(yaml.safe_load(text))


@pytest.mark.parametrize(
    "section, values, where",
    [
        ("preprocess", {"test_fraction": 1.5}, "config.preprocess: test_fraction"),
        ("preprocess", {"test_fraction": 0}, "config.preprocess: test_fraction"),
        ("preprocess", {"correlation_threshold": -2.0}, "correlation_threshold"),
        ("preprocess", {"correlation_threshold": 0.0}, "correlation_threshold"),
        ("preprocess", {"rfe": {"step": 0}}, "config.preprocess.rfe: step"),
        ("preprocess", {"rfe": {"n_trees": 0}}, "config.preprocess.rfe: .*n_trees"),
        ("preprocess", {"rfe": {"keep_threshold": -1.0}}, "rfe: keep_threshold"),
        ("preprocess", {"rfe": {"keep_threshold": 1.5}}, "rfe: keep_threshold"),
        ("preprocess", {"rfe": {"max_depth": -3}}, "config.preprocess.rfe: max_depth"),
        ("cv", {"k": 0}, "config.cv: k"),
        ("cv", {"k": 1}, "config.cv: k"),
    ],
)
def test_preprocess_rfe_and_cv_values_are_rejected_at_parse_time(section, values, where):
    with pytest.raises(ConfigError, match=where):
        parse_config(doc(**{section: values}))


def test_preprocess_rfe_and_cv_boundary_values_are_accepted():
    cfg = parse_config(doc(
        preprocess={"correlation_threshold": 1.0, "rfe": {"keep_threshold": 0.0}},
        cv={"k": 2},
    ))
    assert cfg.preprocess.correlation_threshold == 1.0
    assert cfg.preprocess.rfe.keep_threshold == 0.0
    assert cfg.cv.k == 2


def test_the_rfe_section_is_the_rfe_config():
    assert parse_config(doc()).preprocess.rfe == RfeConfig()
    section = {"keep_threshold": 0, "step": 2, "n_trees": 5, "max_depth": 4}
    cfg = parse_config(doc(preprocess={"rfe": section}))
    assert cfg.preprocess.rfe == RfeConfig(keep_threshold=0.0, step=2, n_trees=5, max_depth=4)


def test_wy_values_need_no_class_pair_until_the_stage_runs():
    cfg = parse_config(doc(wy={"permutations": 10, "bandwidth": "scott"}))
    assert cfg.wy.classes is None
    table = ColumnTable(
        {"x": np.arange(4.0)}, np.array([0, 0, 1, 1]), LabelVocabulary(names=("A", "B"))
    )
    # the class-pair columns are the first thing the test needs the pair for
    with pytest.raises(ConfigError, match="class pair; set wy.classes .* --classes V,W"):
        class_pair_columns(table, ["x"], cfg.wy)
    wy = apply_overrides(cfg, classes=("A", "B")).wy
    assert (wy.classes, wy.permutations) == (("A", "B"), 10)
    with pytest.warns(DataQualityWarning, match="only 2 rows"):
        _, n_a, n_b = class_pair_columns(table, ["x"], wy)
    assert (n_a, n_b) == (2, 2)


def test_schema_column_names_are_strings():
    text = "input: flows.csv\nschema:\n  {key}: numeric\n  y: label\n"
    message = "config.schema.80.name must be str, got int"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(yaml.safe_load(text.format(key="80")))
    cfg = parse_config(yaml.safe_load(text.format(key='"80"')))
    assert [column.name for column in cfg.schema] == ["80", "y"]


def test_a_schema_entry_needs_a_role():
    with pytest.raises(ConfigError, match=re.escape("config.schema.x needs 'role'")):
        parse_config(doc(schema={"x": {"encoding": "dummy"}, "y": "label"}))


def test_the_wy_section_is_the_test_config():
    assert parse_config(doc()).wy == WyConfig()
    wy = parse_config(EVERY_FIELD).wy
    assert wy == WyConfig(
        classes=("A", "B"),
        permutations=99,
        alpha=0.1,
        bandwidth="scott",
        grid_size=128,
        cv_candidates=4,
        cv_folds=2,
        features=("rate", "proto_tcp"),
    )


@pytest.mark.parametrize(
    "override, message",
    [
        ({"permutations": 0}, "permutations"),
        ({"alpha": 2.0}, "alpha"),
        ({"bandwidth": "foo"}, "policy"),
        ({"classes": ("A", "A")}, "distinct"),
        ({"seed": -1}, "seed"),
        ({"threads": 0}, "threads"),
        ({"classes": ("A", "")}, "non-empty"),
        ({"classes": ("A", "B", "C")}, "two non-empty"),
    ],
)
def test_overrides_are_checked_like_the_config(override, message):
    cfg = parse_config(doc(wy={"classes": ["A", "B"]}))
    with pytest.raises(ConfigError, match=message):
        apply_overrides(cfg, **override)


def _report_text(echo: dict) -> str:
    # report.json is written with sorted keys, so key order does not matter,
    # but 1 and 1.0 do
    return json.dumps(echo, sort_keys=True, indent=1)


def test_default_document_echo():
    expected = {
        "input": "flows.csv",
        "output": "out",
        "seed": 0,
        "threads": 1,
        "schema": [
            {"name": "x", "role": "numeric", "encoding": None},
            {"name": "y", "role": "label", "encoding": None},
        ],
        "preprocess": {
            "test_fraction": 0.2,
            "dedup": True,
            "scale": True,
            "correlation_threshold": 0.7,
            "engineered": [],
            "rfe": {"keep_threshold": 0.025, "step": 1, "n_trees": 30, "max_depth": None},
        },
        "cv": {"k": 10, "models": {}},
        "density": {"policy": "scott", "grid_size": 512, "features": None},
        "wy": {
            "classes": None,
            "permutations": 1000,
            "alpha": 0.05,
            "bandwidth": "cv",
            "grid_size": 512,
            "cv_candidates": 10,
            "cv_folds": 3,
            "features": None,
        },
    }
    assert _report_text(config_echo(parse_config(doc()))) == _report_text(expected)


EVERY_FIELD = {
    "input": "/data/flows.csv",
    "output": "/data/results",
    "seed": 7,
    "threads": 3,
    "schema": {
        "proto": {"role": "categorical", "encoding": "dummy"},
        "rate": "numeric",
        "junk": {"role": "drop"},
        "label": "label",
    },
    "preprocess": {
        "test_fraction": 0.3,
        "dedup": False,
        "scale": False,
        "correlation_threshold": 1,
        "engineered": [
            {"source": "rate", "transform": "power", "exponent": 2},
            {"source": "rate", "transform": "reciprocal"},
        ],
        "rfe": {"keep_threshold": 0, "step": 2, "n_trees": 5, "max_depth": 4},
    },
    "cv": {
        "k": 5,
        "models": {
            "forest": {"n_trees": [5, 10], "max_features": ["sqrt", None]},
            "majority": {"seed": [1]},
        },
    },
    "density": {"policy": "silverman", "grid_size": 64, "features": ["rate"]},
    "wy": {
        "classes": ["A", "B"],
        "permutations": 99,
        "alpha": 0.1,
        "bandwidth": "scott",
        "grid_size": 128,
        "cv_candidates": 4,
        "cv_folds": 2,
        "features": ["rate", "proto_tcp"],
    },
}


def test_every_field_document_echo():
    expected = {
        "input": "/data/flows.csv",
        "output": "/data/results",
        "seed": 7,
        "threads": 3,
        "schema": [
            {"name": "proto", "role": "categorical", "encoding": "dummy"},
            {"name": "rate", "role": "numeric", "encoding": None},
            {"name": "junk", "role": "drop", "encoding": None},
            {"name": "label", "role": "label", "encoding": None},
        ],
        "preprocess": {
            "test_fraction": 0.3,
            "dedup": False,
            "scale": False,
            # integers are widened where the option is a float
            "correlation_threshold": 1.0,
            "engineered": [
                {"source": "rate", "transform": "power", "exponent": 2.0},
                {"source": "rate", "transform": "reciprocal", "exponent": None},
            ],
            "rfe": {"keep_threshold": 0.0, "step": 2, "n_trees": 5, "max_depth": 4},
        },
        "cv": {
            "k": 5,
            "models": {
                "forest": {"n_trees": [5, 10], "max_features": ["sqrt", None]},
                "majority": {"seed": [1]},
            },
        },
        "density": {"policy": "silverman", "grid_size": 64, "features": ["rate"]},
        "wy": {
            "classes": ["A", "B"],
            "permutations": 99,
            "alpha": 0.1,
            "bandwidth": "scott",
            "grid_size": 128,
            "cv_candidates": 4,
            "cv_folds": 2,
            "features": ["rate", "proto_tcp"],
        },
    }
    assert _report_text(config_echo(parse_config(EVERY_FIELD))) == _report_text(expected)


@pytest.mark.parametrize(
    "path, where",
    [
        ((), "config"),
        (("preprocess",), "config.preprocess"),
        (("preprocess", "rfe"), "config.preprocess.rfe"),
        (("cv",), "config.cv"),
        (("density",), "config.density"),
        (("wy",), "config.wy"),
        (("schema", "proto"), "config.schema.proto"),
        (("preprocess", "engineered", 0), "config.preprocess.engineered[0]"),
        (("cv", "models", "forest"), "config.cv.models.forest"),
    ],
)
def test_unknown_keys_are_rejected_with_their_path(path, where):
    document = json.loads(json.dumps(EVERY_FIELD))
    section = document
    for step in path:
        section = section[step]
    section["bogus"] = [1]
    message = f"unknown key(s) in {where}: 'bogus'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(document)



def test_a_merged_key_may_still_be_overridden():
    # `<<` merges are expanded in place; b is merged into c before b's own
    # turn comes, so each mapping's keys are checked before its expansion
    text = "outer:\n  b: &b {<<: {x: 1}, x: 2}\nc: {<<: *b, y: 3}\n"
    assert yaml.load(text, Loader=config._UniqueKeyLoader) == {
        "outer": {"b": {"x": 2}}, "c": {"x": 2, "y": 3},
    }
