"""Config parsing: values are checked before any computation starts."""

from __future__ import annotations

import pytest

from idstats.config import parse_config
from idstats.errors import ConfigError


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
    ],
)
def test_cv_grids_reject_values_of_the_wrong_kind(family, key, bad):
    models = {family: {key: [bad]}}
    with pytest.raises(ConfigError, match=f"{family}.{key}"):
        parse_config(doc(cv={"models": models}))
