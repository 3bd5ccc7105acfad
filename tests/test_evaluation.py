"""Folds, confusion matrices, macro metrics, CV reports, grid search."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from idstats import evaluation
from idstats.errors import DataError, DataQualityWarning
from idstats.evaluation import (
    STABILITY_RANGE,
    confusion_matrix,
    grid_search,
    prf_macro,
    roc_auc_ovr_macro,
    selection_key,
    stratified_kfold,
)
from idstats.tabular import ColumnTable, LabelVocabulary


def blob_table(n_per=60, shift=3.0, seed=0, classes=("a", "b")):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(i * shift, 1.0, (n_per, 2)) for i in range(len(classes))]
    X = np.vstack(parts)
    cols = {"x0": X[:, 0], "x1": X[:, 1]}
    labels = np.repeat(np.arange(len(classes)), n_per)
    return ColumnTable(cols, labels, LabelVocabulary(names=tuple(classes)))


def test_stratified_kfold_partitions_and_balances():
    labels = np.repeat([0, 1, 2], [50, 30, 20])
    fold_of = stratified_kfold(labels, k=10, seed=4)
    assert fold_of.shape == (100,)
    assert set(fold_of.tolist()) == set(range(10))
    for f in range(10):
        in_fold = labels[fold_of == f]
        # every fold holds n_c/k rows of each class when divisible
        assert np.bincount(in_fold, minlength=3).tolist() == [5, 3, 2]


def test_stratified_kfold_balance_within_one_on_uneven_classes():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 3, size=157)
    k = 5
    fold_of = stratified_kfold(labels, k=k, seed=0)
    for c in range(3):
        per_fold = [np.sum(labels[fold_of == f] == c) for f in range(k)]
        assert max(per_fold) - min(per_fold) <= 1


def test_stratified_kfold_is_seeded():
    labels = np.repeat([0, 1], 40)
    a = stratified_kfold(labels, k=4, seed=1)
    b = stratified_kfold(labels, k=4, seed=1)
    c = stratified_kfold(labels, k=4, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stratified_kfold_rejects_bad_inputs():
    with pytest.raises(DataError):
        stratified_kfold(np.array([0, 1]), k=1, seed=0)
    with pytest.raises(DataError, match="'b'"):
        stratified_kfold(
            np.array([0, 0, 0, 1]), k=3, seed=0, class_names=["a", "b"]
        )


def test_confusion_matrix_counts_and_validates():
    y_true = np.array([0, 0, 1, 1, 2])
    y_pred = np.array([0, 1, 1, 1, 0])
    cm = confusion_matrix(y_true, y_pred, 3)
    assert cm.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
    assert cm.sum() == 5
    with pytest.raises(DataError):
        confusion_matrix(y_true, y_pred[:3], 3)
    with pytest.raises(DataError):
        confusion_matrix(np.array([0, 3]), np.array([0, 0]), 3)


def _reference_prf_macro(cm):
    """The per-class branch loop that `prf_macro` replaced, kept as its oracle."""
    cm = np.asarray(cm, dtype=np.float64)
    tp, predicted, support = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
    zero_divisions = 0
    k = cm.shape[0]
    precision, recall, f1 = np.zeros(k), np.zeros(k), np.zeros(k)
    for c in range(k):
        if predicted[c] > 0:
            precision[c] = tp[c] / predicted[c]
        else:
            zero_divisions += 1
        if support[c] > 0:
            recall[c] = tp[c] / support[c]
        else:
            zero_divisions += 1
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
        else:
            zero_divisions += 1
    return float(precision.mean()), float(recall.mean()), float(f1.mean()), zero_divisions


def test_prf_macro_hand_computed_matrix():
    # per class: precision 1 and 1/2, recall 1/2 and 1, F1 2/3 and 2/3
    precision, recall, f1, zero_divisions = prf_macro(np.array([[1, 1], [0, 1]]))
    assert precision == recall == 0.75
    assert f1 == pytest.approx(2 / 3)
    assert zero_divisions == 0


@pytest.mark.parametrize(
    "cm, expected",
    [
        # class 2 never present and never predicted: P, R, F1 all 0/0
        ([[2, 0, 0], [0, 2, 0], [0, 0, 0]], (2 / 3, 2 / 3, 2 / 3, 3)),
        # class 1 present but never predicted: P is 0/0, then F1 is 0/0
        ([[2, 0], [2, 0]], (0.25, 0.5, 1 / 3, 2)),
        # class 1 predicted but never present: R is 0/0, then F1 is 0/0
        ([[2, 2], [0, 0]], (0.5, 0.25, 1 / 3, 2)),
        # class 0 present and predicted but never right: only F1 is 0/0
        ([[0, 2], [2, 2]], (0.25, 0.25, 0.25, 1)),
    ],
)
def test_prf_macro_counts_zero_divisions(cm, expected):
    *macro, zero_divisions = prf_macro(np.array(cm))
    assert macro == pytest.approx(expected[:3])
    assert zero_divisions == expected[3]


def test_prf_macro_equals_the_per_class_loop_bit_for_bit():
    rng = np.random.default_rng(38)
    for _ in range(400):
        k = int(rng.integers(1, 7))
        cm = rng.integers(0, 5, size=(k, k)) * (rng.random((k, k)) < 0.6)
        # empty some rows (absent classes) and columns (never predicted)
        cm[rng.random(k) < 0.3] = 0
        cm[:, rng.random(k) < 0.3] = 0
        assert prf_macro(cm) == _reference_prf_macro(cm)


def test_perfect_prediction_gives_unit_scores():
    y = np.array([0, 1, 2, 0, 1, 2])
    cm = confusion_matrix(y, y, 3)
    assert prf_macro(cm) == (1.0, 1.0, 1.0, 0)


def test_roc_auc_known_value_and_bounds():
    y = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    proba = np.column_stack([1 - scores, scores])
    assert roc_auc_ovr_macro(y, proba) == pytest.approx(0.75)
    # perfect separation
    perfect = np.column_stack([1 - y, y]).astype(np.float64)
    assert roc_auc_ovr_macro(y, perfect) == 1.0
    # all-tied scores: chance level from midranks
    tied = np.full((4, 2), 0.5)
    assert roc_auc_ovr_macro(y, tied) == pytest.approx(0.5)


def test_roc_auc_is_label_order_invariant():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 3, size=120)
    proba = rng.dirichlet(np.ones(3), size=120)
    base = roc_auc_ovr_macro(y, proba)
    perm = rng.permutation(120)
    assert roc_auc_ovr_macro(y[perm], proba[perm]) == pytest.approx(base, abs=1e-12)


def test_roc_auc_skips_absent_classes_with_warning():
    y = np.array([0, 0, 1, 1])
    proba = np.column_stack(
        [np.array([0.8, 0.7, 0.2, 0.1]), np.array([0.2, 0.3, 0.8, 0.9]), np.zeros(4)]
    )
    with pytest.warns(DataQualityWarning, match="class"):
        auc = roc_auc_ovr_macro(y, proba)
    assert auc == 1.0


def cv_one_cell(family, params, table, k, seed):
    """The CvReport of a one-cell grid: plain k-fold CV of one setting."""
    grid = {key: [value] for key, value in params.items()}
    return grid_search({family: grid}, table, k=k, seed=seed)[family].cells[0].report


def test_cross_validate_counts_folds_and_scores_well():
    table = blob_table(n_per=50, shift=4.0, seed=1)
    report = cv_one_cell("forest", {"n_trees": 10}, table, k=5, seed=2)
    assert report.k == 5
    assert len(report.train) == 5
    assert len(report.test) == 5
    assert report.test_mean.f1 >= 0.95
    assert report.train_mean.f1 >= report.test_mean.f1 - 0.05
    for split in ("train", "test"):
        for metric, value in report.ranges[split].items():
            assert value >= 0.0
            assert report.stable[split][metric] == (value <= STABILITY_RANGE)
    assert report.stable_overall == all(report.stable["test"].values())


def test_cross_validate_constant_predictor_is_perfectly_stable():
    table = blob_table(n_per=40, shift=0.0, seed=3)
    report = cv_one_cell("majority", {"seed": 0}, table, k=4, seed=0)
    # identical output per fold: all ranges are exactly zero
    for metric, value in report.ranges["test"].items():
        assert value == pytest.approx(0.0, abs=1e-12)
    assert report.stable_overall


def test_cross_validate_is_deterministic():
    table = blob_table(n_per=30, shift=2.0, seed=4)
    r1 = cv_one_cell("forest", {"n_trees": 5}, table, k=3, seed=7)
    r2 = cv_one_cell("forest", {"n_trees": 5}, table, k=3, seed=7)
    assert asdict(r1) == asdict(r2)


def test_cross_validate_annotates_fold_errors(monkeypatch):
    table = blob_table(n_per=12, shift=1.0, seed=5)

    def failing_fit(spec, *args, **kwargs):
        raise DataError("the fit failed")

    monkeypatch.setattr(evaluation, "fit_model", failing_fit)
    with pytest.raises(DataError, match="^fold 0: the fit failed$"):
        cv_one_cell("forest", {"n_trees": 3}, table, k=3, seed=0)


def test_grid_search_picks_highest_f1_then_smallest_model():
    table = blob_table(n_per=40, shift=4.0, seed=6)
    grid = {"n_trees": [5, 10], "max_depth": [None, 4]}
    result = grid_search({"forest": grid}, table, k=3, seed=1)["forest"]
    assert len(result.cells) == 4
    best_f1 = result.best_report.test_mean.f1
    for cell in result.cells:
        assert cell.report.test_mean.f1 <= best_f1 + 1e-12
    # a trivially separable problem scores 1.0 everywhere: the tie-break
    # must pick the smallest forest with the shallowest depth
    if all(c.report.test_mean.f1 == best_f1 for c in result.cells):
        assert result.best_params["n_trees"] == 5
        assert result.best_params["max_depth"] == 4


def test_selection_key_orders_as_documented():
    assert selection_key("forest", {"n_trees": 10}, 0.9) < selection_key(
        "forest", {"n_trees": 10}, 0.8
    )
    assert selection_key("forest", {"n_trees": 5}, 0.9) < selection_key(
        "forest", {"n_trees": 50}, 0.9
    )
    assert selection_key("gbdt", {"rounds": 20, "max_depth": 3}, 0.9) < selection_key(
        "gbdt", {"rounds": 20, "max_depth": None}, 0.9
    )


def test_selection_key_takes_omitted_keys_from_the_fitter_defaults():
    # fit_forest grows 100 unbounded trees, fit_gbdt 100 rounds of depth 6
    assert selection_key("forest", {"max_depth": 8}, 1.0) == (-1.0, 100, 8)
    assert selection_key("gbdt", {"rounds": 10}, 1.0) == (-1.0, 10, 6)
    assert selection_key("gbdt", {}, 1.0) < selection_key("forest", {}, 1.0)
    assert selection_key("gbdt", {"rounds": 10}, 1.0) < selection_key(
        "forest", {"max_depth": 8}, 1.0
    )
    # majority's fitter has no depth: one leaf, so it wins an F1 tie
    assert selection_key("majority", {}, 1.0) == (-1.0, 0, 0)
    tree = selection_key("tree", {"max_depth": 3}, 1.0)
    assert selection_key("majority", {}, 1.0) < tree


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"n_tree": [3]}, r"unknown key\(s\) in forest: 'n_tree'"),
        ({"max_depth": ["deep"]}, r"forest\.max_depth: 'deep' is not an integer >= 0"),
    ],
)
def test_grid_search_checks_every_grid_before_any_fit(monkeypatch, grid, message):
    calls = []
    monkeypatch.setattr(evaluation, "fit_model", lambda *args, **kwargs: calls.append(args))
    table = blob_table(n_per=20, seed=7)
    with pytest.raises(DataError, match=message):
        grid_search({"tree": {"max_depth": [2]}, "forest": grid}, table, k=2, seed=0)
    assert calls == []


def test_grid_search_rejects_empty_grids():
    table = blob_table(n_per=20, seed=7)
    with pytest.raises(DataError):
        grid_search({"forest": {}}, table, k=2, seed=0)
    with pytest.raises(DataError):
        grid_search({"forest": {"n_trees": []}}, table, k=2, seed=0)
