"""Folds, confusion matrices, macro metrics, CV reports, grid search."""

from __future__ import annotations

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
    fa = stratified_kfold(labels, k=10, seed=4)
    assert fa.fold_of.shape == (100,)
    assert set(fa.fold_of.tolist()) == set(range(10))
    for f in range(10):
        in_fold = labels[fa.fold_of == f]
        # every fold holds n_c/k rows of each class when divisible
        assert np.bincount(in_fold, minlength=3).tolist() == [5, 3, 2]


def test_stratified_kfold_balance_within_one_on_uneven_classes():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 3, size=157)
    k = 5
    fa = stratified_kfold(labels, k=k, seed=0)
    for c in range(3):
        per_fold = [np.sum(labels[fa.fold_of == f] == c) for f in range(k)]
        assert max(per_fold) - min(per_fold) <= 1


def test_stratified_kfold_is_seeded():
    labels = np.repeat([0, 1], 40)
    a = stratified_kfold(labels, k=4, seed=1)
    b = stratified_kfold(labels, k=4, seed=1)
    c = stratified_kfold(labels, k=4, seed=2)
    assert np.array_equal(a.fold_of, b.fold_of)
    assert not np.array_equal(a.fold_of, c.fold_of)


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


def test_prf_macro_hand_computed_matrix():
    cm = np.array([[1, 1], [0, 1]])
    result = prf_macro(cm)
    assert result.precision == pytest.approx(0.75)
    assert result.recall == pytest.approx(0.75)
    assert result.f1 == pytest.approx(2 / 3)
    assert result.per_class_precision.tolist() == [1.0, 0.5]
    assert result.per_class_recall.tolist() == [0.5, 1.0]
    assert result.zero_division_count == 0


def test_prf_macro_counts_zero_divisions():
    # class 2 never present and never predicted: P, R, F1 all 0/0
    cm = np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]])
    result = prf_macro(cm)
    assert result.zero_division_count == 3
    assert result.per_class_f1.tolist() == [1.0, 1.0, 0.0]
    assert result.f1 == pytest.approx(2 / 3)


def test_perfect_prediction_gives_unit_scores():
    y = np.array([0, 1, 2, 0, 1, 2])
    cm = confusion_matrix(y, y, 3)
    result = prf_macro(cm)
    assert result.precision == result.recall == result.f1 == 1.0


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
    assert selection_key({"n_trees": 10}, 0.9) < selection_key({"n_trees": 10}, 0.8)
    assert selection_key({"n_trees": 5}, 0.9) < selection_key({"n_trees": 50}, 0.9)
    assert selection_key({"rounds": 20, "max_depth": 3}, 0.9) < selection_key(
        {"rounds": 20, "max_depth": None}, 0.9
    )


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
