"""Stratified k-fold cross-validation, classification metrics, confusion
matrices, grid search, and the 4%-range stability rule."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, DataQualityWarning, IdstatsError
from .parallel import ordered_map
from .tabular import ColumnTable
from .trees import (
    SIZE_KEY,
    ModelSpec,
    check_grid,
    derive_seed,
    fit_model,
    fitter_defaults,
    predict_proba,
    truncate,
)

# A model is stable when a metric's fold range (max − min) stays within this.
STABILITY_RANGE = 0.04

METRIC_NAMES = ("precision", "recall", "f1", "roc_auc")


def stratified_kfold(
    labels: np.ndarray,
    k: int,
    seed: int,
    class_names: list[str] | None = None,
) -> np.ndarray:
    """Per-row fold index in 0..k-1, balancing every class across folds.

    Per class the rows are shuffled with the seeded RNG and dealt round-robin,
    so per-class fold sizes differ by at most 1.

    Args:
        labels: integer class ids.
        k: fold count, >= 2.
        seed: shuffle seed.
        class_names: names used in error messages; default the class id.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=np.int64)
    for class_id in range(int(labels.max()) + 1 if labels.size else 0):
        idx = np.flatnonzero(labels == class_id)
        if idx.size == 0:
            continue
        if idx.size < k:
            name = (
                class_names[class_id]
                if class_names is not None
                else f"class {class_id}"
            )
            raise DataError(f"{name!r} has {idx.size} rows; need at least {k} for k-fold")
        shuffled = idx[rng.permutation(idx.size)]
        fold_of[shuffled] = np.arange(idx.size) % k
    return fold_of


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """M[t][p] = number of rows with true class t predicted as p."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred must have equal length")
    for name, y in (("y_true", y_true), ("y_pred", y_pred)):
        if y.size and (y.min() < 0 or y.max() >= n_classes):
            raise DataError(f"{name} contains labels outside [0, {n_classes})")
    flat = np.bincount(y_true * n_classes + y_pred, minlength=n_classes * n_classes)
    return flat.reshape(n_classes, n_classes)


def prf_macro(cm: np.ndarray) -> tuple[float, float, float, int]:
    """Macro precision, recall and F1 of a confusion matrix, and the number
    of 0/0s among the per-class values.

    Every 0/0 (a class never predicted, never present, or with zero
    precision + recall) resolves to 0 and counts as one zero division.
    """
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] == 0:
        raise DataError("confusion matrix must be square and non-empty")

    def ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        return np.divide(num, den, out=np.zeros_like(den), where=den > 0)

    tp, predicted, support = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
    precision, recall = ratio(tp, predicted), ratio(tp, support)
    both = precision + recall
    f1 = ratio(2 * precision * recall, both)
    zero_divisions = sum(int(np.count_nonzero(d == 0)) for d in (predicted, support, both))
    return float(precision.mean()), float(recall.mean()), float(f1.mean()), zero_divisions


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundary = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])
    starts = np.concatenate(([0], boundary + 1))
    ends = np.concatenate((boundary, [scores.size - 1]))
    group_rank = (starts + ends) / 2.0 + 1.0
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, ends - starts + 1)
    return ranks


def roc_auc_ovr_macro(y_true: np.ndarray, proba: np.ndarray) -> float:
    """One-vs-rest ROC-AUC per class via the midrank Mann-Whitney statistic,
    averaged over classes with both positives and negatives present."""
    y_true = np.asarray(y_true, dtype=np.int64)
    proba = np.asarray(proba, dtype=np.float64)
    if proba.ndim != 2 or proba.shape[0] != y_true.size:
        raise DataError("proba must be an n × n_classes matrix")
    aucs = []
    for c in range(proba.shape[1]):
        positive = y_true == c
        n_pos = int(positive.sum())
        n_neg = y_true.size - n_pos
        if n_pos == 0 or n_neg == 0:
            warnings.warn(
                f"roc_auc: class {c} lacks positives or negatives, excluded",
                DataQualityWarning,
                stacklevel=2,
            )
            continue
        ranks = _midranks(proba[:, c])
        rank_sum = float(ranks[positive].sum())
        aucs.append((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    if not aucs:
        warnings.warn(
            "roc_auc: no class has both positives and negatives",
            DataQualityWarning,
            stacklevel=2,
        )
        return float("nan")
    return float(np.mean(aucs))


@dataclass(frozen=True)
class FoldMetrics:
    precision: float
    recall: float
    f1: float
    roc_auc: float


def _metric_values(metrics: list[FoldMetrics], name: str) -> np.ndarray:
    return np.array([getattr(m, name) for m in metrics], dtype=np.float64)


def _mean_metrics(metrics: list[FoldMetrics]) -> FoldMetrics:
    return FoldMetrics(
        **{name: float(_metric_values(metrics, name).mean()) for name in METRIC_NAMES}
    )


@dataclass
class CvReport:
    """Per-fold and aggregate train/test metrics with stability flags.

    ``ranges`` and ``stable`` are keyed by split ("train"/"test") then metric;
    a metric is stable when its fold range is at most STABILITY_RANGE, and
    ``stable_overall`` when every held-out metric is. ``asdict`` of a report
    is its JSON form.
    """

    k: int
    train: list[FoldMetrics]
    test: list[FoldMetrics]
    train_mean: FoldMetrics
    test_mean: FoldMetrics
    ranges: dict[str, dict[str, float]]
    stable: dict[str, dict[str, bool]]
    stable_overall: bool
    zero_division_count: int


def _fold_metrics(y: np.ndarray, proba: np.ndarray) -> tuple[FoldMetrics, int]:
    pred = np.argmax(proba, axis=1)
    *prf, zero_divisions = prf_macro(confusion_matrix(y, pred, proba.shape[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataQualityWarning)
        auc = roc_auc_ovr_macro(y, proba)
    return FoldMetrics(*prf, roc_auc=auc), zero_divisions


# One fold of one cell: train metrics, test metrics, zero-division count.
_FoldScores = tuple[FoldMetrics, FoldMetrics, int]


def _cv_report(k: int, folds: tuple[_FoldScores, ...]) -> CvReport:
    """Aggregate per-fold (train, test, zero divisions) into a CvReport."""
    train_metrics = [train for train, _, _ in folds]
    test_metrics = [test for _, test, _ in folds]
    ranges = {}
    stable = {}
    for split, metrics in (("train", train_metrics), ("test", test_metrics)):
        ranges[split] = {
            name: float(np.ptp(_metric_values(metrics, name))) for name in METRIC_NAMES
        }
        stable[split] = {
            name: ranges[split][name] <= STABILITY_RANGE for name in METRIC_NAMES
        }
    return CvReport(
        k=k,
        train=train_metrics,
        test=test_metrics,
        train_mean=_mean_metrics(train_metrics),
        test_mean=_mean_metrics(test_metrics),
        ranges=ranges,
        stable=stable,
        stable_overall=all(stable["test"].values()),
        zero_division_count=sum(zd for _, _, zd in folds),
    )


def _fold_scores(
    X: np.ndarray, y: np.ndarray, fold_of: np.ndarray, n_classes: int, seed: int, task: tuple
) -> list[_FoldScores]:
    """(train, test, zero divisions) of every cell of one group on one fold.

    ``task`` is (family, cells, fold). The cells differ at most in the
    family's size key; the largest of them is fit once and each cell is
    scored on that fit's `truncate` to its size. The fold seed derives the
    model seed unless the cells carry an explicit one. Fit errors are
    re-raised annotated with the fold id.
    """
    family, cells, f = task
    size_key = SIZE_KEY.get(family)
    params = dict(cells[0])
    if size_key in params:
        params[size_key] = max(cell[size_key] for cell in cells)
    test_mask = fold_of == f
    model_seed = None if "seed" in params else derive_seed(seed, 101, f)
    try:
        model = fit_model(
            ModelSpec(family, params), X[~test_mask], y[~test_mask],
            n_classes=n_classes, seed=model_seed,
        )
    except IdstatsError as exc:
        raise type(exc)(f"fold {f}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"fold {f}: {exc}") from exc
    out = []
    for cell in cells:
        cell_model = truncate(model, cell[size_key]) if size_key in cell else model
        (train, zd_train), (test, zd_test) = (
            _fold_metrics(y[mask], predict_proba(cell_model, X[mask]))
            for mask in (~test_mask, test_mask)
        )
        out.append((train, test, zd_train + zd_test))
    return out


@dataclass
class GridCell:
    params: dict
    report: CvReport


@dataclass
class GridSearchResult:
    best_index: int
    cells: list[GridCell]

    @property
    def best_params(self) -> dict:
        return self.cells[self.best_index].params

    @property
    def best_report(self) -> CvReport:
        return self.cells[self.best_index].report


def selection_key(family: str, params: dict, mean_test_f1: float) -> tuple:
    """Sort key for model selection: higher F1, then fewer rounds/trees,
    then lower depth, where a size or depth the params omit is the family's
    fitter default, and 0 for a fitter without one (majority is one leaf).
    Minimizing the tuple picks the winner."""
    params = fitter_defaults(family) | params
    size = params[SIZE_KEY[family]] if family in SIZE_KEY else 0
    depth = params.get("max_depth", 0)
    return (-mean_test_f1, size, math.inf if depth is None else depth)


def _grid_groups(
    model_family: str, param_grid: dict[str, list]
) -> tuple[list[dict], list[list[int]]]:
    """The grid's cells in key order, and their indices grouped by every key
    but the family's size key."""
    check_grid(model_family, param_grid, model_family)
    size_key = SIZE_KEY.get(model_family)
    keys = list(param_grid)
    all_params = [
        dict(zip(keys, combo))
        for combo in itertools.product(*(param_grid[key] for key in keys))
    ]
    groups: dict[tuple, list[int]] = {}
    for i, params in enumerate(all_params):
        rest = tuple((key, value) for key, value in params.items() if key != size_key)
        groups.setdefault(rest, []).append(i)
    return all_params, list(groups.values())


def grid_search(
    grids: dict[str, dict[str, list]],
    table: ColumnTable,
    k: int = 10,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, GridSearchResult]:
    """Exhaustively cross-validate a parameter grid per model family.

    ``grids`` maps a family to its grid. Cells are enumerated in each grid's
    key order; every cell of every family shares the same fold assignment.
    Cells that differ only in n_trees (forest) or rounds (gbdt) form a group
    that is fit once per fold at its largest size and scored at every size,
    with the same reports as one fit per cell. Best cell = highest mean
    held-out F1, ties broken toward fewer rounds/trees, then lower max depth,
    then earlier cell. Every grid is checked before any fit; then one pool
    of ``workers`` processes runs the (family, group, fold) fits of all
    families. Results do not depend on the worker count.
    """
    layouts = {family: _grid_groups(family, grid) for family, grid in grids.items()}
    y = table.labels
    fold_of = stratified_kfold(y, k, seed, class_names=list(table.vocabulary.names))
    tasks = [
        (family, [all_params[i] for i in members], f)
        for family, (all_params, family_groups) in layouts.items()
        for members in family_groups
        for f in range(k)
    ]
    score = partial(_fold_scores, table.matrix(), y, fold_of, table.vocabulary.n_classes, seed)
    scores = iter(ordered_map(score, tasks, workers=workers))
    results = {}
    for family, (all_params, family_groups) in layouts.items():
        by_cell: dict[int, CvReport] = {}
        for members in family_groups:
            # the group's k tasks, each a fold's scores of every member
            by_fold = itertools.islice(scores, k)
            for i, folds in zip(members, zip(*by_fold)):
                by_cell[i] = _cv_report(k, folds)
        cells = [GridCell(params, by_cell[i]) for i, params in enumerate(all_params)]
        best_index = min(
            range(len(cells)),
            key=lambda i: selection_key(family, cells[i].params, cells[i].report.test_mean.f1)
            + (i,),
        )
        results[family] = GridSearchResult(best_index, cells)
    return results
