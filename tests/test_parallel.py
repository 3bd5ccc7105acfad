"""The fork-pool map and the fits that run on it: same results for any worker
count, and no pool inside a pool."""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from idstats import evaluation, parallel
from idstats.errors import DataError, DataQualityWarning
from idstats.evaluation import grid_search
from idstats.tabular import ColumnTable, LabelVocabulary
from idstats.trees import fit_forest, model_to_dict


def three_blobs(n_per=40, shift=1.5, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(i * shift, 1.0, (n_per, 3)) for i in range(3)])
    labels = np.repeat(np.arange(3), n_per)
    columns = {f"x{j}": X[:, j] for j in range(3)}
    return ColumnTable(columns, labels, LabelVocabulary(names=("a", "b", "c")))


def _scaled(factor, task):
    return (factor * task, parallel._in_worker)


def test_ordered_map_keeps_task_order():
    tasks = [1, 5, 2, 4, 3]
    expected = [(10 * t, False) for t in tasks]
    assert parallel.ordered_map(partial(_scaled, 10), tasks) == expected
    pooled = parallel.ordered_map(partial(_scaled, 10), tasks, workers=3)
    assert [value for value, _ in pooled] == [10 * t for t in tasks]
    assert all(in_worker for _, in_worker in pooled)


def test_ordered_map_runs_a_single_task_in_process():
    assert parallel.ordered_map(partial(_scaled, 2), [3], workers=2) == [(6, False)]


def test_ordered_map_takes_the_worker_count_by_keyword_only():
    # a third positional argument is neither a worker count nor passed to fn
    with pytest.raises(TypeError, match="positional argument"):
        parallel.ordered_map(max, [1, 2], 2)


def test_ordered_map_pickles_tasks_and_results_but_not_the_function():
    lock = threading.Lock()  # refuses to pickle
    with pytest.raises(TypeError):
        pickle.dumps(lock)

    def locked_square(task):
        with lock:
            return task * task, parallel._in_worker

    tasks = [4, 1, 3, 2]
    serial = parallel.ordered_map(locked_square, tasks)
    pooled = parallel.ordered_map(locked_square, tasks, workers=2)
    assert [value for value, _ in pooled] == [value for value, _ in serial] == [16, 1, 9, 4]
    assert not any(in_worker for _, in_worker in serial)
    assert all(in_worker for _, in_worker in pooled)


def _fail_on_odd(task):
    if task % 2:
        raise DataError(f"task {task} failed")
    return task


def test_ordered_map_reraises_a_worker_error():
    with pytest.raises(DataError, match="task 1 failed"):
        parallel.ordered_map(_fail_on_odd, [0, 1, 2], workers=2)


def _exit_on_two(task):
    if task == 2:
        os._exit(1)
    return task


def test_ordered_map_raises_when_a_worker_dies():
    with pytest.raises(BrokenProcessPool):
        parallel.ordered_map(_exit_on_two, [0, 1, 2, 3], workers=2)


def _warn_twice(task):
    warnings.warn(f"task {task} first", DataQualityWarning)
    warnings.warn(f"task {task} second", UserWarning)
    return task


def _map_recording_warnings(workers):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = parallel.ordered_map(_warn_twice, [3, 1, 2], workers=workers)
    return results, [(w.category, str(w.message)) for w in caught]


def test_ordered_map_reraises_worker_warnings_in_task_order():
    serial = _map_recording_warnings(1)
    assert serial == (
        [3, 1, 2],
        [
            (category, f"task {task} {which}")
            for task in (3, 1, 2)
            for category, which in ((DataQualityWarning, "first"), (UserWarning, "second"))
        ],
    )
    assert _map_recording_warnings(2) == serial
    # the caller's filters decide what a relayed warning does
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DataQualityWarning)
        with pytest.raises(DataQualityWarning, match="task 3 first"):
            parallel.ordered_map(_warn_twice, [3, 1, 2], workers=2)


class _NoPools:
    """Stands in for the multiprocessing module: starting a pool fails."""

    def get_context(self, method):
        raise AssertionError("a pool worker tried to start a nested pool")


def _forest_in_worker(X, y, seed):
    parallel.multiprocessing = _NoPools()  # this worker's copy only
    forest = fit_forest(X, y, n_trees=4, max_depth=4, seed=seed, workers=2)
    return parallel._in_worker, model_to_dict(forest)


def test_fit_forest_inside_a_pooled_task_runs_serially_with_the_same_trees():
    table = three_blobs(seed=1)
    X, y = table.matrix(), table.labels
    results = parallel.ordered_map(partial(_forest_in_worker, X, y), [3, 8], workers=2)
    for seed, (in_worker, doc) in zip([3, 8], results):
        assert in_worker
        serial = fit_forest(X, y, n_trees=4, max_depth=4, seed=seed)
        assert doc == model_to_dict(serial)
        pooled = fit_forest(X, y, n_trees=4, max_depth=4, seed=seed, workers=2)
        assert model_to_dict(pooled) == doc


@pytest.mark.parametrize(
    "family, grid",
    [
        ("forest", {"n_trees": [3, 5, 5], "max_depth": [2, None]}),
        ("gbdt", {"rounds": [2, 4], "max_depth": [2]}),
    ],
)
def test_grid_cells_equal_cross_validating_each_cell_alone(family, grid):
    table = three_blobs(seed=2)
    result = grid_search({family: grid}, table, k=3, seed=5)[family]
    for cell in result.cells:
        one_cell = {key: [value] for key, value in cell.params.items()}
        alone = grid_search({family: one_cell}, table, k=3, seed=5)[family]
        assert cell.report == alone.cells[0].report
    pooled = grid_search({family: grid}, table, k=3, seed=5, workers=2)[family]
    assert pooled.cells == result.cells
    assert pooled.best_index == result.best_index


def test_one_search_over_two_families_equals_searching_each_alone():
    table = three_blobs(seed=2)
    # two groups a family: one per max_depth
    grids = {
        "forest": {"n_trees": [3, 5], "max_depth": [2, None]},
        "gbdt": {"rounds": [2, 4], "max_depth": [2, 3]},
    }
    alone = {
        family: grid_search({family: grid}, table, k=3, seed=5)[family]
        for family, grid in grids.items()
    }
    for workers in (1, 2):
        assert grid_search(grids, table, k=3, seed=5, workers=workers) == alone


def test_grid_search_fits_each_group_once_per_fold(monkeypatch):
    fitted = []
    fit = evaluation.fit_model

    def counting_fit(spec, *args, **kwargs):
        fitted.append(dict(spec.params))
        return fit(spec, *args, **kwargs)

    monkeypatch.setattr(evaluation, "fit_model", counting_fit)
    grid = {"n_trees": [2, 6, 4], "max_depth": [2, 3]}
    grid_search({"forest": grid}, three_blobs(seed=3), k=3, seed=0)
    # one group per depth, fit at its largest size on each of the 3 folds
    expected = [{"n_trees": 6, "max_depth": d} for d in (2, 3) for _ in range(3)]
    assert fitted == expected


def test_grid_search_rejects_bad_sizes_before_fitting():
    table = three_blobs(seed=4)
    for bad in (0, "many", True):
        with pytest.raises(DataError, match="n_trees"):
            grid_search({"forest": {"n_trees": [2, bad]}}, table, k=2, seed=0)
