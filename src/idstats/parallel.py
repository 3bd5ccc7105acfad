"""Ordered map over a fork pool, for independent tasks whose results do not
depend on where they run.

The function reaches the workers once, through the pool initializer: a forked
worker inherits it with what it closes over (a closure's cells, a partial's
arguments), so read-only inputs are never pickled, only each task and its
result. The package starts no threads of its own before forking. A map inside
a worker runs in-process, so pools never nest. Warnings raised in a worker are
re-raised in the caller.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor

# Set in pool workers only, by _start_worker.
_in_worker = False
_fn = None


def _start_worker(fn) -> None:
    global _in_worker, _fn
    _in_worker, _fn = True, fn


def _call(task):
    """The task's result and every warning it raised, as picklable tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = _fn(task)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def ordered_map(fn, tasks, *, workers: int = 1) -> list:
    """[fn(task) for task in tasks], computed on up to ``workers`` forked
    processes.

    ``fn``, with what it closes over, is inherited by the fork. Tasks are
    handed out one at a time in their given order, and results come back in
    that order. The warnings a pooled task raises are re-raised here, task by
    task in task order, under the caller's warning filters. A task's
    exception is raised here; a worker that dies raises BrokenProcessPool.
    The map runs in-process when workers <= 1, when there is at most one
    task, or when the caller is itself a pool worker.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1 or _in_worker:
        return [fn(task) for task in tasks]
    results = []
    registry: dict = {}  # "default" filters show a repeated warning once
    with ProcessPoolExecutor(
        min(workers, len(tasks)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(fn,),
    ) as pool:
        for result, caught in pool.map(_call, tasks):
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(
                    message, category, filename, lineno, registry=registry
                )
            results.append(result)
    return results
