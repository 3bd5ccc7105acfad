"""Ordered map over a fork pool, for independent tasks whose results do not
depend on where they run.

Read-only inputs shared by every task reach the workers once, through the
pool initializer: a forked worker inherits them, so nothing is pickled but
each task's own small description and its result. The package starts no
threads of its own before forking. A map inside a worker runs in-process, so
pools never nest.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

# Set in pool workers only, by _start_worker.
_in_worker = False
_fn = None
_shared = None


def _start_worker(fn, shared) -> None:
    global _in_worker, _fn, _shared
    _in_worker, _fn, _shared = True, fn, shared


def _call(task):
    return _fn(_shared, task)


def ordered_map(fn, tasks, shared=None, workers: int = 1) -> list:
    """[fn(shared, task) for task in tasks], computed on up to ``workers``
    forked processes.

    Tasks are handed out one at a time in their given order, and results
    come back in that order. A task's exception is raised here; a worker
    that dies raises BrokenProcessPool. The map runs in-process when
    workers <= 1, when there is at most one task, or when the caller is
    itself a pool worker.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1 or _in_worker:
        return [fn(shared, task) for task in tasks]
    with ProcessPoolExecutor(
        min(workers, len(tasks)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(fn, shared),
    ) as pool:
        return list(pool.map(_call, tasks))
