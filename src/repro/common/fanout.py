"""Ordered fan-out of independent tasks over worker processes.

The one process pool under ``run_experiments`` (a task is an experiment
id) and ``run_sharded`` (a task is a shard).  Profiling, spilling and
checkpointing are the task function's business, not the fan-out's.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Optional, Sequence


class TaskError(RuntimeError):
    """A fanned-out task failed; its own exception is the ``__cause__``."""


def fan_out(
    fn: Callable,
    tasks: Sequence[tuple],
    jobs: int = 1,
    names: Optional[Sequence[str]] = None,
) -> list:
    """``[fn(*task) for task in tasks]``, on up to ``jobs`` processes.

    ``jobs == 1`` calls ``fn`` inline; ``jobs > 1`` submits every task in
    index order to one pool of ``min(jobs, len(tasks))`` workers and
    reads the results back in index order.  The first failure in index
    order cancels the queued tasks, waits for the running ones, and is
    raised as a :class:`TaskError` naming the task (``names[i]``, default
    ``"task i"``): nothing runs after the raise.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    pool = None
    try:
        if jobs == 1 or not tasks:
            pending = [partial(fn, *task) for task in tasks]
        else:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
            pending = [pool.submit(fn, *task).result for task in tasks]
        results = []
        for index, result in enumerate(pending):
            try:
                results.append(result())
            except Exception as exc:
                name = names[index] if names is not None else f"task {index}"
                raise TaskError(
                    f"{name} failed: {type(exc).__name__}: {exc}"
                ) from exc
        return results
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
