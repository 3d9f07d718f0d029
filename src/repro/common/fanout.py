"""Ordered fan-out of independent tasks over processes, the caller included.

The one process pool under ``run_experiments`` (a task is an experiment
id) and ``run_sharded`` (a task is a shard).  Profiling, spilling and
checkpointing are the task function's business, not the fan-out's.

``jobs`` counts the processes that compute, and the calling process is
one of them: it would otherwise sit in ``future.result()`` holding a
whole interpreter's worth of memory.  So ``min(jobs, len(tasks)) - 1``
pool workers are forked, and every process — the caller included —
claims the next task index from one shared counter and runs it.  A
shared stop flag ends the claiming on the first failure or when the
caller leaves for any reason.  (Handing the caller whatever the pool
has not started yet via ``Future.cancel()`` would race the executor's
call-queue prefetch, which hands a worker its next task early.)
"""

from __future__ import annotations

import multiprocessing
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence


class TaskError(RuntimeError):
    """A fanned-out task failed; its own exception is the ``__cause__``."""


class _RemoteTraceback(Exception):
    """A pool worker's traceback, as text: the cause of its task's error."""

    def __str__(self) -> str:
        return self.args[0]


#: A pool worker's ``(fn, tasks, counter, stop)``, set by the pool
#: initializer: under ``fork`` the worker inherits them, nothing pickled.
_SHARED: Optional[tuple] = None


def _adopt(fn: Callable, tasks: Sequence[tuple], counter, stop) -> None:
    global _SHARED
    _SHARED = (fn, tasks, counter, stop)
    # A profiler running in the caller is inherited by the fork but never
    # dumped here: the worker starts unprofiled, and its tasks decide.
    sys.setprofile(None)
    monitoring = getattr(sys, "monitoring", None)  # cProfile's, from 3.12
    if (monitoring is not None
            and monitoring.get_tool(monitoring.PROFILER_ID) is not None):
        monitoring.set_events(monitoring.PROFILER_ID, 0)
        monitoring.free_tool_id(monitoring.PROFILER_ID)


def _claim(counter, stop, n: int) -> Optional[int]:
    """The next unclaimed task index, or None once none is left or the
    run has stopped."""
    with counter.get_lock():
        if stop.value or counter.value >= n:
            return None
        counter.value += 1
        return counter.value - 1


def _halt(counter, stop) -> None:
    with counter.get_lock():
        stop.value = True


def _drain(fn: Callable, tasks: Sequence[tuple], counter, stop) -> list:
    """Claim and run tasks until none is left or the run stops; one
    ``(index, result, error)`` per task run, the first error the last."""
    done = []
    while (index := _claim(counter, stop, len(tasks))) is not None:
        try:
            done.append((index, fn(*tasks[index]), None))
        except BaseException as exc:
            _halt(counter, stop)
            if not isinstance(exc, Exception):
                raise
            done.append((index, None, exc))
    return done


def _work() -> list:
    """A pool worker's share of the run.  An error crosses back with its
    traceback as text, which pickling would otherwise drop."""
    return [
        (index, result, error if error is None
         else (error, "".join(traceback.format_exception(error))))
        for index, result, error in _drain(*_SHARED)
    ]


def fan_out(
    fn: Callable,
    tasks: Sequence[tuple],
    jobs: int = 1,
    names: Optional[Sequence[str]] = None,
) -> list:
    """``[fn(*task) for task in tasks]``, on up to ``jobs`` processes.

    The caller is one of the ``min(jobs, len(tasks))`` processes: it
    forks one fewer pool worker, and all of them claim tasks one at a
    time in index order (``jobs == 1`` or a single task runs inline and
    forks nothing).  Results come back in index order.  The first failure
    stops the claiming, the tasks still running finish, and the lowest
    failing index is raised as a :class:`TaskError` naming the task
    (``names[i]``, default ``"task i"``): nothing runs after the raise.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks)) - 1
    lost = None
    if workers < 1:
        done = []
        for index, task in enumerate(tasks):
            try:
                done.append((index, fn(*task), None))
            except Exception as exc:
                done.append((index, None, exc))
                break
    else:
        counter = multiprocessing.Value("i", 0)
        stop = multiprocessing.Value("b", False)
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_adopt,
            initargs=(fn, tasks, counter, stop),
        )
        try:
            futures = [pool.submit(_work) for _ in range(workers)]
            for future in futures:
                # A worker leaves only once claiming is over — or when it
                # died, and then the claiming must end too.
                future.add_done_callback(lambda _: _halt(counter, stop))
            done = _drain(fn, tasks, counter, stop)
            for future in futures:
                try:
                    for index, result, error in future.result():
                        if error is not None:
                            error, text = error
                            error.__cause__ = _RemoteTraceback(text)
                        done.append((index, result, error))
                except Exception as exc:
                    # The worker died, or its report could not cross: the
                    # tasks it claimed fail with that.
                    lost = exc
        finally:
            _halt(counter, stop)
            pool.shutdown(wait=True, cancel_futures=True)
    outcomes = {index: (result, error) for index, result, error in done}
    results = []
    for index in range(len(tasks)):
        # Claims run in index order, so a task missing below the lowest
        # failure was claimed by a worker that never reported.
        result, error = outcomes.get(index, (None, lost))
        if error is not None:
            name = names[index] if names is not None else f"task {index}"
            raise TaskError(
                f"{name} failed: {type(error).__name__}: {error}"
            ) from error
        results.append(result)
    return results
