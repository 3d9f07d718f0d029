"""The one ordered fan-out under both runners (``repro.common.fanout``).

Results come back in task order for any ``jobs``; ``jobs`` processes
compute, the caller included, claiming tasks in index order; the first
failure in index order is raised naming its task, and by then no task is
claimed any more and running ones have finished — nothing runs after
the raise.

Placement tests start their first tasks behind a barrier the forked
workers inherit: each of those tasks waits until every process holds
one, so no test passes because the caller drained everything itself.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from functools import partial

import pytest

import repro.common.fanout as fanout
from repro.common.fanout import TaskError, fan_out
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import RunSpec, run_experiments


def _square(x: int, offset: int) -> int:
    return x * x + offset


def _fail_on(bad: int, x: int) -> int:
    if x == bad:
        raise ValueError(f"injected at {x}")
    return x


# -- who runs what: the caller is one of the jobs processes --------------

_BARRIER = None  # set before the pool forks, so the workers inherit it


def _start_together(monkeypatch, parties: int) -> None:
    monkeypatch.setattr(
        f"{__name__}._BARRIER", multiprocessing.Barrier(parties)
    )


def _pid(x: int) -> int:
    """The process running task ``x``; the first ``parties`` tasks return
    only once each of them holds a process of its own."""
    if x < _BARRIER.parties:
        _BARRIER.wait(timeout=30)
    return os.getpid()


def test_two_tasks_at_two_jobs_run_in_the_caller_and_one_worker(
    monkeypatch, pool_sizes
):
    _start_together(monkeypatch, 2)
    pids = fan_out(_pid, [(0,), (1,)], jobs=2)
    assert pool_sizes == [1]
    assert len(set(pids)) == 2 and os.getpid() in pids


def test_jobs_forks_one_worker_fewer(monkeypatch, pool_sizes):
    _start_together(monkeypatch, 5)
    pids = fan_out(_pid, [(x,) for x in range(7)], jobs=5)
    assert pool_sizes == [4]
    assert len(set(pids)) == 5 and os.getpid() in pids
    # A single task, or jobs=1, forks nothing.
    assert fan_out(_pid, [(9,)], jobs=5) == [os.getpid()]
    assert fan_out(_pid, [(9,), (9,)], jobs=1) == [os.getpid()] * 2
    assert pool_sizes == [4]


def test_tasks_are_claimed_in_index_order(monkeypatch, tmp_path):
    log = tmp_path / "claims"
    lock = multiprocessing.Lock()
    claim = fanout._claim

    def logged(counter, stop, n):
        with lock:  # claim and record as one step, across processes
            index = claim(counter, stop, n)
            if index is not None:
                with open(log, "a") as fh:
                    fh.write(f"{index} {os.getpid()}\n")
        return index

    monkeypatch.setattr(fanout, "_claim", logged)
    _start_together(monkeypatch, 3)
    pids = fan_out(_pid, [(x,) for x in range(9)], jobs=3)
    claims = [line.split() for line in log.read_text().splitlines()]
    assert [int(index) for index, _ in claims] == list(range(9))
    assert [int(pid) for _, pid in claims] == pids
    assert len(set(pids)) == 3


def _fail_on_one(x: int) -> int:
    open(os.path.join(_MARKERS, str(x)), "w").close()
    _pid(x)
    if x == 1:
        raise ValueError("injected at 1")
    time.sleep(0.2)  # task 0 is still running when task 1 fails
    return x


def test_a_failure_in_one_process_stops_the_claiming_in_all(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(f"{__name__}._MARKERS", str(tmp_path))
    _start_together(monkeypatch, 2)
    with pytest.raises(TaskError, match=r"^task 1 failed: ValueError"):
        fan_out(_fail_on_one, [(x,) for x in range(8)], jobs=2)
    assert sorted(os.listdir(tmp_path)) == ["0", "1"]


_CALLER = None


def _interrupted_in_the_caller(x: int) -> int:
    open(os.path.join(_MARKERS, str(x)), "w").close()
    _pid(x)
    if os.getpid() == _CALLER:
        raise KeyboardInterrupt
    time.sleep(0.2)  # the worker's task outlives the interrupt
    return x


def test_a_caller_interrupt_stops_the_claiming(monkeypatch, tmp_path):
    monkeypatch.setattr(f"{__name__}._MARKERS", str(tmp_path))
    monkeypatch.setattr(f"{__name__}._CALLER", os.getpid())
    _start_together(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        fan_out(_interrupted_in_the_caller, [(x,) for x in range(8)], jobs=2)
    ran = sorted(os.listdir(tmp_path))
    assert ran == ["0", "1"]
    time.sleep(0.3)
    assert sorted(os.listdir(tmp_path)) == ran  # and nothing is still running


@pytest.mark.parametrize("jobs", [1, 2, 5])
def test_results_come_back_in_task_order(jobs):
    tasks = [(x, 1) for x in range(7)]
    assert fan_out(_square, tasks, jobs) == [x * x + 1 for x in range(7)]


def test_edges():
    assert fan_out(_square, [], jobs=4) == []
    with pytest.raises(ValueError, match="jobs"):
        fan_out(_square, [(1, 1)], jobs=0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_lowest_failing_task_is_named_and_chained(jobs):
    tasks = [(3, x) for x in range(5)]
    with pytest.raises(TaskError, match=r"^task 3 failed: ValueError: inj") as e:
        fan_out(_fail_on, tasks, jobs)
    assert isinstance(e.value.__cause__, ValueError)
    with pytest.raises(TaskError, match=r"^flow d failed"):
        fan_out(_fail_on, tasks, jobs, names=[f"flow {c}" for c in "abcde"])


# -- through run_experiments: a stub experiment that raises --------------

_MARKERS = None  # set before the pool forks, so the workers inherit it


def _boom(scale: float = 1.0, seed: int = 0, **options) -> ExperimentResult:
    raise ValueError("injected failure")


def _mark(
    name: str, scale: float = 1.0, seed: int = 0, **options
) -> ExperimentResult:
    open(os.path.join(_MARKERS, name), "w").close()
    time.sleep(0.25)
    return ExperimentResult(name, "stub")


def test_failing_experiment_is_named_and_queued_ids_never_run(
    monkeypatch, tmp_path
):
    """At the parent commit every queued id still ran (``shutdown`` without
    ``cancel_futures``) before an error that did not say which id failed."""
    later = [f"later{i:02d}" for i in range(12)]
    registry = {"boom": _boom, **{n: partial(_mark, n) for n in later}}
    monkeypatch.setattr("repro.experiments.ALL_EXPERIMENTS", registry)
    monkeypatch.setattr(f"{__name__}._MARKERS", str(tmp_path))
    with pytest.raises(
        TaskError, match="experiment 'boom' failed: ValueError: injected"
    ):
        run_experiments(["boom", *later], RunSpec(), jobs=2)
    ran = sorted(os.listdir(tmp_path))
    # Only what the workers had already been handed (pool size + its
    # one-deep prefetch, give or take a race) ran; the tail never did.
    assert len(ran) <= 6 and later[-1] not in ran
    time.sleep(0.4)
    assert sorted(os.listdir(tmp_path)) == ran  # and nothing is still running
