"""The one ordered fan-out under both runners (``repro.common.fanout``).

Results come back in task order for any ``jobs``; the first failure in
index order is raised naming its task, and by then queued tasks are
cancelled and running ones have finished — nothing runs after the raise.
"""

from __future__ import annotations

import os
import time
from functools import partial

import pytest

from repro.common.fanout import TaskError, fan_out
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import RunSpec, run_experiments


def _square(x: int, offset: int) -> int:
    return x * x + offset


def _fail_on(bad: int, x: int) -> int:
    if x == bad:
        raise ValueError(f"injected at {x}")
    return x


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


def _boom(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    raise ValueError("injected failure")


def _mark(name: str, scale: float = 1.0, seed: int = 0) -> ExperimentResult:
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
