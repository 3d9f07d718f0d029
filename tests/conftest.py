"""Fixtures for the tests that pin which process the fan-out runs a task in."""

from __future__ import annotations

import concurrent.futures
import multiprocessing

import pytest

from repro.shard.worker import _ShardState


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """The ``max_workers`` of every pool the fan-out builds (it imports
    the executor class when it forks, so the spy replaces it at source)."""
    sizes = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return sizes


@pytest.fixture
def shards_start_together(monkeypatch) -> None:
    """Shards 0 and 1 start running only together, at a barrier the
    forked worker inherits: a two-process run holds one of them in the
    caller and the other in the worker."""
    barrier = multiprocessing.Barrier(2)
    run = _ShardState.run

    def together(self):
        if self.index < 2:
            barrier.wait(timeout=60)
        return run(self)

    monkeypatch.setattr(_ShardState, "run", together)
