"""Benchmark: regenerate each registered experiment at reduced scale.

One row per ``ALL_EXPERIMENTS`` id, so an experiment registered later
gets a benchmark without a new file.  The exclusions are named, with the
reason; ``tests/test_experiments.py`` checks that the two sets together
cover the registry.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS

from conftest import BENCH_SCALE, BENCH_SEED, attach_rows

#: Registered experiments with no row here, and why.
EXCLUDED = {
    "workload": "own file: test_bench_workload.py (BENCH_workload.json)",
    "workload_sharded": "own file: test_bench_shard.py (BENCH_shard.json)",
    "workload_sharded_xl": "own file: test_bench_shard.py (xl slice)",
    "ccbench": "too heavy: its 48 cells sit on the 6 s duration floor, so "
               "BENCH_SCALE cannot shrink it (42 s, nearly twice table2, "
               "the heaviest row here); CI's ccbench smoke and nightly "
               "jobs run it",
}

BENCHED = [exp_id for exp_id in ALL_EXPERIMENTS if exp_id not in EXCLUDED]


@pytest.mark.parametrize("exp_id", BENCHED)
def test_bench_experiment(benchmark, exp_id):
    result = benchmark.pedantic(
        ALL_EXPERIMENTS[exp_id],
        kwargs={"scale": BENCH_SCALE, "seed": BENCH_SEED},
        rounds=1, iterations=1,
    )
    attach_rows(benchmark, result)
    assert result.rows
