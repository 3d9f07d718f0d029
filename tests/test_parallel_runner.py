"""The parallel experiment runner must reproduce serial rows bit-exactly.

Every experiment id is parametrized; the cheap ones run on every test
invocation, the expensive ones are gated behind ``LEOTP_FULL_DETERMINISM=1``
(CI's benchmark job sets it for a subset, a nightly/full run can set it
globally) so the tier-1 suite stays fast.  Bit-identity holds by
construction — serial and parallel paths execute the same worker
function (:func:`repro.experiments.runner.run_one`) and every experiment
seeds its own Simulator/RngRegistry — and these tests pin that guarantee
against regressions (e.g. a worker that mutates shared module state).
"""

from __future__ import annotations

import functools
import multiprocessing
import os

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import RunSpec, run_experiments, run_one

# Experiments cheap enough (at tiny scale) to check on every run.
_CHEAP_IDS = ("fig02", "fig03")
_TINY_SCALE = 0.02
_SPEC = RunSpec(scale=_TINY_SCALE, seed=0)


def _gated(name: str):
    if name in _CHEAP_IDS or os.environ.get("LEOTP_FULL_DETERMINISM") == "1":
        return name
    return pytest.param(
        name,
        marks=pytest.mark.skip(
            reason="expensive; set LEOTP_FULL_DETERMINISM=1 to include"
        ),
    )


@functools.lru_cache(maxsize=None)
def _serial(name: str) -> dict:
    """The serial run's result, computed once for every test comparing
    against it."""
    return run_experiments([name], _SPEC, jobs=1)[0].result


def _start_together(monkeypatch, name: str) -> None:
    """Make ``run_experiments([name, name], jobs=2)`` run one copy in the
    caller and one in the forked worker: each copy waits for the other at
    a barrier the worker inherits before it runs."""
    run = ALL_EXPERIMENTS[name]
    barrier = multiprocessing.Barrier(2)

    def together(**kwargs):
        barrier.wait(timeout=60)
        return run(**kwargs)

    monkeypatch.setattr("repro.experiments.ALL_EXPERIMENTS", {name: together})


@pytest.mark.parametrize("name", [_gated(n) for n in sorted(ALL_EXPERIMENTS)])
def test_parallel_rows_bit_identical(name, monkeypatch):
    """--jobs N rows == serial rows, for every experiment id — one copy
    run in the caller, one in a forked worker."""
    serial = _serial(name)
    _start_together(monkeypatch, name)
    parallel = run_experiments([name, name], _SPEC, jobs=2)
    pids = {o.pid for o in parallel}
    assert len(pids) == 2 and os.getpid() in pids
    for outcome in parallel:
        assert serial["rows"] == outcome.result["rows"]
        assert serial["notes"] == outcome.result["notes"]


def test_multi_experiment_order_and_rows():
    """A mixed batch returns outcomes in request order with serial rows."""
    names = list(_CHEAP_IDS)
    parallel = run_experiments(names, _SPEC, jobs=2)
    assert [o.name for o in parallel] == names
    for outcome in parallel:
        assert outcome.result == _serial(outcome.name)


def test_run_one_is_the_shared_worker():
    """Serial path and pool path both execute run_one (structural pin)."""
    assert run_one("fig03", _SPEC).result == _serial("fig03")


def test_single_id_parallel_runs_inline(pool_sizes):
    """jobs=2 with one id forks nothing: the caller is one of the jobs
    processes, so the bit-identity checks above run two copies."""
    outcomes = run_experiments(["fig03"], _SPEC, jobs=2)
    assert pool_sizes == []
    assert [(o.name, o.pid) for o in outcomes] == [("fig03", os.getpid())]


def test_profile_dump(tmp_path):
    """profile_dir writes a loadable pstats file per experiment."""
    import pstats

    outcome = run_one(
        "fig03", RunSpec(scale=_TINY_SCALE, seed=0, profile_dir=str(tmp_path))
    )
    assert outcome.profile_path is not None
    stats = pstats.Stats(outcome.profile_path)
    assert stats.total_calls > 0


def test_sampler_interval_override():
    """RunSpec.sampler_interval_s governs observed sampling cadence."""
    from repro.obs import METRICS

    coarse = run_one(
        "fig02",
        RunSpec(scale=_TINY_SCALE, seed=0, observe=True,
                sampler_interval_s=0.5),
    )
    fine = run_one(
        "fig02",
        RunSpec(scale=_TINY_SCALE, seed=0, observe=True,
                sampler_interval_s=0.05),
    )
    n_coarse = len(coarse.metric_samples or [])
    n_fine = len(fine.metric_samples or [])
    assert 0 < n_coarse < n_fine
    # Rows are bit-identical regardless of cadence (observation is
    # read-only) and the global cadence is restored afterwards.
    assert coarse.result["rows"] == fine.result["rows"]
    from repro.obs.metrics import DEFAULT_INTERVAL_S

    assert METRICS.interval_s == DEFAULT_INTERVAL_S


def test_runspec_validation():
    with pytest.raises(ValueError):
        RunSpec(scale=0.0)
    with pytest.raises(ValueError):
        RunSpec(sampler_interval_s=0.0)
    with pytest.raises(ValueError, match="shard_jobs"):
        RunSpec(shard_jobs=0)
    with pytest.raises(ValueError, match="sink_dir"):
        RunSpec(sink_dir="")
    with pytest.raises(ValueError, match="checkpoint_dir"):
        RunSpec(checkpoint_dir="")


def test_jobs_validation():
    with pytest.raises(ValueError):
        run_experiments(["fig03"], _SPEC, jobs=0)


# ----------------------------------------------------------------------
# RunSpec is the only options channel
# ----------------------------------------------------------------------


class _Reached(Exception):
    """Raised by the ``run_sharded`` spy: the experiment got this far."""


@pytest.mark.parametrize(
    "name, forwarded",
    [
        ("workload_sharded", ("profile_dir",)),
        ("workload_sharded_xl", ("sink_dir", "checkpoint_dir", "profile_dir")),
        ("content_study", ()),
    ],
)
def test_runspec_fields_reach_run_sharded(monkeypatch, tmp_path, name, forwarded):
    """``run_one`` hands every experiment the run options, and the
    sharded experiments pass the ones they use on to the engine as given."""
    import importlib

    module = importlib.import_module(f"repro.experiments.{name}")
    calls = []

    def spy(plan, **kwargs):
        calls.append(kwargs)
        raise _Reached

    monkeypatch.setattr(module, "run_sharded", spy)
    spec = RunSpec(
        scale=_TINY_SCALE, seed=0, shard_jobs=2,
        sink_dir=str(tmp_path / "sink"), checkpoint_dir=str(tmp_path / "ckpt"),
        profile_dir=str(tmp_path / "prof"),
    )
    with pytest.raises(_Reached):
        run_one(name, spec)
    (call,) = calls
    assert call.pop("resume_from", None) is None  # xl: no manifest there yet
    assert call == {"jobs": 2, **{k: getattr(spec, k) for k in forwarded}}


def test_shard_profiles_land_under_the_run_profile_dir(tmp_path):
    """The shard workers' profile directory is derived, not configured."""
    from repro.shard import ShardPlan, run_sharded

    plan = ShardPlan(n_shards=2, arrivals_per_shard=6, drain_s=1.0)
    run_sharded(plan, jobs=1, profile_dir=str(tmp_path / "serial"))
    assert not (tmp_path / "serial").exists()  # the caller's profiler covers it
    run_sharded(plan, jobs=2, profile_dir=str(tmp_path))
    dumps = sorted(p.name for p in (tmp_path / "shards").iterdir())
    assert [d[:10] for d in dumps] == ["shard-000-", "shard-001-"]
    assert all(d.endswith(".pstats") for d in dumps)


def test_profiled_caller_keeps_its_shards_in_the_experiment_profile(
    shards_start_together, tmp_path
):
    """Under ``--profile`` the caller runs shards inside the experiment's
    cProfile, so it starts no second profiler (3.12 would refuse one);
    the forked worker dumps its own under ``shards/``."""
    import pstats

    outcome = run_one("workload_sharded", RunSpec(
        scale=_TINY_SCALE, seed=0, shard_jobs=2, profile_dir=str(tmp_path),
    ))
    profiled = {func[2] for func in pstats.Stats(outcome.profile_path).stats}
    assert "run_shard" in profiled
    dumps = list((tmp_path / "shards").glob("shard-*.pstats"))
    assert dumps and all(f"pid{os.getpid()}." not in d.name for d in dumps)


def test_no_module_reads_the_environment():
    """Options ride on RunSpec; nothing under src/repro/ talks through
    ``os.environ`` (the fence behind ``--shard-jobs`` & co.)."""
    import pathlib

    import repro

    sources = pathlib.Path(repro.__file__).parent.rglob("*.py")
    texts = {str(path): path.read_text() for path in sources}
    assert [
        path for path, text in texts.items()
        if "os.environ" in text or "getenv" in text
    ] == []
