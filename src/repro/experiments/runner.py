"""Serial and process-parallel experiment execution.

``run_experiments`` is the single entry point behind
``python -m repro.experiments``: it runs a list of experiment ids either
in-process (``jobs=1``) or fanned out over ``jobs`` processes, the
calling one included (``jobs>1``).
How each experiment runs is described by one :class:`RunSpec`, shared
by every id in the batch and the only options channel: every id is a
:class:`~repro.experiments.paper.Figure`, called the same way, and its
cells read the options they use off
:class:`~repro.experiments.paper.Run`.

Determinism guarantee: every experiment constructs its own
:class:`~repro.simcore.Simulator` and :class:`~repro.simcore.RngRegistry`
from ``(scale, seed)`` alone — no state is shared between experiments —
so the parallel rows are bit-identical to the serial rows.  Both paths
execute the *same* worker function (:func:`run_one`) through the one
fan-out (:func:`repro.common.fanout.fan_out`); ``jobs`` only changes
which process it runs in.  ``tests/test_parallel_runner.py``
asserts the bit-identity per experiment id.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.common.fanout import fan_out


@dataclass(frozen=True)
class RunSpec:
    """How to run experiments: everything except *which* experiment.

    One picklable value carries the run configuration through the CLI,
    the pool workers, and programmatic sweeps.

    ``sampler_interval_s`` overrides the metrics sampler cadence for
    observed runs; when None, the experiment's own
    ``Figure.sampler_interval_s`` applies, else
    :data:`repro.obs.metrics.DEFAULT_INTERVAL_S` (50 ms).

    ``cc`` (a :class:`~repro.tcp.cc.CCSpec`; bare names are coerced here,
    at the edge) selects/overrides the congestion control for the
    experiments whose cells read ``Run.cc`` (``workload``, ``churn``,
    ``ccbench``).  The spec is frozen and picklable, so it rides through
    the process pool unchanged.

    ``shard_jobs`` is the process count *inside* a sharded experiment,
    its caller included (rows are bit-identical for any value);
    ``sink_dir`` and ``checkpoint_dir`` are where ``workload_sharded_xl``
    streams per-flow rows and commits finished shards (and resumes
    from).  Forked
    shard workers of a profiled run dump their own cProfile under
    ``<profile_dir>/shards``; the caller's shards land in the
    experiment's profile.
    """

    scale: float = 1.0
    seed: int = 0
    observe: bool = False
    profile_dir: Optional[str] = None
    sampler_interval_s: Optional[float] = None
    cc: Optional[object] = None
    shard_jobs: int = 1
    sink_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.sampler_interval_s is not None and self.sampler_interval_s <= 0:
            raise ValueError("sampler_interval_s must be positive")
        if self.shard_jobs < 1:
            raise ValueError(f"shard_jobs must be >= 1, got {self.shard_jobs}")
        for name in ("sink_dir", "checkpoint_dir"):
            if getattr(self, name) == "":
                raise ValueError(f"{name} must be a path or None, not ''")
        if self.cc is not None:
            from repro.tcp.cc import as_cc_spec

            object.__setattr__(self, "cc", as_cc_spec(self.cc))


@dataclass
class RunOutcome:
    """One experiment's result rows plus run metadata."""

    name: str
    result: dict          # ExperimentResult.to_dict()
    wall_s: float
    pid: int              # the process that ran it
    profile_path: Optional[str] = None
    # Populated when observe=True: repro.obs record/sample dicts.
    trace_records: Optional[list] = None
    metric_samples: Optional[list] = None


def run_one(name: str, spec: RunSpec = RunSpec()) -> RunOutcome:
    """Run one experiment id; the unit of work for serial and pool runs.

    Imports lazily so pool workers (``spawn`` start method included) pay
    the import cost once per process, not per task.  Every experiment is
    called the same way: scale, seed and the run options
    (:class:`~repro.experiments.paper.Run`'s option fields).

    With ``spec.observe``, the global tracer and metrics registry are
    reset and enabled around this experiment alone, and the drained
    record/sample streams ride back on the outcome.  Resetting *per
    experiment* (not per process) keeps the streams independent of pool
    placement, so traced runs stay bit-identical across ``jobs`` values.
    """
    from repro.experiments import ALL_EXPERIMENTS

    run = ALL_EXPERIMENTS[name]
    kwargs = dict(
        scale=spec.scale, seed=spec.seed, cc=spec.cc,
        shard_jobs=spec.shard_jobs, sink_dir=spec.sink_dir,
        checkpoint_dir=spec.checkpoint_dir, profile_dir=spec.profile_dir,
    )
    profile_path = None
    trace_records = None
    metric_samples = None
    saved_interval = None
    if spec.observe:
        from repro.obs import METRICS, TRACER
        from repro.obs.metrics import DEFAULT_INTERVAL_S

        TRACER.reset()
        METRICS.reset()
        TRACER.enable()
        METRICS.enable()
        saved_interval = METRICS.interval_s
        METRICS.interval_s = (
            spec.sampler_interval_s or run.sampler_interval_s
            or DEFAULT_INTERVAL_S
        )
    t0 = time.time()
    try:
        if spec.profile_dir is not None:
            import cProfile

            os.makedirs(spec.profile_dir, exist_ok=True)
            profile_path = os.path.join(spec.profile_dir, f"{name}.pstats")
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = run(**kwargs)
            finally:
                profiler.disable()
                profiler.dump_stats(profile_path)
        else:
            result = run(**kwargs)
    finally:
        if spec.observe:
            trace_records = TRACER.drain()
            metric_samples = METRICS.drain()
            TRACER.disable()
            METRICS.disable()
            METRICS.interval_s = saved_interval
    return RunOutcome(
        name=name,
        result=result.to_dict(),
        wall_s=time.time() - t0,
        pid=os.getpid(),
        profile_path=profile_path,
        trace_records=trace_records,
        metric_samples=metric_samples,
    )


def run_experiments(
    names: Sequence[str],
    spec: RunSpec = RunSpec(),
    jobs: int = 1,
) -> list[RunOutcome]:
    """Run ``names`` under ``spec``; outcomes come back in request order.

    ``jobs > 1`` fans the experiments out over ``min(jobs, len(names))``
    processes, this one included — a single id therefore runs inline,
    and a bit-identity check of the pool path needs at least two ids.
    Output order (and content — see the module docstring) is identical
    to the serial run regardless of completion order.  A failing
    experiment surfaces as a :class:`~repro.common.fanout.TaskError`
    naming its id; no id is started after the failure.
    """
    return fan_out(
        run_one,
        [(name, spec) for name in names],
        jobs,
        names=[f"experiment {name!r}" for name in names],
    )
