"""One shard's simulation state and the task that runs it to completion.

A sharded run is ``n_shards`` independent simulations.  The engine
submits one :func:`run_shard` task per shard that has no committed
result; a task builds its :class:`_ShardState` from ``(plan, index)``,
runs it from its seed to its horizon in one ``sim.run`` — each flow's
row spills the moment the flow closes — finalises it into the shard's
result row, commits that row when the run checkpoints, and *drops the
state* before its process claims the next task, so a process never
holds more than one shard.  The engine's own process runs the same
function inline (all shards with ``jobs=1``, its share of them
otherwise) — one code path, two execution modes.

What crosses the process boundary (DESIGN.md §14): the task's arguments
out (plan, shard index, directories) and one small result dict back
(row, the process's id and its peak RSS over the task) —
measured in the run's ``exchange_*_bytes`` counters.
"""

from __future__ import annotations

import gc
import os
import sys
from typing import Optional

from repro.obs.rss import peak_rss_bytes, reset_peak_rss
from repro.shard.checkpoint import commit_shard, spill_name
from repro.shard.plan import ShardPlan
from repro.shard.sink import SpillWriter
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator
from repro.workload.pool import FlowPool


class ShardError(RuntimeError):
    """A shard's simulation failed; carries the shard id and the
    simulated time it had reached."""

    def __init__(self, shard: int, at_s: float, message: str) -> None:
        super().__init__(f"shard {shard} failed at t={at_s:g}s: {message}")
        self.shard = shard
        self.at_s = at_s
        self.message = message

    def __reduce__(self):
        # Custom ctor signature: make the exception itself picklable so
        # it survives the executor's result channel intact.
        return (ShardError, (self.shard, self.at_s, self.message))


class _ShardState:
    """One shard's complete simulation: chain, FlowPool, faults.

    With ``sink_dir`` each flow's row spills, as it closes, to this
    shard's file there (:attr:`sink`).
    """

    def __init__(
        self, plan: ShardPlan, index: int, sink_dir: Optional[str] = None
    ) -> None:
        self.plan = plan
        self.index = index
        self.sim = Simulator()
        self.rng = RngRegistry(plan.shard_seed(index))
        self.sink = (
            SpillWriter(os.path.join(sink_dir, spill_name(index)))
            if sink_dir is not None else None
        )
        self.pool = FlowPool(
            self.sim,
            self.rng,
            spec=plan.workload_spec(),
            hops=plan.hop_specs(),
            protocol="leotp",
            memory_ceiling_bytes=plan.memory_ceiling_bytes,
            cache_fraction=plan.cache_fraction,
            name=plan.shard_name(index),
            cache_policy=plan.cache_policy,
            result_sink=self.sink,
        )
        if plan.has_fault(index):
            # Only a faulted shard loads the fault layer: it blacks out
            # the mid-chain hop.
            from repro.faults.timeline import (
                LinkDown, Timeline, TimelineDriver,
            )

            TimelineDriver(self.sim, self.pool, Timeline(
                LinkDown(
                    at_s=plan.fault_at_s,
                    hop=len(self.pool.links) // 2,
                    duration_s=plan.fault_duration_s,
                ),
            ), self.rng)

    def run(self) -> None:
        """Simulate from the shard's seed to the plan's horizon."""
        self.sim.run(until=self.plan.horizon_s)

    def finalize(self) -> dict:
        """End the shard's workload and summarise it into one result row.

        Raises :class:`ShardError` if the shard's memory budget was ever
        breached or its caches hold more than its slice.
        """
        pool = self.pool
        pool.finalize()
        # Flows aborted by finalize (reason "unfinished") are the last
        # rows of the shard's spill file.
        if self.sink is not None:
            self.sink.close()
        summary = pool.summary()
        breaches = int(summary["budget_breaches"])
        stored = pool.cache_pool.stored_bytes
        if breaches or stored > self.plan.shard_cache_bytes:
            raise ShardError(
                self.index, self.sim.now,
                f"{breaches} memory-budget breach(es); caches hold {stored}"
                f" of the {self.plan.shard_cache_bytes}-byte slice",
            )
        row = {
            "shard": self.index,
            "faulted": self.plan.has_fault(self.index),
            "arrivals": int(summary["arrivals"]),
            "completed": int(summary["completed"]),
            "aborted": int(summary["aborted"]),
            "peak_conc": int(summary["peak_concurrency"]),
            "fct_p50_ms": summary["fct_p50_s"] * 1e3,
            "fct_p90_ms": summary["fct_p90_s"] * 1e3,
            "fct_p99_ms": summary["fct_p99_s"] * 1e3,
            "goodput_kBs": summary.get("goodput_mean_bytes_s", 0.0) / 1e3,
            "budget_peak_MiB": summary["budget_peak_bytes"] / (1 << 20),
            "budget_breaches": breaches,
            "cache_evictions": int(summary.get("cache_pool_evictions", 0)),
            "admission_rejects": int(summary["admission_rejects"]),
            "events": self.sim.events_executed,
        }
        if "cross_hit_ratio" in summary:
            # Content shards additionally report cache-sharing outcomes
            # (absent for classic plans, keeping their rows byte-stable).
            row["objects"] = int(summary["content_objects"])
            row["hit_ratio"] = round(summary["cache_hit_ratio"], 6)
            row["cross_hit_ratio"] = round(summary["cross_hit_ratio"], 6)
            row["origin_MB"] = summary["origin_bytes"] / 1e6
            row["origin_load_reduction"] = round(
                summary["origin_load_reduction"], 6
            )
        return row


# ----------------------------------------------------------------------
# The task (submitted across the process boundary — keep top-level)
# ----------------------------------------------------------------------


def _profiled() -> bool:
    """Whether a profiler already runs in this process: a second cProfile
    would take over its hook (Python < 3.12) or raise (3.12+, where
    cProfile registers as the ``sys.monitoring`` profiler instead)."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.getprofile() is not None or (
        monitoring is not None
        and monitoring.get_tool(monitoring.PROFILER_ID) is not None
    )


def run_shard(
    plan: ShardPlan,
    index: int,
    sink_dir: Optional[str],
    checkpoint_dir: Optional[str],
    profile_dir: Optional[str],
) -> dict:
    """Run shard ``index`` from its seed to its result row.

    With ``sink_dir`` the shard's flows spill to its own file there,
    rewritten from byte 0; with ``checkpoint_dir`` the finished row is
    committed there with the spill's byte count.  Returns the row, this
    process's id and its peak RSS over the task (the kernel's high-water
    mark, restarted when the task starts).

    With ``profile_dir`` the task dumps its own cProfile there — unless
    this process is profiled already (the caller of a profiled run),
    whose profile then covers the shard.
    """
    profiler = None
    if profile_dir is not None and not _profiled():
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    reset_peak_rss()
    sink = None
    try:
        state = _ShardState(plan, index, sink_dir)
        sink = state.sink
        try:
            state.run()
            row = state.finalize()
        except ShardError:
            raise
        except Exception as exc:
            raise ShardError(
                index, state.sim.now, f"{type(exc).__name__}: {exc}"
            ) from exc
        if checkpoint_dir is not None:
            commit_shard(checkpoint_dir, index, {
                "row": row,
                "spill_bytes": sink.close() if sink is not None else None,
            })
    finally:
        if sink is not None:
            sink.close()  # a failed shard's too: its re-run rewrites it
        # The simulation graph is cyclic (nodes <-> the simulator's heap,
        # Consumers <-> their access links): without the collection the
        # next shard of this process is built beside this one's corpse.
        state = sink = None
        gc.collect()
        peak = peak_rss_bytes()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(os.path.join(
                profile_dir, f"shard-{index:03d}-pid{os.getpid()}.pstats"
            ))
    return {"row": row, "pid": os.getpid(), "peak_rss_bytes": peak or 0}
