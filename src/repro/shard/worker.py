"""Per-process shard simulation state and the epoch task functions.

A worker process owns a *group* of shards for the whole run: the engine
pins each group to its own single-worker executor, so every epoch task
for group ``g`` lands in the same process and finds the group's
:class:`_GroupContext` — and in it the live :class:`_ShardState` objects
(simulator, FlowPool, fault injector) — in :data:`_GROUPS` exactly where
the previous epoch left them.  With ``jobs=1`` the engine calls these
functions inline and the same dict serves from the parent process — one
code path, two execution modes.

Contexts are keyed by ``run_token``: the token is unique per engine
invocation, so two runs in one process (tests, back-to-back
experiments) can never see each other's shards.

The cross-boundary protocol (DESIGN.md §14): the plan, shard indices,
sink/checkpoint directories, and profiling flag cross once, in
:func:`prepare_group`.  After that each epoch the engine sends the
allocation tuple and gets back one pickled list of full
:class:`~repro.shard.exchange.ShardReport` values — a few hundred bytes
per shard, measured in the run's ``exchange_*_bytes`` counters.
"""

from __future__ import annotations

import cProfile
import os
import pickle
from collections import Counter
from typing import Optional

from repro.faults.schedule import FaultInjector, FaultSchedule, LinkDown
from repro.obs.rss import current_rss_bytes
from repro.obs.tracer import TRACER
from repro.shard.checkpoint import (
    CheckpointError,
    load_shard,
    save_shard,
    spill_name,
)
from repro.shard.exchange import ShardReport
from repro.shard.plan import ShardPlan
from repro.shard.sink import SpillWriter
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator
from repro.workload.pool import FlowPool

#: Per-run group context (shard states, profiler) of every run this
#: process participates in.
_GROUPS: dict[str, "_GroupContext"] = {}

#: Fault-injection target name for the mid-chain blackout link.
_FAULT_LINK = "midlink"


class ShardError(RuntimeError):
    """A shard's simulation failed; carries the shard id and epoch."""

    def __init__(self, shard: int, epoch: int, message: str) -> None:
        super().__init__(
            f"shard {shard} failed at epoch {epoch}: {message}"
        )
        self.shard = shard
        self.epoch = epoch

    def __reduce__(self):
        # Custom ctor signature: make the exception itself picklable so
        # it survives the executor's result channel intact.
        return (ShardError, (self.shard, self.epoch, self._message()))

    def _message(self) -> str:
        text = self.args[0]
        prefix = f"shard {self.shard} failed at epoch {self.epoch}: "
        return text[len(prefix):] if text.startswith(prefix) else text


class _GroupContext:
    """One run's per-process state: the group's shards and its vitals."""

    __slots__ = ("states", "profiler", "profile_dir", "peak_rss_bytes")

    def __init__(self, profile_dir: Optional[str]) -> None:
        self.states: list[_ShardState] = []
        self.profile_dir = profile_dir
        self.profiler: Optional[cProfile.Profile] = None
        self.peak_rss_bytes = 0
        if profile_dir is not None:
            try:
                self.profiler = cProfile.Profile()
            except Exception:  # pragma: no cover - profiler unavailable
                self.profiler = None

    def sample_rss(self) -> None:
        rss = current_rss_bytes()
        if rss is not None and rss > self.peak_rss_bytes:
            self.peak_rss_bytes = rss


class _ShardState:
    """One shard's complete simulation: chain, FlowPool, faults, tracer.

    The whole object — event heap, RNG streams, cache occupancy, live
    flow endpoints — pickles cleanly, which is what checkpoint/resume
    captures.  The result sink inside the FlowPool serialises as a
    ``(path, durable offset)`` pair and reopens in append mode on
    restore (see :class:`repro.shard.sink.SpillWriter`).
    """

    def __init__(self, plan: ShardPlan, index: int) -> None:
        self.plan = plan
        self.index = index
        self.sim = Simulator()
        self.rng = RngRegistry(plan.shard_seed(index))
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
        )
        self.injector: Optional[FaultInjector] = None
        if plan.has_fault(index):
            self.injector = FaultInjector(self.sim, self.rng)
            middle = self.pool.links[len(self.pool.links) // 2]
            self.injector.register_link(_FAULT_LINK, middle)
            self.injector.arm(FaultSchedule([
                LinkDown(
                    at_s=plan.fault_at_s,
                    link=_FAULT_LINK,
                    duration_s=plan.fault_duration_s,
                ),
            ]))
        # Per-shard trace event counts (observe mode), merged by the engine.
        self.trace_counts: Counter = Counter()
        self._boundary_stored_before = 0
        self._boundary_evicted = 0

    # -- result streaming ----------------------------------------------

    def attach_sink(self, sink_dir: str) -> None:
        """Stream closed flows' rows to this run's per-shard spill file."""
        path = os.path.join(sink_dir, spill_name(self.index))
        self.pool.set_result_sink(SpillWriter(path))

    def spill(self) -> int:
        """Epoch-boundary spill + durable flush; returns the byte offset
        (0 when no sink is attached)."""
        sink = self.pool._result_sink
        if sink is None:
            return 0
        self.pool.spill_closed()
        return sink.flush()

    # -- epoch mechanics ------------------------------------------------

    def apply_allocation(self, allocation: int) -> None:
        """Adopt the exchange's cache allocation at the epoch boundary.

        Shrinking below current occupancy evicts deterministically (each
        Midnode's cache, in its own LRU/LFU order, down to its placement
        share of the allocation); the boundary identity ``before == after
        + evicted`` is asserted here so accounting bugs fail at the
        boundary that caused them.
        """
        cache_pool = self.pool.cache_pool
        assert cache_pool is not None  # LEOTP pools always have one
        before = cache_pool.stored_bytes
        # The shard's ledger ceiling follows its allocation: admission
        # still enforces the fixed flow-state share, while the cache side
        # may legitimately grow past the construction-time equal split.
        self.pool.budget.ceiling_bytes = (
            self.pool._flow_share_bytes + allocation
        )
        # set_capacity re-derives the members' placement shares and
        # returns the bytes it evicted, so the conservation identity
        # below sees every boundary eviction.
        evicted = cache_pool.set_capacity(allocation)
        after = cache_pool.stored_bytes
        if before != after + evicted:
            raise AssertionError(
                f"shard {self.index}: cache bytes not conserved at epoch "
                f"boundary ({before} != {after} + {evicted})"
            )
        if after > allocation:
            raise AssertionError(
                f"shard {self.index}: occupancy {after} above allocation "
                f"{allocation} after enforcement"
            )
        self._boundary_stored_before = before
        self._boundary_evicted = evicted

    def run_epoch(self, epoch: int, observe: bool) -> ShardReport:
        until = self.plan.epoch_end_s(epoch)
        if observe:
            was_enabled = TRACER.enabled
            mark = len(TRACER.records)
            TRACER.enable()
            try:
                self.sim.run(until=until)
            finally:
                TRACER.enabled = was_enabled
            self.trace_counts.update(
                rec["event"] for rec in TRACER.records[mark:]
            )
            del TRACER.records[mark:]  # merged into counts; free the buffer
        else:
            self.sim.run(until=until)
        return self.report(epoch)

    def report(self, epoch: int) -> ShardReport:
        pool = self.pool
        cache_pool = pool.cache_pool
        return ShardReport(
            shard=self.index,
            epoch=epoch,
            sim_time_s=self.sim.now,
            events_executed=self.sim.events_executed,
            arrivals=pool.arrivals,
            completed=pool.completed,
            aborted=pool.aborted,
            live_flows=pool.active_flows,
            backlog_bytes=pool.backlog_bytes(),
            cache_stored_bytes=cache_pool.stored_bytes,
            cache_capacity_bytes=cache_pool.capacity_bytes,
            budget_total_bytes=pool.budget.total_bytes,
            budget_breaches=pool.budget.breaches,
            boundary_stored_before=self._boundary_stored_before,
            boundary_evicted_bytes=self._boundary_evicted,
        )

    def finalize(self) -> dict:
        """End the shard's workload and summarise it into one result row."""
        self.pool.finalize()
        sink = self.pool._result_sink
        if sink is not None:
            # Flows aborted by finalize (reason "unfinished") are the
            # last rows of the shard's spill file.
            self.pool.spill_closed()
            sink.close()
        summary = self.pool.summary()
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
            "budget_breaches": int(summary["budget_breaches"]),
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
# Task functions (submitted across the process boundary — keep top-level)
# ----------------------------------------------------------------------


def _context(run_token: str) -> _GroupContext:
    ctx = _GROUPS.get(run_token)
    if ctx is None:
        raise RuntimeError(f"no prepared group for run {run_token!r}")
    return ctx


def prepare_group(
    plan: ShardPlan,
    run_token: str,
    indices: list[int],
    sink_dir: Optional[str],
    restore: Optional[tuple[str, dict[int, tuple[str, str]]]],
    profile_dir: Optional[str],
) -> list[int]:
    """One-time group setup: build (or restore) the group's shard states.

    Plan, indices and directories cross the process boundary once, here.
    With ``restore`` set, each shard unpickles from its checkpoint file
    (digest-verified) instead of being built fresh.
    """
    ctx = _GROUPS[run_token] = _GroupContext(profile_dir)
    if ctx.profiler is not None:
        ctx.profiler.enable()
    try:
        for index in indices:
            if restore is not None:
                directory, entries = restore
                name, digest = entries[index]
                state = load_shard(directory, name, digest)
                if not isinstance(state, _ShardState):
                    raise CheckpointError(
                        f"checkpoint file {name!r} does not hold a shard "
                        f"state (got {type(state).__name__})"
                    )
            else:
                state = _ShardState(plan, index)
                if sink_dir is not None:
                    state.attach_sink(sink_dir)
            ctx.states.append(state)
    finally:
        if ctx.profiler is not None:
            ctx.profiler.disable()
    ctx.sample_rss()
    return list(indices)


def run_group_epoch(
    run_token: str, epoch: int, allocations: tuple[int, ...], observe: bool
) -> bytes:
    """Advance every shard of one group through one epoch.

    Every shard adopts its entry of ``allocations`` (the epoch-boundary
    step; a same-value apply evicts nothing) and simulates up to the
    epoch end.  Shards run sequentially within their group; parallelism
    is across groups.  Returns the pickled list of the shards' reports.
    """
    ctx = _context(run_token)
    if ctx.profiler is not None:
        ctx.profiler.enable()
    try:
        reports = []
        for state in ctx.states:
            try:
                state.apply_allocation(allocations[state.index])
                reports.append(state.run_epoch(epoch, observe))
                state.spill()
            except ShardError:
                raise
            except Exception as exc:
                raise ShardError(
                    state.index, epoch, f"{type(exc).__name__}: {exc}"
                )
    finally:
        if ctx.profiler is not None:
            ctx.profiler.disable()
    ctx.sample_rss()
    return pickle.dumps(reports, protocol=pickle.HIGHEST_PROTOCOL)


def checkpoint_group(
    run_token: str, directory: str, completed_epochs: int
) -> list[tuple[int, str, str, Optional[int]]]:
    """Durably capture every shard of one group at an epoch boundary.

    Returns ``(shard, file name, digest, spill offset)`` per shard for
    the engine's manifest.  Spills were flushed when the epoch ended, so
    the writer serialises with an empty buffer and the recorded offset
    is exactly the durable prefix a resume must keep.
    """
    ctx = _context(run_token)
    out = []
    for state in ctx.states:
        sink = state.pool._result_sink
        offset = sink.flush() if sink is not None else None
        name, digest = save_shard(
            directory, state.index, completed_epochs, state
        )
        out.append((state.index, name, digest, offset))
    ctx.sample_rss()
    return out


def finalize_group(
    run_token: str,
) -> tuple[list[tuple[int, dict, dict]], int]:
    """Finalise and tear down one group's shards.

    Returns ``((shard_index, summary_row, trace_counts) per shard,
    worker peak RSS bytes)`` and drops the group's context, so a
    long-lived worker process (or the parent, with ``jobs=1``) holds
    nothing after the run.
    """
    ctx = _context(run_token)
    if ctx.profiler is not None:
        ctx.profiler.enable()
    try:
        out = [
            (state.index, state.finalize(), dict(state.trace_counts))
            for state in ctx.states
        ]
    finally:
        if ctx.profiler is not None:
            ctx.profiler.disable()
    ctx.sample_rss()
    if ctx.profiler is not None and ctx.profile_dir is not None:
        group_tag = min((s.index for s in ctx.states), default=0)
        path = os.path.join(
            ctx.profile_dir,
            f"shard-group{group_tag:03d}-pid{os.getpid()}.pstats",
        )
        ctx.profiler.dump_stats(path)
    del _GROUPS[run_token]
    return out, ctx.peak_rss_bytes


def drop_run(run_token: str) -> None:
    """Abandon every shard of a run (engine cleanup on error paths)."""
    _GROUPS.pop(run_token, None)
