"""The bulk-synchronous sharded simulation engine.

:func:`run_sharded` drives a :class:`~repro.shard.plan.ShardPlan` to
completion: shards are partitioned into ``jobs`` groups (shard ``i`` in
group ``i % jobs``), each group is pinned to its own single-worker
:class:`~concurrent.futures.ProcessPoolExecutor` so its live simulator
state stays resident in one process for the whole run, and all groups
advance epoch by epoch with a barrier between epochs:

1. every group applies the cache allocations of the previous exchange
   and simulates its shards up to the epoch boundary (spilling closed
   flows' result rows to its per-shard sink);
2. the engine gathers one :class:`~repro.shard.exchange.ShardReport`
   per shard and folds them, sorted by shard index with integers only,
   into the next :class:`~repro.shard.exchange.ExchangeSignal`.

Because each shard's trajectory depends only on ``(plan, shard_index)``
and the exchange signal, and the signal is a pure function of the sorted
reports, the run's results are bit-identical for every ``jobs`` value —
``jobs=1`` executes the same task functions inline without any executor.
The per-epoch ledger (allocations, occupancy, boundary evictions,
aggregate backlog) is returned alongside the result rows so tests can
check conservation instead of trusting it.

Scale features (DESIGN.md §14):

* ``sink_dir`` streams closed flows' rows to per-shard JSONL spills,
  merged into one canonical ``flows.jsonl`` at the end — per-flow
  results never accumulate in RAM or cross the epoch barrier;
* ``checkpoint_dir``/``checkpoint_every`` capture every shard at epoch
  boundaries, and ``resume_from`` continues a checkpointed run (any
  ``jobs`` value) with bit-identical rows, ledger, and spill bytes;
* a worker exception surfaces as :class:`~repro.shard.worker.ShardError`
  naming the failing shard, and every other group's executor is shut
  down immediately instead of leaking.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.obs.rss import RssSampler
from repro.shard.checkpoint import (
    CheckpointError,
    plan_fingerprint,
    prune_stale,
    resume_point,
    spill_name,
    write_manifest,
    CHECKPOINT_FORMAT,
)
from repro.shard.exchange import (
    compute_exchange,
    initial_allocations,
    ledger_row,
)
from repro.shard.plan import ShardPlan
from repro.shard.sink import merge_spills, truncate_file
from repro.shard.worker import (
    checkpoint_group,
    drop_run,
    finalize_group,
    prepare_group,
    run_group_epoch,
)

_run_counter = itertools.count()

#: Merged result-row artifact written into ``sink_dir`` after a run.
MERGED_SPILL_NAME = "flows.jsonl"


def _groups(n_shards: int, jobs: int) -> list[list[int]]:
    """Shard-to-group assignment: shard ``i`` belongs to group ``i % jobs``."""
    jobs = max(1, min(jobs, n_shards))
    return [
        [i for i in range(n_shards) if i % jobs == g] for g in range(jobs)
    ]


def _gather(futures):
    """Collect every group's result; on failure, fail loudly and early.

    All futures are awaited (an epoch barrier anyway) and the first
    exception — typically a :class:`~repro.shard.worker.ShardError`
    naming the failing shard — is re-raised after the remaining results
    are drained, so the caller's cleanup sees a settled pool.
    """
    results = []
    first_error: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return results


def _each_group(executors, fn, per_group_args):
    """Run ``fn(*args)`` for every group; inline when there is one group.

    With executors, group ``g``'s call goes to its pinned worker process
    and the calls overlap; results come back in group order either way.
    """
    if not executors:
        return [fn(*next(iter(per_group_args)))]
    return _gather([
        ex.submit(fn, *args) for ex, args in zip(executors, per_group_args)
    ])


def total_row(label: str, rows: list[dict]) -> dict:
    """Aggregate shard result rows: summed counts, mean-of-shard
    latency and goodput columns, worst-shard peak concurrency."""
    n = len(rows)
    return {
        "shard": label,
        "faulted": sum(1 for row in rows if row["faulted"]),
        "arrivals": sum(row["arrivals"] for row in rows),
        "completed": sum(row["completed"] for row in rows),
        "aborted": sum(row["aborted"] for row in rows),
        "peak_conc": max(row["peak_conc"] for row in rows),
        "fct_p50_ms": sum(row["fct_p50_ms"] for row in rows) / n,
        "fct_p90_ms": sum(row["fct_p90_ms"] for row in rows) / n,
        "fct_p99_ms": sum(row["fct_p99_ms"] for row in rows) / n,
        "goodput_kBs": sum(row["goodput_kBs"] for row in rows) / n,
        "budget_peak_MiB": sum(row["budget_peak_MiB"] for row in rows),
        "budget_breaches": sum(row["budget_breaches"] for row in rows),
        "cache_evictions": sum(row["cache_evictions"] for row in rows),
        "admission_rejects": sum(row["admission_rejects"] for row in rows),
        "events": sum(row["events"] for row in rows),
    }


def run_sharded(
    plan: ShardPlan,
    jobs: int = 1,
    observe: bool = False,
    *,
    sink_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume_from: Optional[str] = None,
    stop_after_epoch: Optional[int] = None,
    profile_dir: Optional[str] = None,
) -> dict:
    """Run a sharded workload; returns rows, the exchange ledger, totals.

    ``jobs`` is purely an execution knob: any value (clamped to
    ``[1, n_shards]``) produces bit-identical ``rows`` and ``ledger``.
    Wall-clock and RSS figures (``wall_s``, ``events_per_s``, ``rss``)
    are reported next to — never inside — the deterministic payload.

    ``sink_dir``
        stream closed flows' result rows to per-shard JSONL spill files
        (memory-bounded results); merged into ``flows.jsonl`` at the end.
    ``checkpoint_dir`` / ``checkpoint_every``
        capture every shard after each ``checkpoint_every``-th epoch
        (and always after the last); the directory can seed
        ``resume_from`` later.
    ``resume_from``
        continue from a checkpoint directory written by a previous run
        of the *same plan* (any ``jobs`` value); rows, ledger, and spill
        files come out bit-identical to the uninterrupted run.
    ``stop_after_epoch``
        abandon the run after the given epoch completes (post
        checkpoint) — a deterministic stand-in for a mid-run kill, used
        by the resume tests and the nightly CI check.  The partial
        result dict carries ``stopped_after_epoch`` instead of rows.
    ``profile_dir``
        per-worker cProfile dumps (``shard-group*.pstats``) written at
        finalize, mergeable with ``tools/profile_top.py``.  Only worker
        processes profile here; with ``jobs=1`` the inline run is
        covered by the parent's own profiler (``--profile``).
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    groups = _groups(plan.n_shards, jobs)
    run_token = f"{os.getpid()}-{next(_run_counter)}"
    started = time.perf_counter()

    # -- resolve fresh-start vs resume ---------------------------------
    restore = None
    if resume_from is not None:
        resume_from = os.path.abspath(resume_from)
        manifest = resume_point(resume_from, plan)
        start_epoch = manifest["completed_epochs"]
        allocations = tuple(manifest["allocations"])
        ledger = [dict(row) for row in manifest["ledger"]]
        manifest_sink = manifest.get("sink_dir")
        if sink_dir is None:
            sink_dir = manifest_sink
        elif manifest_sink is not None and (
            os.path.abspath(sink_dir) != manifest_sink
        ):
            raise CheckpointError(
                f"checkpoint streamed results to {manifest_sink!r}; "
                f"resume must use the same sink_dir, not {sink_dir!r}"
            )
        # Rewind each spill file to the durable offset the checkpoint
        # recorded: rows from unreached epochs are discarded, so the
        # resumed run re-appends them identically.
        if sink_dir is not None:
            for index in range(plan.n_shards):
                entry = manifest["shards"][str(index)]
                offset = entry.get("spill_offset")
                if offset is not None:
                    truncate_file(
                        os.path.join(sink_dir, spill_name(index)), offset
                    )
        restore = (
            resume_from,
            {
                index: (
                    manifest["shards"][str(index)]["file"],
                    manifest["shards"][str(index)]["digest"],
                )
                for index in range(plan.n_shards)
            },
        )
    else:
        start_epoch = 0
        allocations = initial_allocations(plan)
        ledger = []
        if sink_dir is not None:
            sink_dir = os.path.abspath(sink_dir)
            os.makedirs(sink_dir, exist_ok=True)
    if checkpoint_dir is not None:
        checkpoint_dir = os.path.abspath(checkpoint_dir)
        os.makedirs(checkpoint_dir, exist_ok=True)
    if profile_dir is not None:
        profile_dir = os.path.abspath(profile_dir)
        os.makedirs(profile_dir, exist_ok=True)

    executors: list[ProcessPoolExecutor] = []
    if len(groups) > 1:
        executors = [
            ProcessPoolExecutor(max_workers=1) for _ in groups
        ]
    failed = False
    stopped = False
    exchange_payload_bytes = 0
    exchange_report_bytes = 0
    checkpoints_written = 0
    worker_peaks: list[int] = []
    sampler = RssSampler().start()
    try:
        # -- one-time group setup (plan/indices cross the boundary once)
        worker_profile = profile_dir if executors else None
        _each_group(executors, prepare_group, [
            (plan, run_token, group, sink_dir, restore, worker_profile)
            for group in groups
        ])

        # -- epoch loop -------------------------------------------------
        for epoch in range(start_epoch, plan.n_epochs):
            args = (run_token, epoch, allocations, observe)
            exchange_payload_bytes += len(pickle.dumps(args)) * len(groups)
            blobs = _each_group(
                executors, run_group_epoch, itertools.repeat(args)
            )
            exchange_report_bytes += sum(len(blob) for blob in blobs)
            reports = [rep for blob in blobs for rep in pickle.loads(blob)]
            signal = compute_exchange(plan, reports)
            ledger.append(ledger_row(reports, signal))
            allocations = signal.allocations

            # Note: stopping deliberately does NOT force a checkpoint —
            # a mid-run kill lands wherever the cadence last committed,
            # and resume must cope (spill truncation covers the gap).
            at_boundary = (
                (epoch + 1) % checkpoint_every == 0
                or epoch == plan.n_epochs - 1
            )
            if checkpoint_dir is not None and at_boundary:
                _write_checkpoint(
                    plan, run_token, executors, checkpoint_dir,
                    completed_epochs=epoch + 1,
                    allocations=allocations, ledger=ledger,
                    sink_dir=sink_dir,
                )
                checkpoints_written += 1
            if stop_after_epoch is not None and epoch >= stop_after_epoch:
                stopped = True
                break

        if stopped:
            return {
                "stopped_after_epoch": stop_after_epoch,
                "completed_epochs": stop_after_epoch + 1,
                "checkpoints_written": checkpoints_written,
                "checkpoint_dir": checkpoint_dir,
                "ledger": ledger,
            }

        # -- finalize ---------------------------------------------------
        outs = _each_group(
            executors, finalize_group, itertools.repeat((run_token,))
        )
        finals = [item for items, _ in outs for item in items]
        worker_peaks = [peak for _, peak in outs]
    except BaseException:
        failed = True
        raise
    finally:
        parent_peak = sampler.stop()
        for ex in executors:
            ex.shutdown(wait=not failed, cancel_futures=failed)
        drop_run(run_token)  # an inline run's group lives in this process
    wall_s = time.perf_counter() - started

    finals.sort(key=lambda item: item[0])
    rows = [row for _, row, _ in finals]
    trace_counts: dict[str, int] = {}
    for _, _, counts in finals:
        for event, n in counts.items():
            trace_counts[event] = trace_counts.get(event, 0) + n

    total = total_row("total", rows)
    rows.append(total)
    total_events = total["events"]
    total_completed = total["completed"]

    sink_info = None
    if sink_dir is not None:
        merged_path = os.path.join(sink_dir, MERGED_SPILL_NAME)
        merged_bytes = merge_spills(
            [
                os.path.join(sink_dir, spill_name(i))
                for i in range(plan.n_shards)
            ],
            merged_path,
        )
        sink_info = {"dir": sink_dir, "merged_path": merged_path,
                     "merged_bytes": merged_bytes}

    mib = 1 << 20
    worker_peak_sum = sum(worker_peaks)
    rss = None
    if parent_peak is not None:
        total_peak = parent_peak + (worker_peak_sum if executors else 0)
        rss = {
            "parent_peak_mib": parent_peak / mib,
            "worker_peak_mib": worker_peak_sum / mib,
            "total_peak_mib": total_peak / mib,
        }
    return {
        "rows": rows,
        "ledger": ledger,
        "trace_counts": trace_counts if observe else None,
        "events_executed": total_events,
        "completed": total_completed,
        "jobs": len(groups),
        "wall_s": wall_s,
        "events_per_s": total_events / wall_s if wall_s > 0 else 0.0,
        "resumed_from_epoch": start_epoch if resume_from is not None else None,
        "checkpoints_written": checkpoints_written,
        "exchange_payload_bytes": exchange_payload_bytes,
        "exchange_report_bytes": exchange_report_bytes,
        "sink": sink_info,
        "rss": rss,
    }


def _write_checkpoint(
    plan: ShardPlan,
    run_token: str,
    executors: list[ProcessPoolExecutor],
    directory: str,
    *,
    completed_epochs: int,
    allocations: tuple[int, ...],
    ledger: list[dict],
    sink_dir: Optional[str],
) -> None:
    """Capture every shard, then commit the manifest atomically."""
    entry_lists = _each_group(
        executors, checkpoint_group,
        itertools.repeat((run_token, directory, completed_epochs)),
    )
    shard_entries: dict[str, dict] = {}
    for entries in entry_lists:
        for index, name, digest, offset in entries:
            shard_entries[str(index)] = {
                "file": name,
                "digest": digest,
                "spill_offset": offset,
            }
    write_manifest(directory, {
        "format": CHECKPOINT_FORMAT,
        "plan_fp": plan_fingerprint(plan),
        "n_shards": plan.n_shards,
        "n_epochs": plan.n_epochs,
        "completed_epochs": completed_epochs,
        "allocations": list(allocations),
        "ledger": ledger,
        "sink_dir": sink_dir,
        "shards": shard_entries,
    })
    # The manifest rename committed this checkpoint; the previous one's
    # shard pickles are now unreferenced.
    prune_stale(directory, {e["file"] for e in shard_entries.values()})
