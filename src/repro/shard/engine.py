"""The sharded simulation engine: N independent shards, one task each.

:func:`run_sharded` drives a :class:`~repro.shard.plan.ShardPlan` to
completion by handing one :func:`~repro.shard.worker.run_shard` task
per unfinished shard, in index order, to
:func:`repro.common.fanout.fan_out` — the fan-out it shares with the
experiment runner.  ``jobs`` processes compute, the calling one
included: ``jobs - 1`` pool workers are forked and every process claims
the next shard as it frees up (``jobs=1`` calls the same function
inline, no pool).  A task runs its shard from its seed to its result
row and drops the state before its process claims the next one, so a
process holds one shard at a time.

Each shard's trajectory depends only on ``(plan, shard_index)`` — its
derived seed and its fixed cache slice — and the engine reads results
back in index order, so rows and spill bytes are bit-identical for
every ``jobs`` value.  Every shard checks its own memory budget as it
finishes: a breach fails the shard by name.

The scale features (DESIGN.md §14) are :func:`run_sharded`'s options:
streamed per-flow rows (``sink_dir``) and resume that keeps finished
shards (``checkpoint_dir`` / ``resume_from``).  A shard's exception
surfaces as :class:`~repro.shard.worker.ShardError` naming the lowest
failing shard; no further shard is claimed, and no process is still
writing when the error reaches the caller.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Optional

from repro.common.fanout import TaskError, fan_out
from repro.obs.rss import peak_rss_bytes, reset_peak_rss
from repro.shard.checkpoint import (
    CheckpointError,
    commit_shard,
    resume_point,
    spill_name,
    start_checkpoint,
)
from repro.shard.plan import ShardPlan
from repro.shard.sink import merge_spills
from repro.shard.worker import run_shard

#: Merged result-row artifact written into ``sink_dir`` after a run.
MERGED_SPILL_NAME = "flows.jsonl"


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
    *,
    sink_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> dict:
    """Run a sharded workload; returns the shard rows and their total.

    ``jobs`` is purely an execution knob: the number of processes that
    compute, the caller included (``>= 1``, clamped to ``n_shards``);
    any value produces bit-identical ``rows``.  Wall-clock and RSS
    figures (``wall_s``, ``events_per_s``, ``rss``) are reported next
    to — never inside — the deterministic payload, as is
    ``worker_pids``, the forked processes that ran a shard.  ``rss`` is
    the parent's peak (the kernel's high-water mark over its own shards,
    the rest of the run and the merge), the sum of those workers' peaks
    (0 when none ran a shard) and their total; ``None`` off-Linux.

    ``sink_dir``
        stream each flow's result row, as the flow closes, to its
        shard's JSONL spill file (memory-bounded results); merged into
        ``flows.jsonl`` at the end.
    ``checkpoint_dir``
        every shard commits its result row there when it finishes; the
        directory can seed ``resume_from`` later.
    ``resume_from``
        continue from a checkpoint directory written by a previous run
        of the *same plan* (any ``jobs`` value): shards with a committed
        row are not run again (``resumed_shards`` counts them), the rest
        run from their seeds; rows and spill files come out
        bit-identical to the uninterrupted run.
    ``profile_dir``
        the enclosing run's profile directory: with ``jobs > 1`` a shard
        task dumps a cProfile to
        ``<profile_dir>/shards/shard-NNN-pidNNN.pstats``, mergeable with
        ``tools/profile_top.py`` — unless its process is profiled
        already: the caller's shards under ``--profile`` land in the
        experiment's own profile, and with ``jobs=1`` all of them do.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, plan.n_shards)
    started = time.perf_counter()

    # -- resolve fresh-start vs resume ---------------------------------
    entries: dict[str, dict] = {}
    if resume_from is not None:
        resume_from = os.path.abspath(resume_from)
        manifest = resume_point(resume_from, plan)
        entries = manifest["shards"]
        if sink_dir is None:
            sink_dir = manifest["sink_dir"]
        elif os.path.abspath(sink_dir) != manifest["sink_dir"]:
            raise CheckpointError(
                f"checkpoint streamed results to {manifest['sink_dir']!r}; "
                f"resume must use the same sink_dir, not {sink_dir!r}"
            )
    if sink_dir is not None:
        sink_dir = os.path.abspath(sink_dir)
        os.makedirs(sink_dir, exist_ok=True)
    if checkpoint_dir is not None:
        checkpoint_dir = os.path.abspath(checkpoint_dir)
        os.makedirs(checkpoint_dir, exist_ok=True)
        if checkpoint_dir != resume_from:
            # The finished shards carry over into the new directory.
            start_checkpoint(checkpoint_dir, plan, sink_dir)
            for index, entry in entries.items():
                commit_shard(checkpoint_dir, int(index), entry)
    shard_profiles = None
    if profile_dir is not None and jobs > 1:
        shard_profiles = os.path.join(os.path.abspath(profile_dir), "shards")
        os.makedirs(shard_profiles, exist_ok=True)

    tasks = [
        (plan, index, sink_dir, checkpoint_dir, shard_profiles)
        for index in range(plan.n_shards) if str(index) not in entries
    ]
    reset_peak_rss()
    try:
        # The lowest failing shard is the one reported; no shard is
        # claimed after a failure and running ones finish (and commit)
        # first, so nothing writes after the raise.
        results = fan_out(run_shard, tasks, jobs)
    except TaskError as failure:
        # A shard task names its own failure (ShardError: shard and
        # simulated time) — that is the engine's error.
        raise failure.__cause__
    wall_s = time.perf_counter() - started

    done = {int(index): entry["row"] for index, entry in entries.items()}
    done.update((task[1], out["row"]) for task, out in zip(tasks, results))
    rows = [done[index] for index in range(plan.n_shards)]
    peaks: dict[int, int] = {}
    for out in results:
        peaks[out["pid"]] = max(peaks.get(out["pid"], 0), out["peak_rss_bytes"])
    # The caller runs shards too: its own tasks' peaks belong to the
    # parent, the rest to the pool workers.
    inline_peak = peaks.pop(os.getpid(), 0)

    total = total_row("total", rows)
    rows.append(total)

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
    rss = None
    # Each of the caller's own tasks restarts the mark, so this read
    # covers its last task and what followed; the others are folded in.
    parent_peak = peak_rss_bytes()
    if parent_peak is not None:
        parent_peak = max(parent_peak, inline_peak)
        worker_peak = sum(peaks.values())
        rss = {
            "parent_peak_mib": parent_peak / mib,
            "worker_peak_mib": worker_peak / mib,
            "total_peak_mib": (parent_peak + worker_peak) / mib,
        }
    return {
        "rows": rows,
        "events_executed": total["events"],
        "completed": total["completed"],
        "jobs": jobs,
        "worker_pids": sorted(peaks),  # the other processes that ran shards
        "wall_s": wall_s,
        "events_per_s": total["events"] / wall_s if wall_s > 0 else 0.0,
        "resumed_shards": len(entries),
        # What crosses the process boundary: task arguments out, task
        # results back (counted the same way for an inline run).
        "exchange_payload_bytes": sum(len(pickle.dumps(t)) for t in tasks),
        "exchange_report_bytes": sum(len(pickle.dumps(o)) for o in results),
        "sink": sink_info,
        "rss": rss,
    }
