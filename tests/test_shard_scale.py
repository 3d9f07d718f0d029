"""Scale machinery of the sharded engine (DESIGN.md §14).

Three mechanisms carry :mod:`repro.shard` from 10⁴ to 10⁵ flows, and
each has a determinism obligation these tests pin:

* **streamed results** — spilling closed flows to per-shard JSONL must
  not change a single byte of the rows, the ledger, or the merged flow
  file, for any buffer size or ``jobs`` value;
* **checkpoint/resume** — a run killed between checkpoints and resumed
  (with a *different* ``jobs`` value) must reproduce the uninterrupted
  run bit for bit, spill files included, whether the kill left every
  shard mid-run or a mix of finished, mid-run and unstarted ones;
  corrupt, mismatched or old-format checkpoints must be refused loudly;
* **process boundary** — the byte counters count exactly the task
  arguments that go out and the results that come back.

Plus the error path: a failing shard must surface as
:class:`~repro.shard.ShardError` naming the shard, and the engine must
come back clean — no leftover sampler thread — for the next run.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time

import pytest

from repro.shard import (
    CheckpointError,
    ShardError,
    ShardPlan,
    SpillWriter,
    iter_jsonl,
    load_manifest,
    merge_spills,
    plan_fingerprint,
    resume_point,
    run_sharded,
    spill_name,
)
from repro.core.cache import INLINE_PIECES
from repro.shard.checkpoint import load_shard
from repro.shard.sink import truncate_file
from repro.shard import worker
from repro.shard.worker import _ShardState

#: Small plan with every moving part alive: four shards (one faulted),
#: five ledger epochs, enough arrivals that spills have real rows.
PLAN = ShardPlan(n_shards=4, arrivals_per_shard=12, drain_s=2.0)


def _payload(result: dict) -> str:
    return json.dumps(
        {"rows": result["rows"], "ledger": result["ledger"]}, sort_keys=True
    )


def _merged_bytes(result: dict) -> bytes:
    with open(result["sink"]["merged_path"], "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted streamed run: the reference for every resume."""
    sink = tmp_path_factory.mktemp("baseline-sink")
    out = run_sharded(PLAN, jobs=1, sink_dir=str(sink))
    return out


# ----------------------------------------------------------------------
# SpillWriter: the bounded-buffer JSONL primitive
# ----------------------------------------------------------------------


def test_spill_writer_lazy_open_and_durable_offsets(tmp_path):
    path = tmp_path / "rows.jsonl"
    writer = SpillWriter(path, buffer_bytes=1 << 20)
    writer.write({"a": 1})
    writer.write({"a": 2})
    assert not path.exists()  # nothing durable yet: buffer below bound
    assert writer.tell() == 0
    offset = writer.flush()
    assert offset == path.stat().st_size > 0
    assert writer.tell() == offset
    assert writer.close() == offset
    assert [r["a"] for r in iter_jsonl(path)] == [1, 2]


def test_spill_writer_bytes_independent_of_buffer_size(tmp_path):
    records = [{"idx": i, "flow": f"f{i:03d}", "x": i * 0.5} for i in range(50)]
    paths = []
    for buffer_bytes in (0, 64, 1 << 20):
        path = tmp_path / f"buf{buffer_bytes}.jsonl"
        writer = SpillWriter(path, buffer_bytes=buffer_bytes)
        for record in records:
            writer.write(record)
        writer.close()
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_spill_writer_pickle_requires_flush_then_appends(tmp_path):
    path = tmp_path / "rows.jsonl"
    writer = SpillWriter(path, buffer_bytes=1 << 20)
    writer.write({"n": 0})
    with pytest.raises(RuntimeError, match="unflushed"):
        pickle.dumps(writer)
    writer.flush()
    restored = pickle.loads(pickle.dumps(writer))
    writer.close()
    restored.write({"n": 1})
    restored.close()
    assert [r["n"] for r in iter_jsonl(path)] == [0, 1]
    assert restored.records_written == 2


def test_truncate_file_edge_cases(tmp_path):
    path = tmp_path / "spill.jsonl"
    # Missing file at offset 0 is fine; at a positive offset it is not.
    assert truncate_file(path, 0) == 0
    with pytest.raises(FileNotFoundError):
        truncate_file(path, 10)
    path.write_bytes(b"0123456789")
    assert truncate_file(path, 4) == 6
    assert path.read_bytes() == b"0123"
    with pytest.raises(ValueError):
        truncate_file(path, 400)  # shorter than the recorded offset


def test_merge_spills_orders_and_skips_missing(tmp_path):
    (tmp_path / "a.jsonl").write_bytes(b'{"s":0}\n')
    (tmp_path / "c.jsonl").write_bytes(b'{"s":2}\n')
    out = tmp_path / "merged.jsonl"
    total = merge_spills(
        [tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"],
        out,
    )
    assert total == out.stat().st_size
    assert [r["s"] for r in iter_jsonl(out)] == [0, 2]


# ----------------------------------------------------------------------
# Process boundary: the counters count what crosses
# ----------------------------------------------------------------------


def test_exchange_bytes_count_task_arguments_and_results(monkeypatch):
    crossed = []
    original = worker.run_shard

    def recording(*task):
        crossed.append((task, original(*task)))
        return crossed[-1][1]

    # The engine resolves the task through its own module namespace.
    monkeypatch.setattr("repro.shard.engine.run_shard", recording)
    out = run_sharded(PLAN, jobs=1)
    assert [task[1] for task, _ in crossed] == list(range(PLAN.n_shards))
    assert out["exchange_payload_bytes"] == sum(
        len(pickle.dumps(task)) for task, _ in crossed
    )
    assert out["exchange_report_bytes"] == sum(
        len(pickle.dumps(result)) for _, result in crossed
    )
    assert 0 < out["exchange_report_bytes"] < 4096 * PLAN.n_shards


# ----------------------------------------------------------------------
# Streamed results: spilling never changes the deterministic payload
# ----------------------------------------------------------------------


def test_streamed_rows_match_unspilled_and_jobs_invariant(baseline, tmp_path):
    unspilled = run_sharded(PLAN, jobs=1)
    assert _payload(baseline) == _payload(unspilled)

    two = run_sharded(PLAN, jobs=2, sink_dir=str(tmp_path / "sink2"))
    assert _payload(baseline) == _payload(two)
    assert _merged_bytes(baseline) == _merged_bytes(two)

    # Every arrival ends closed, so it appears exactly once in the merge.
    records = list(iter_jsonl(baseline["sink"]["merged_path"]))
    assert len(records) == PLAN.n_shards * PLAN.arrivals_per_shard
    assert baseline["sink"]["merged_bytes"] == len(_merged_bytes(baseline))


# ----------------------------------------------------------------------
# Checkpoint/resume: kill-then-resume reproduces the run bit for bit
# ----------------------------------------------------------------------


def test_kill_between_checkpoints_then_resume_bit_identical(
    baseline, tmp_path
):
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    partial = run_sharded(
        PLAN, jobs=1, sink_dir=sink, checkpoint_dir=ckpt,
        checkpoint_every=2, stop_after_epoch=2,
    )
    assert partial["stopped_after_epoch"] == 2
    assert partial["completed_epochs"] == 3
    # The stop landed *past* the last committed checkpoint: resume must
    # rewind the spills to the epoch-2 boundary the manifest recorded.
    manifest = load_manifest(ckpt)
    assert manifest["completed_epochs"] == 2
    spill_path = os.path.join(sink, spill_name(0))
    if os.path.exists(spill_path):
        assert os.path.getsize(spill_path) >= manifest["shards"]["0"][
            "spill_offset"
        ]

    resumed = run_sharded(PLAN, jobs=2, resume_from=ckpt)
    assert resumed["resumed_from_epoch"] == 2
    assert _payload(resumed) == _payload(baseline)
    assert _merged_bytes(resumed) == _merged_bytes(baseline)


def test_resume_from_first_boundary(baseline, tmp_path):
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    partial = run_sharded(
        PLAN, jobs=1, sink_dir=sink, checkpoint_dir=ckpt,
        checkpoint_every=1, stop_after_epoch=0,
    )
    assert partial["completed_epochs"] == 1
    assert load_manifest(ckpt)["completed_epochs"] == 1
    resumed = run_sharded(PLAN, jobs=1, resume_from=ckpt)
    assert resumed["resumed_from_epoch"] == 1
    assert _payload(resumed) == _payload(baseline)
    assert _merged_bytes(resumed) == _merged_bytes(baseline)


def test_resume_after_final_epoch_is_a_noop(baseline, tmp_path):
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    full = run_sharded(PLAN, jobs=1, sink_dir=sink, checkpoint_dir=ckpt)
    assert load_manifest(ckpt)["completed_epochs"] == PLAN.n_epochs
    resumed = run_sharded(PLAN, jobs=1, resume_from=ckpt)
    assert resumed["resumed_from_epoch"] == PLAN.n_epochs
    assert _payload(resumed) == _payload(full) == _payload(baseline)
    assert _merged_bytes(resumed) == _merged_bytes(baseline)


@pytest.mark.parametrize("jobs", [1, 2])
def test_mixed_state_kill_then_resume_bit_identical(
    baseline, monkeypatch, tmp_path, jobs
):
    """A real kill leaves shards finished, mid-run and unstarted."""
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    original = _ShardState.run_epoch

    def boom(self, epoch):
        if self.index == 2 and epoch == 3:
            raise ValueError("injected failure")
        return original(self, epoch)

    monkeypatch.setattr(_ShardState, "run_epoch", boom)
    with pytest.raises(ShardError) as excinfo:
        run_sharded(
            PLAN, jobs=1, sink_dir=sink, checkpoint_dir=ckpt,
            checkpoint_every=2,
        )
    assert (excinfo.value.shard, excinfo.value.epoch) == (2, 3)
    monkeypatch.undo()

    manifest = load_manifest(ckpt)
    shards = manifest["shards"]
    assert sorted(shards) == ["0", "1", "2"]  # shard 3 never started
    assert manifest["completed_epochs"] == 0
    for index in "01":
        assert shards[index]["completed_epochs"] == PLAN.n_epochs
        assert shards[index]["result"] is not None
        assert shards[index]["file"] is None
    assert shards["2"]["completed_epochs"] == 2
    assert shards["2"]["result"] is None
    # Only the mid-run shard still owns a pickle; its spill ran on to
    # epoch 3 and is rewound to the offset committed at epoch 2.
    pickles = [n for n in os.listdir(ckpt) if n.endswith(".pkl")]
    assert pickles == [shards["2"]["file"]]
    assert os.path.getsize(os.path.join(sink, spill_name(2))) >= shards["2"][
        "spill_offset"
    ]

    built = tmp_path / "built"
    original_init = _ShardState.__init__

    def counting(self, plan, index):
        # A file, not a list: whichever process builds the shard logs it.
        with open(built, "a") as fh:
            fh.write(f"{index}\n")
        original_init(self, plan, index)

    monkeypatch.setattr(_ShardState, "__init__", counting)
    ckpt2 = str(tmp_path / "ckpt2")
    resumed = run_sharded(
        PLAN, jobs=jobs, resume_from=ckpt, checkpoint_dir=ckpt2
    )
    # Shards 0-1 are not run again and shard 2 unpickles; only shard 3 is
    # built, exactly once.
    assert built.read_text() == "3\n"
    assert resumed["resumed_from_epoch"] == 0
    assert _payload(resumed) == _payload(baseline)
    assert _merged_bytes(resumed) == _merged_bytes(baseline)
    # The run's own checkpoint directory is complete: finished shards
    # were carried over, so resuming from it runs nothing at all.
    built.unlink()
    again = run_sharded(PLAN, jobs=1, resume_from=ckpt2)
    assert not built.exists()
    assert again["resumed_from_epoch"] == PLAN.n_epochs
    assert _payload(again) == _payload(baseline)


def test_kill_while_a_cache_holds_a_materialised_block_then_resume(tmp_path):
    """Content-keyed blocks outlive their flows, so a later flow's
    re-store takes one out of order, and a cache slice this small evicts:
    the cut holds caches with materialised coverage, pieces past the
    inline ones, full blocks stored out of order (their coverage already
    dropped) and slots freed by eviction and taken again, and live flows
    whose resend guards took a range below their last — and resuming
    from it is still the uninterrupted run byte for byte."""
    plan = ShardPlan(
        n_shards=2, arrivals_per_shard=12, drain_s=2.0, n_objects=6,
        memory_ceiling_bytes=400_000, mean_size_bytes=60_000,
    )
    full = run_sharded(plan, jobs=1, sink_dir=str(tmp_path / "full"))
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    run_sharded(
        plan, jobs=1, sink_dir=sink, checkpoint_dir=ckpt,
        checkpoint_every=1, stop_after_epoch=0,
    )
    entries = load_manifest(ckpt)["shards"].values()
    states = [load_shard(ckpt, e["file"], e["digest"]) for e in entries]
    members = [m for state in states for m in state.pool.cache_pool.members]
    pieces = [p for m in members for *_, p in m.blocks()]
    assert any(len(p) > INLINE_PIECES for p in pieces)
    assert any(a[1] > b[0] for p in pieces for a, b in zip(p, p[1:]))
    # Full blocks stored out of order, which hold no coverage any more:
    # only the unfull out-of-order blocks keep theirs.
    out_of_order = [
        (m, covered) for m in members for *_, covered, _, _, p in m.blocks()
        if any(a[1] > b[0] for a, b in zip(p, p[1:]))
    ]
    assert any(covered == m.block_bytes for m, covered in out_of_order)
    assert sum(len(m._coverage) for m in members) == sum(
        covered < m.block_bytes for m, covered in out_of_order
    )
    # A guard's keys ascend; their times do not once a range was recorded
    # below the last one (an insert) or again (an update).
    guards = [
        flow.suppressor for state in states
        for node in (*state.pool.midnodes, state.pool.producer)
        for flow in node._flows.values()
    ]
    assert any(list(g._times) != sorted(g._times) for g in guards)
    # A block created after more blocks than the slab has slots sits in
    # a slot an evicted block gave back.
    assert any(
        m.stats.evictions and max(seq for *_, seq, _ in m.blocks())
        > len(m._prev) - 1
        for m in members
    )
    resumed = run_sharded(plan, jobs=2, resume_from=ckpt)
    assert resumed["resumed_from_epoch"] == 1
    assert _payload(resumed) == _payload(full)
    assert _merged_bytes(resumed) == _merged_bytes(full)


def test_resume_refuses_a_different_plan(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    run_sharded(
        PLAN, jobs=1, checkpoint_dir=ckpt,
        checkpoint_every=1, stop_after_epoch=0,
    )
    other = ShardPlan(n_shards=4, arrivals_per_shard=12, drain_s=2.0, seed=9)
    with pytest.raises(CheckpointError, match="fingerprint"):
        run_sharded(other, jobs=1, resume_from=ckpt)


def test_resume_refuses_corrupt_shard_pickle(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    run_sharded(
        PLAN, jobs=1, checkpoint_dir=ckpt,
        checkpoint_every=1, stop_after_epoch=0,
    )
    name = load_manifest(ckpt)["shards"]["1"]["file"]
    path = os.path.join(ckpt, name)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt"):
        run_sharded(PLAN, jobs=1, resume_from=ckpt)


def test_resume_refuses_corrupt_manifest(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    run_sharded(
        PLAN, jobs=1, checkpoint_dir=ckpt,
        checkpoint_every=1, stop_after_epoch=0,
    )
    manifest_path = os.path.join(ckpt, "manifest.json")
    # The directory as the previous builds wrote it is refused by name:
    # format 8 (the same header, but all-double cache slots and resend
    # guards kept as dicts), format 7 (a cache pickled as one array per
    # block and resend guards keyed by tuples), format 6 (cache blocks
    # as slotted objects) and format 5 (finished entries that still
    # carry trace counts, and the state layout before that).
    with open(manifest_path) as fh:
        header = json.load(fh)
    assert header["format"] == 9
    for old_format in (8, 7, 6, 5):
        with open(manifest_path, "w") as fh:
            json.dump({**header, "format": old_format}, fh)
        refusal = (
            rf"unsupported checkpoint format {old_format} "
            r"\(this build reads format 9\)"
        )
        with pytest.raises(CheckpointError, match=refusal):
            resume_point(ckpt, PLAN)
        with pytest.raises(CheckpointError, match=refusal):
            run_sharded(PLAN, jobs=1, resume_from=ckpt)
    # A directory written by the epoch-barrier engine (format 2: one
    # manifest naming every shard's pickle, whose layout has changed
    # since) is refused by name, not resumed into an AttributeError.
    stale = {
        "format": 2,
        "plan_fp": plan_fingerprint(PLAN),
        "n_shards": PLAN.n_shards,
        "n_epochs": PLAN.n_epochs,
        "completed_epochs": 1,
        "allocations": [6 << 20] * PLAN.n_shards,
        "ledger": [],
        "sink_dir": None,
        "shards": {
            str(i): {"file": f"shard-{i:03d}-e0001.pkl", "digest": "0" * 64,
                     "spill_offset": None}
            for i in range(PLAN.n_shards)
        },
    }
    with open(manifest_path, "w") as fh:
        json.dump(stale, fh)
    refusal = r"unsupported checkpoint format 2 \(this build reads format 9\)"
    with pytest.raises(CheckpointError, match=refusal):
        resume_point(ckpt, PLAN)
    with pytest.raises(CheckpointError, match=refusal):
        run_sharded(PLAN, jobs=1, resume_from=ckpt)
    with open(manifest_path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        run_sharded(PLAN, jobs=1, resume_from=ckpt)
    with pytest.raises(CheckpointError, match="manifest"):
        run_sharded(PLAN, jobs=1, resume_from=str(tmp_path / "nowhere"))


# ----------------------------------------------------------------------
# Error path: a failing shard is named, and the engine comes back clean
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_shard_error_names_failing_shard(monkeypatch, jobs):
    original = _ShardState.run_epoch

    def boom(self, epoch):
        if self.index == 2:
            raise ValueError("injected failure")
        return original(self, epoch)

    # Patched before the executors fork, so worker processes inherit it.
    monkeypatch.setattr(_ShardState, "run_epoch", boom)
    with pytest.raises(ShardError) as excinfo:
        run_sharded(PLAN, jobs=jobs)
    assert excinfo.value.shard == 2
    assert excinfo.value.epoch == 0
    assert "ValueError: injected failure" in str(excinfo.value)

    monkeypatch.undo()
    ok = run_sharded(PLAN, jobs=jobs)
    total = ok["rows"][-1]
    assert total["completed"] + total["aborted"] == total["arrivals"]


def test_lowest_failing_shard_wins_and_nothing_writes_after_the_raise(
    monkeypatch, tmp_path
):
    """Two shards fail on two workers: the engine reports the lower one,
    and by then every worker has stopped touching the run's directories."""
    original = _ShardState.run_epoch

    def boom(self, epoch):
        if self.index in (1, 3) and epoch == 1:
            raise ValueError("injected failure")
        return original(self, epoch)

    monkeypatch.setattr(_ShardState, "run_epoch", boom)
    with pytest.raises(ShardError) as excinfo:
        run_sharded(
            PLAN, jobs=2, sink_dir=str(tmp_path / "sink"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
    assert (excinfo.value.shard, excinfo.value.epoch) == (1, 1)

    def snapshot():
        return sorted(
            (str(path), path.stat().st_size, path.stat().st_mtime_ns)
            for path in tmp_path.rglob("*") if path.is_file()
        )

    before = snapshot()
    time.sleep(0.3)
    assert snapshot() == before


def test_rss_counts_the_caller_once(monkeypatch, shards_start_together):
    """At jobs=2 the caller runs shards beside one worker: its own tasks'
    peaks fold into the parent's, and only the worker's are added."""
    from repro.common.fanout import fan_out

    tasks = []

    def recording(*args):
        tasks.extend(fan_out(*args))
        return tasks

    monkeypatch.setattr("repro.shard.engine.fan_out", recording)
    run = run_sharded(PLAN, jobs=2)
    caller = os.getpid()
    theirs = {task["pid"] for task in tasks} - {caller}
    assert len(theirs) == 1 and run["worker_pids"] == sorted(theirs)
    mine = [t["peak_rss_bytes"] for t in tasks if t["pid"] == caller]
    worker = [t["peak_rss_bytes"] for t in tasks if t["pid"] != caller]
    rss, mib = run["rss"], 1 << 20
    assert rss["worker_peak_mib"] == max(worker) / mib
    assert rss["parent_peak_mib"] >= max(mine) / mib
    assert rss["total_peak_mib"] == pytest.approx(
        rss["parent_peak_mib"] + rss["worker_peak_mib"]
    )

    monkeypatch.undo()
    serial = run_sharded(PLAN, jobs=1)
    assert serial["worker_pids"] == [] and serial["rss"]["worker_peak_mib"] == 0
    assert serial["rss"]["total_peak_mib"] == serial["rss"]["parent_peak_mib"]


def _sampler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "rss-sampler"]


def test_no_sampler_thread_outlives_a_run(monkeypatch, tmp_path):
    """Early stop and ShardError both leave through the engine's finally."""
    assert not _sampler_threads()
    run_sharded(PLAN, jobs=1, stop_after_epoch=0)
    assert not _sampler_threads()

    def boom(self, epoch):
        raise ValueError("injected failure")

    monkeypatch.setattr(_ShardState, "run_epoch", boom)
    with pytest.raises(ShardError):
        run_sharded(PLAN, jobs=1)
    assert not _sampler_threads()
    monkeypatch.undo()

    with pytest.raises(CheckpointError):
        run_sharded(PLAN, jobs=1, resume_from=str(tmp_path / "nowhere"))
    assert not _sampler_threads()
