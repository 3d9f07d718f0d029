"""Scale machinery of the sharded engine (DESIGN.md §14).

Three mechanisms carry :mod:`repro.shard` from 10⁴ to 10⁵ flows, and
each has a determinism obligation these tests pin:

* **streamed results** — spilling each flow's row to per-shard JSONL as
  it closes must not change a single byte of the rows or the merged
  flow file, for any buffer size or ``jobs`` value;
* **checkpoint/resume** — a run killed with some shards finished and
  resumed (at any ``jobs`` value) must run only the unfinished shards
  again and reproduce the uninterrupted run bit for bit, spill files
  included; mismatched or old-format checkpoints, bad entries and short
  spills must be refused loudly;
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
from repro.shard import worker
from repro.shard.worker import _ShardState

#: Small plan with every moving part alive: four shards (one faulted),
#: enough arrivals that spills have real rows.
PLAN = ShardPlan(n_shards=4, arrivals_per_shard=12, drain_s=2.0)


def _payload(result: dict) -> str:
    return json.dumps(result["rows"], sort_keys=True)


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
    path.write_bytes(b"left by an earlier run\n")
    writer.write({"a": 1})
    writer.write({"a": 2})
    # Nothing durable yet: buffer below bound, the old file untouched.
    assert path.read_bytes() == b"left by an earlier run\n"
    offset = writer.flush()
    assert offset == path.stat().st_size > 0
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


def _fail_shard(monkeypatch, failing) -> None:
    """Shards in ``failing`` die half a simulated second into their run
    (patched before any fork, so worker processes inherit it)."""
    run = _ShardState.run

    def dies(self):
        if self.index not in failing:
            return run(self)
        self.sim.run(until=0.5)
        raise ValueError("injected failure")

    monkeypatch.setattr(_ShardState, "run", dies)


def _count_builds(monkeypatch, log) -> None:
    """Log every shard built, whichever process builds it."""
    build = _ShardState.__init__

    def counting(self, plan, index, sink_dir=None):
        with open(log, "a") as fh:
            fh.write(f"{index}\n")
        build(self, plan, index, sink_dir)

    monkeypatch.setattr(_ShardState, "__init__", counting)


def _built(log) -> list[int]:
    return sorted(map(int, log.read_text().split())) if log.exists() else []


#: Eight shards, for kills that leave finished and unfinished ones.
PLAN8 = ShardPlan(n_shards=8, arrivals_per_shard=12, drain_s=2.0)


@pytest.fixture(scope="module")
def baseline8(tmp_path_factory):
    sink = tmp_path_factory.mktemp("baseline8-sink")
    return run_sharded(PLAN8, jobs=1, sink_dir=str(sink))


@pytest.mark.parametrize("jobs", [1, 2])
def test_kill_then_resume_reruns_only_unfinished_shards(
    baseline8, monkeypatch, tmp_path, jobs
):
    """A shard dies mid-run: only finished shards hold an entry, nothing
    else is saved, and resume at jobs 1 or 2 runs just the others from
    their seeds — reproducing the uninterrupted run byte for byte."""
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    _fail_shard(monkeypatch, {3})
    with pytest.raises(ShardError) as excinfo:
        run_sharded(PLAN8, jobs=jobs, sink_dir=sink, checkpoint_dir=ckpt)
    assert (excinfo.value.shard, excinfo.value.at_s) == (3, 0.5)
    monkeypatch.undo()

    finished = sorted(map(int, load_manifest(ckpt)["shards"]))
    # Shards claimed before the failure finish and commit; it never does.
    assert {0, 1, 2} <= set(finished) and 3 not in finished
    assert sorted(os.listdir(ckpt)) == ["manifest.json"] + [
        f"shard-{index:03d}.json" for index in finished
    ]
    assert not list(tmp_path.rglob("*.pkl"))
    unfinished = sorted(set(range(PLAN8.n_shards)) - set(finished))

    for resume_jobs in (1, 2):
        # Rows an unfinished shard left behind are not committed: they
        # do not survive its re-run.
        with open(os.path.join(sink, spill_name(3)), "ab") as fh:
            fh.write(b'{"garbage":true}\n')
        log = tmp_path / f"built-{resume_jobs}"
        _count_builds(monkeypatch, log)
        resumed = run_sharded(PLAN8, jobs=resume_jobs, resume_from=ckpt)
        monkeypatch.undo()
        assert _built(log) == unfinished
        assert resumed["resumed_shards"] == len(finished)
        assert _payload(resumed) == _payload(baseline8)
        assert _merged_bytes(resumed) == _merged_bytes(baseline8)


def test_resume_after_final_epoch_is_a_noop(baseline, monkeypatch, tmp_path):
    """Every shard committed: resume builds none and returns the rows."""
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    full = run_sharded(PLAN, jobs=1, sink_dir=sink, checkpoint_dir=ckpt)
    assert len(load_manifest(ckpt)["shards"]) == PLAN.n_shards
    log = tmp_path / "built"
    _count_builds(monkeypatch, log)
    resumed = run_sharded(PLAN, jobs=1, resume_from=ckpt)
    assert _built(log) == []
    assert resumed["resumed_shards"] == PLAN.n_shards
    assert resumed["exchange_payload_bytes"] == 0
    assert _payload(resumed) == _payload(full) == _payload(baseline)
    assert _merged_bytes(resumed) == _merged_bytes(baseline)


@pytest.mark.parametrize("jobs", [1, 2])
def test_mixed_state_kill_then_resume_bit_identical(
    baseline, monkeypatch, tmp_path, jobs
):
    """A kill leaves shards finished and unfinished; resuming into a new
    checkpoint directory carries the finished ones over."""
    sink, ckpt = str(tmp_path / "sink"), str(tmp_path / "ckpt")
    _fail_shard(monkeypatch, {2})
    with pytest.raises(ShardError) as excinfo:
        run_sharded(PLAN, jobs=1, sink_dir=sink, checkpoint_dir=ckpt)
    assert excinfo.value.shard == 2
    monkeypatch.undo()

    shards = load_manifest(ckpt)["shards"]
    assert sorted(shards) == ["0", "1"]  # shard 3 never started
    for index in "01":
        assert shards[index]["row"] == baseline["rows"][int(index)]
        assert shards[index]["spill_bytes"] == os.path.getsize(
            os.path.join(sink, spill_name(int(index)))
        )

    log = tmp_path / "built"
    _count_builds(monkeypatch, log)
    ckpt2 = str(tmp_path / "ckpt2")
    resumed = run_sharded(
        PLAN, jobs=jobs, resume_from=ckpt, checkpoint_dir=ckpt2
    )
    assert _built(log) == [2, 3]
    assert resumed["resumed_shards"] == 2
    assert _payload(resumed) == _payload(baseline)
    assert _merged_bytes(resumed) == _merged_bytes(baseline)
    # The run's own checkpoint directory is complete: finished shards
    # were carried over, so resuming from it runs nothing at all.
    log.unlink()
    again = run_sharded(PLAN, jobs=1, resume_from=ckpt2)
    assert _built(log) == []
    assert again["resumed_shards"] == PLAN.n_shards
    assert _payload(again) == _payload(baseline)


def test_resume_refuses_a_different_plan(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    run_sharded(PLAN, jobs=1, checkpoint_dir=ckpt)
    other = ShardPlan(n_shards=4, arrivals_per_shard=12, drain_s=2.0, seed=9)
    with pytest.raises(CheckpointError, match="fingerprint"):
        run_sharded(other, jobs=1, resume_from=ckpt)


def test_resume_refuses_a_short_spill_or_a_bad_entry(tmp_path):
    """A finished shard's spill must hold the bytes its entry committed
    (longer is cut back), and an entry must be a whole one."""
    sink, ckpt = tmp_path / "sink", str(tmp_path / "ckpt")
    run_sharded(PLAN, jobs=1, sink_dir=str(sink), checkpoint_dir=ckpt)
    spill = sink / spill_name(1)
    committed = spill.read_bytes()
    spill.write_bytes(committed + b"after the commit\n")
    resume_point(ckpt, PLAN)
    assert spill.read_bytes() == committed

    spill.write_bytes(committed[:-1])
    refusal = rf"spill file .*{spill_name(1)}.* is missing or short: " + (
        rf"{len(committed) - 1} of the {len(committed)} bytes"
    )
    with pytest.raises(CheckpointError, match=refusal):
        run_sharded(PLAN, jobs=1, resume_from=ckpt)
    spill.unlink()
    with pytest.raises(CheckpointError, match=rf"{spill_name(1)}.* 0 of"):
        resume_point(ckpt, PLAN)
    spill.write_bytes(committed)

    entry_path = os.path.join(ckpt, "shard-002.json")
    with open(entry_path) as fh:
        entry = json.load(fh)
    for bad in ({"row": entry["row"]}, {**entry, "row": None},
                {**entry, "row": {**entry["row"], "shard": 3}},
                {**entry, "spill_bytes": -1}):
        with open(entry_path, "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(CheckpointError, match="shard-002.json.* invalid"):
            run_sharded(PLAN, jobs=1, resume_from=ckpt)


def test_resume_refuses_corrupt_manifest(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    run_sharded(PLAN, jobs=1, checkpoint_dir=ckpt)
    manifest_path = os.path.join(ckpt, "manifest.json")
    # The directory as the previous builds wrote it is refused by name:
    # format 9 (entries pointing at pickled in-progress shards, resend
    # guards as sorted arrays), format 8 (the same header, but all-double
    # cache slots and resend guards kept as dicts), format 7 (a cache
    # pickled as one array per block and resend guards keyed by tuples),
    # format 6 (cache blocks as slotted objects) and format 5 (finished
    # entries that still carry trace counts, and the state layout before
    # that).
    with open(manifest_path) as fh:
        header = json.load(fh)
    assert header["format"] == 10
    for old_format in (9, 8, 7, 6, 5):
        with open(manifest_path, "w") as fh:
            json.dump({**header, "format": old_format}, fh)
        refusal = (
            rf"unsupported checkpoint format {old_format} "
            r"\(this build reads format 10\)"
        )
        with pytest.raises(CheckpointError, match=refusal):
            resume_point(ckpt, PLAN)
        with pytest.raises(CheckpointError, match=refusal):
            run_sharded(PLAN, jobs=1, resume_from=ckpt)
    # A directory written by the epoch-barrier engine (format 2: one
    # manifest naming every shard's pickle) is refused by name, not
    # resumed into an AttributeError.
    stale = {
        "format": 2,
        "plan_fp": plan_fingerprint(PLAN),
        "n_shards": PLAN.n_shards,
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
    refusal = r"unsupported checkpoint format 2 \(this build reads format 10\)"
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
    _fail_shard(monkeypatch, {2})
    with pytest.raises(ShardError) as excinfo:
        run_sharded(PLAN, jobs=jobs)
    assert excinfo.value.shard == 2
    assert excinfo.value.at_s == 0.5
    assert str(excinfo.value) == (
        "shard 2 failed at t=0.5s: ValueError: injected failure"
    )

    monkeypatch.undo()
    ok = run_sharded(PLAN, jobs=jobs)
    total = ok["rows"][-1]
    assert total["completed"] + total["aborted"] == total["arrivals"]


def test_lowest_failing_shard_wins_and_nothing_writes_after_the_raise(
    monkeypatch, tmp_path
):
    """Two shards fail on two workers: the engine reports the lower one,
    and by then every worker has stopped touching the run's directories."""
    _fail_shard(monkeypatch, {1, 3})
    with pytest.raises(ShardError) as excinfo:
        run_sharded(
            PLAN, jobs=2, sink_dir=str(tmp_path / "sink"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
    assert (excinfo.value.shard, excinfo.value.at_s) == (1, 0.5)

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


@pytest.mark.skipif(
    not os.path.exists("/proc/self/clear_refs"), reason="Linux /proc only"
)
def test_task_peak_rss_is_the_whole_tasks_high_water_mark(monkeypatch):
    """Memory a shard holds only in the middle of its run counts in its
    own peak, and in no later task's."""
    from repro.common.fanout import fan_out

    tasks = []

    def recording(*args):
        tasks.extend(fan_out(*args))
        return tasks

    run = _ShardState.run

    def spikes(self):
        if self.index == 1:
            spike = bytearray(b"\x01") * (64 << 20)  # every page touched
            del spike
        return run(self)

    monkeypatch.setattr("repro.shard.engine.fan_out", recording)
    monkeypatch.setattr(_ShardState, "run", spikes)
    run_sharded(PLAN, jobs=1)
    peaks = [task["peak_rss_bytes"] for task in tasks]
    others = max(peaks[0], *peaks[2:])
    assert peaks[1] - others > 48 << 20


def test_a_serial_run_starts_no_thread(monkeypatch):
    """The parent's peak RSS is the kernel's high-water mark, not a
    sampler: a ``jobs=1`` run starts no thread."""
    started = []
    monkeypatch.setattr(
        threading.Thread, "start", lambda thread: started.append(thread.name)
    )
    run = run_sharded(PLAN, jobs=1)
    assert started == []
    assert run["rss"] is None or run["rss"]["parent_peak_mib"] > 0
