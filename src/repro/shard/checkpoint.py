"""Per-shard checkpoint/resume for sharded runs.

A sharded run longer than a process (or a machine lease) must be able to
die anywhere and continue later as if nothing happened.  A shard is a
pure function of ``(plan, index)`` that runs from its seed to its
horizon in one go, so a kill leaves two kinds of shard:

* *finished* — its task committed an entry holding its result row and
  the byte count of its spill file; it is never run again;
* *not finished* — no entry; it runs again from its seed and rewrites
  its spill from byte 0.

No simulation object is ever persisted, so the format does not move
with per-packet state.  On-disk layout (one directory per run)::

    manifest.json            # run header, written once before any shard
    shard-000.json           # shard 0's entry: its atomic commit point
    shard-002.json

Every file is written tmp + fsync + rename, and a shard commits only
after its spill file is complete, so a crash mid-commit leaves the shard
without an entry — never a torn one.  Resume refuses, by name, a
directory of another plan or format, an incomplete or invalid entry,
and a finished shard whose spill is missing or shorter than its entry
records (a longer one is cut back: those bytes were never committed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional

from repro.shard.plan import ShardPlan

#: Manifest schema version; bumped on incompatible layout changes.
CHECKPOINT_FORMAT = 10

MANIFEST_NAME = "manifest.json"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, corrupt, or mismatched."""


def plan_fingerprint(plan: ShardPlan) -> str:
    """Stable digest of every plan field (resume refuses a changed plan)."""
    payload = json.dumps(
        dataclasses.asdict(plan), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def shard_entry_name(index: int) -> str:
    return f"shard-{index:03d}.json"


def spill_name(index: int) -> str:
    """Per-shard result spill file name inside a run's sink directory."""
    return f"flows-{index:03d}.jsonl"


# ----------------------------------------------------------------------
# Durable JSON files
# ----------------------------------------------------------------------

def _write_json(path: str, payload: dict) -> None:
    """Temp file + fsync + rename: a crash mid-write cannot leave a
    plausible-looking truncated file under the final name."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")).encode())
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"no {what} at {path!r}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(
            f"{what} {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{what} {path!r} must be a JSON object")
    return payload


def commit_shard(directory: str, index: int, entry: dict) -> None:
    """Commit one finished shard: ``{"row": ..., "spill_bytes": ...}``."""
    _write_json(os.path.join(directory, shard_entry_name(index)), entry)


# ----------------------------------------------------------------------
# Run header (written by the engine) and the assembled manifest
# ----------------------------------------------------------------------

def start_checkpoint(
    directory: str, plan: ShardPlan, sink_dir: Optional[str]
) -> None:
    """Claim ``directory`` for a fresh run of ``plan``.

    Whatever an earlier run left there is removed *before* the header is
    replaced, so no moment exists at which the new header vouches for
    another run's shard entries.
    """
    for name in os.listdir(directory):
        if name.startswith("shard-"):
            os.remove(os.path.join(directory, name))
    _write_json(os.path.join(directory, MANIFEST_NAME), {
        "format": CHECKPOINT_FORMAT,
        "plan_fp": plan_fingerprint(plan),
        "n_shards": plan.n_shards,
        "sink_dir": sink_dir,
    })


def _valid_entry(entry: dict, index: int, sink_dir: Optional[str]) -> bool:
    row, spill_bytes = entry.get("row"), entry.get("spill_bytes")
    if sink_dir is None:
        spilled = spill_bytes is None
    else:
        spilled = type(spill_bytes) is int and spill_bytes >= 0
    return isinstance(row, dict) and row.get("shard") == index and spilled


def load_manifest(directory: str) -> dict:
    """The run header plus every committed shard entry.

    ``manifest["shards"]`` maps ``str(index)`` to the shard's entry;
    shards that did not finish are absent.
    """
    manifest = _read_json(
        os.path.join(directory, MANIFEST_NAME), "checkpoint manifest"
    )
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format')!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    for key in ("plan_fp", "n_shards", "sink_dir"):
        if key not in manifest:
            raise CheckpointError(f"checkpoint manifest missing {key!r}")
    shards = {}
    for index in range(manifest["n_shards"]):
        path = os.path.join(directory, shard_entry_name(index))
        if os.path.exists(path):
            entry = _read_json(path, "checkpoint shard entry")
            if not _valid_entry(entry, index, manifest["sink_dir"]):
                raise CheckpointError(
                    f"checkpoint shard entry {path!r} is incomplete or "
                    f"invalid"
                )
            shards[str(index)] = entry
    manifest["shards"] = shards
    return manifest


def resume_point(directory: str, plan: ShardPlan) -> dict:
    """Load a manifest for ``run_sharded(resume_from=...)``, refusing
    one that does not belong to ``plan`` or whose finished shards'
    spills are not all on disk."""
    manifest = load_manifest(directory)
    if manifest["plan_fp"] != plan_fingerprint(plan):
        raise CheckpointError(
            "checkpoint belongs to a different plan (fingerprint mismatch)"
        )
    sink_dir = manifest["sink_dir"]
    if sink_dir is None:
        return manifest
    for index, entry in manifest["shards"].items():
        path = os.path.join(sink_dir, spill_name(int(index)))
        size = os.path.getsize(path) if os.path.exists(path) else 0
        committed = entry["spill_bytes"]
        if size < committed:
            raise CheckpointError(
                f"spill file {path!r} is missing or short: {size} of the "
                f"{committed} bytes its shard committed"
            )
        if size > committed:
            os.truncate(path, committed)
    return manifest
