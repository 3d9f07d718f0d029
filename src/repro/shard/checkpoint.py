"""Per-shard checkpoint/resume for sharded runs.

A sharded run longer than a process (or a machine lease) must be able to
die anywhere and continue later as if nothing happened.  Shards run to
completion one at a time per worker, so a kill leaves three kinds of
shard, and each shard commits its own progress:

* *in progress* — captured as one whole
  :class:`~repro.shard.worker._ShardState` (live simulator heap, RNG
  streams, FlowPool records, cache occupancy, fault injector, ledger
  snapshots so far) serialised with :mod:`pickle`: every callback in
  the object graph is a bound method, a :func:`functools.partial` over
  one, or a named callable class; no closures.  Restoring the pickle
  into *any* process resumes the shard's trajectory bit-identically,
  for the same reason ``--shard-jobs`` never changes results: nothing
  in a shard's behaviour depends on process identity;
* *finished* — its result (row, ledger snapshots) is
  committed instead, and it is never run again;
* *not started* — no entry; it starts from scratch.

On-disk layout (one directory per run)::

    manifest.json            # run header, written once before any shard
    shard-000.json           # shard 0's entry: its atomic commit point
    shard-002.json
    shard-002-e0012.pkl      # the pickle an in-progress entry points at

Every file is written tmp + fsync + rename.  An entry is written *after*
its pickle is durable, and pickle names carry the epoch, so a crash
mid-commit leaves the previous entry pointing at the previous intact
pickle — never a torn checkpoint.  The entry records the pickle's
SHA-256; :func:`load_shard` refuses bytes that do not hash to it
(:class:`CheckpointError`), so corruption is detected before a
half-broken state can resume.

Every entry also records the durable byte offset of the shard's result
spill file (see :mod:`repro.shard.sink`): resume truncates the spill
back to it (to nothing for a shard that never committed), discarding
rows from the unreached epochs, which is what makes kill-then-resume
reproduce the uninterrupted row files byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from typing import Optional

from repro.shard.plan import ShardPlan

#: Manifest schema version; bumped on incompatible layout changes.
CHECKPOINT_FORMAT = 9

MANIFEST_NAME = "manifest.json"

_ENTRY_KEYS = {"completed_epochs", "spill_offset", "file", "digest", "result"}


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
# Shard pickles and entries (written by the shard's own task)
# ----------------------------------------------------------------------

def _write_durable(path: str, blob: bytes) -> None:
    """Temp file + fsync + rename: a crash mid-write cannot leave a
    plausible-looking truncated file under the final name."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _write_json(path: str, payload: dict) -> None:
    _write_durable(path, json.dumps(payload, separators=(",", ":")).encode())


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


def commit_shard(
    directory: str,
    index: int,
    completed_epochs: int,
    spill_offset: Optional[int],
    *,
    state: Optional[object] = None,
    result: Optional[dict] = None,
) -> None:
    """Commit one shard's progress: its ``state`` pickle while in
    progress, its ``result`` once finished.

    The entry rename is the commit point; the pickle it supersedes is
    removed only afterwards.
    """
    name = digest = None
    if result is None:
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        name = f"shard-{index:03d}-e{completed_epochs:04d}.pkl"
        _write_durable(os.path.join(directory, name), blob)
    _write_json(os.path.join(directory, shard_entry_name(index)), {
        "completed_epochs": completed_epochs,
        "spill_offset": spill_offset,
        "file": name,
        "digest": digest,
        "result": result,
    })
    for stale in os.listdir(directory):
        if (
            stale.startswith(f"shard-{index:03d}-e")
            and stale.endswith(".pkl")
            and stale != name
        ):
            os.remove(os.path.join(directory, stale))


def load_shard(directory: str, name: str, digest: str) -> object:
    """Load and verify one shard pickle; :class:`CheckpointError` on any
    missing file or digest mismatch."""
    path = os.path.join(directory, name)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint shard file {name!r} unreadable: {exc}"
        ) from exc
    actual = hashlib.sha256(blob).hexdigest()
    if actual != digest:
        raise CheckpointError(
            f"checkpoint shard file {name!r} is corrupt: digest {actual} "
            f"does not match manifest {digest}"
        )
    return pickle.loads(blob)


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


def load_manifest(directory: str) -> dict:
    """The run header plus every committed shard entry.

    ``manifest["shards"]`` maps ``str(index)`` to the shard's entry
    (shards that never committed are absent), and
    ``manifest["completed_epochs"]`` is the epoch count the *least*
    advanced shard has committed — 0 while any shard has no entry.
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
            if not _ENTRY_KEYS <= entry.keys():
                raise CheckpointError(
                    f"checkpoint shard entry {path!r} is incomplete"
                )
            shards[str(index)] = entry
    manifest["shards"] = shards
    manifest["completed_epochs"] = (
        min(entry["completed_epochs"] for entry in shards.values())
        if len(shards) == manifest["n_shards"] else 0
    )
    return manifest


def resume_point(directory: str, plan: ShardPlan) -> dict:
    """Load a manifest for ``run_sharded(resume_from=...)``, refusing
    one that does not belong to ``plan``."""
    manifest = load_manifest(directory)
    if manifest["plan_fp"] != plan_fingerprint(plan):
        raise CheckpointError(
            "checkpoint belongs to a different plan (fingerprint mismatch)"
        )
    for index, entry in manifest["shards"].items():
        completed = entry["completed_epochs"]
        if not 0 <= completed <= plan.n_epochs:
            raise CheckpointError(
                f"checkpoint claims {completed} completed epochs of "
                f"{plan.n_epochs} for shard {index}"
            )
    return manifest
