"""Epoch-boundary checkpoint/resume for sharded runs.

A sharded run longer than a process (or a machine lease) must be able to
stop at an epoch barrier and continue later as if nothing happened.  The
unit of capture is one :class:`~repro.shard.worker._ShardState` — the
live simulator heap, RNG streams, FlowPool records, cache
occupancy, and fault injector — serialised whole with :mod:`pickle`
(every callback in the object graph is a bound method, a
:func:`functools.partial` over one, or a named callable class; no
closures).  Restoring the pickle into *any* process resumes the shard's
trajectory bit-identically, for the same reason ``--shard-jobs`` never
changes results: nothing in a shard's behaviour depends on process
identity.

On-disk layout (one directory per checkpoint)::

    manifest.json            # atomic commit point (tmp + rename)
    shard-000-e0012.pkl      # one pickle per shard, epoch-stamped
    shard-001-e0012.pkl
    ...

The manifest is written *after* every shard pickle is durable, and shard
pickle names carry the epoch, so a crash mid-checkpoint leaves the
previous manifest pointing at the previous epoch's intact files — the
new partial files are garbage, never a torn checkpoint.  Each manifest
entry records the pickle's SHA-256; :func:`load_shard` refuses bytes
that do not hash to the recorded digest (:class:`CheckpointError`), so
corruption is detected before a half-broken state can resume.

The manifest also records, per shard, the durable byte offset of the
shard's result spill file (see :mod:`repro.shard.sink`): resume
truncates each spill back to its recorded offset, discarding rows from
the unreached epochs, which is what makes kill-then-resume reproduce
the uninterrupted row files byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from repro.shard.plan import ShardPlan

#: Manifest schema version; bumped on incompatible layout changes.
CHECKPOINT_FORMAT = 2

MANIFEST_NAME = "manifest.json"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, corrupt, or mismatched."""


def plan_fingerprint(plan: ShardPlan) -> str:
    """Stable digest of every plan field (resume refuses a changed plan)."""
    payload = json.dumps(
        dataclasses.asdict(plan), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def shard_pickle_name(index: int, completed_epochs: int) -> str:
    return f"shard-{index:03d}-e{completed_epochs:04d}.pkl"


# ----------------------------------------------------------------------
# Shard pickles (written by workers, in their own processes)
# ----------------------------------------------------------------------

def save_shard(
    directory: str, index: int, completed_epochs: int, state: object
) -> tuple[str, str]:
    """Durably write one shard's state; returns ``(file name, digest)``.

    Written to a temp file and renamed so a crash mid-write cannot leave
    a plausible-looking truncated pickle under the final name.
    """
    blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    name = shard_pickle_name(index, completed_epochs)
    path = os.path.join(directory, name)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return name, digest


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
# Manifest (written by the engine, the atomic commit point)
# ----------------------------------------------------------------------

def write_manifest(directory: str, manifest: dict) -> None:
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, separators=(",", ":"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_manifest(directory: str) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise CheckpointError(
            f"no checkpoint manifest at {path!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint manifest {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest must be a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format')!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    for key in ("plan_fp", "n_shards", "n_epochs",
                "completed_epochs", "allocations", "ledger", "shards"):
        if key not in manifest:
            raise CheckpointError(f"checkpoint manifest missing {key!r}")
    return manifest


def validate_manifest(manifest: dict, plan: ShardPlan) -> None:
    """Refuse to resume a manifest that does not belong to ``plan``."""
    if manifest["plan_fp"] != plan_fingerprint(plan):
        raise CheckpointError(
            "checkpoint belongs to a different plan (fingerprint mismatch)"
        )
    if manifest["n_shards"] != plan.n_shards:
        raise CheckpointError(
            f"checkpoint has {manifest['n_shards']} shards, "
            f"plan expects {plan.n_shards}"
        )
    completed = manifest["completed_epochs"]
    if not 0 <= completed <= plan.n_epochs:
        raise CheckpointError(
            f"checkpoint claims {completed} completed epochs of "
            f"{plan.n_epochs}"
        )
    shards = manifest["shards"]
    missing = [
        i for i in range(plan.n_shards) if str(i) not in shards
    ]
    if missing:
        raise CheckpointError(
            f"checkpoint manifest missing shard entries: {missing}"
        )


def prune_stale(directory: str, keep: set[str]) -> int:
    """Remove shard pickles not referenced by the just-committed manifest.

    Called after the manifest rename, so the files being deleted are the
    *previous* checkpoint's — the new one is already durable.  Returns
    the number of files removed.
    """
    removed = 0
    for name in os.listdir(directory):
        if (
            name.startswith("shard-")
            and name.endswith(".pkl")
            and name not in keep
        ):
            os.remove(os.path.join(directory, name))
            removed += 1
    return removed


def spill_name(index: int) -> str:
    """Per-shard result spill file name inside a run's sink directory."""
    return f"flows-{index:03d}.jsonl"


def resume_point(directory: str, plan: ShardPlan) -> dict:
    """Load + validate a manifest for ``run_sharded(resume_from=...)``."""
    manifest = load_manifest(directory)
    validate_manifest(manifest, plan)
    return manifest
