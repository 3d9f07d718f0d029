"""Bounded-memory result streaming for sharded runs.

At 10⁵ flows the per-flow result rows (and, with ``--trace``, the trace
records) no longer fit comfortably in RAM — and returning them with the
shard's result would make that payload grow with the run.
This module is the counterpart of DESIGN.md §14's *streamed results*:

* :class:`SpillWriter` — an append-only JSONL writer with a bounded
  in-RAM buffer.  Records are encoded eagerly (so the buffer holds
  compact ``bytes``, not live dicts) and spill to disk whenever the
  buffer exceeds ``buffer_bytes`` or :meth:`~SpillWriter.flush` is
  called at an epoch boundary.  File bytes depend only on the sequence
  of ``write`` calls — never on buffer size, flush timing, or process
  layout — which is what keeps ``--shard-jobs N`` spills bit-identical.
* :func:`merge_spills` — deterministic compaction of per-shard spill
  files into one final row file (shard order, then within-shard append
  order), used to build the canonical ``flows.jsonl`` artifact that the
  kill-then-resume CI check compares byte for byte.
* :func:`iter_jsonl` / :func:`truncate_file` — streaming reader and the
  resume-path helper that rewinds a spill file to the byte offset the
  checkpoint manifest recorded as durable.

The writer is deliberately dependency-free (``json``/``os`` only): the
same mechanism backs :class:`~repro.workload.pool.FlowPool` result
streaming and :meth:`~repro.obs.tracer.EventTracer.set_stream`, which
import it lazily from their own layers.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterator, Optional, Union

_PathLike = Union[str, "os.PathLike[str]"]

#: Default in-RAM buffer bound before a spill to disk (bytes of encoded
#: JSONL, not record count — large records spill sooner).
DEFAULT_BUFFER_BYTES = 256 << 10


def encode_record(record: dict) -> bytes:
    """One record's canonical JSONL line (compact separators + newline).

    Key order follows the record's insertion order, matching the trace
    JSONL convention (:func:`repro.obs.tracer.dump_jsonl`); callers that
    need byte-stable files build their records with a fixed key order.
    """
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


class SpillWriter:
    """Append-only JSONL writer with a bounded in-RAM buffer.

    ``tell()`` reports the *durable* byte offset — bytes actually on
    disk, excluding anything still buffered — which is what checkpoint
    manifests record: on resume the file is truncated back to that
    offset and appending continues as if the interruption never
    happened.

    The file handle opens lazily on the first spill, so an idle writer
    (e.g. a shard whose epoch closed no flows) costs nothing; a writer
    restored from a checkpoint reopens in append mode.
    """

    def __init__(
        self,
        path: _PathLike,
        *,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        append: bool = False,
    ) -> None:
        if buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")
        self.path = os.fspath(path)
        self.buffer_bytes = buffer_bytes
        self._append = append
        self._fh: Optional[IO[bytes]] = None
        self._buffer: list[bytes] = []
        self._buffered_bytes = 0
        self._durable_bytes = (
            os.path.getsize(self.path)
            if append and os.path.exists(self.path)
            else 0
        )
        self.records_written = 0

    # -- writing --------------------------------------------------------

    def write(self, record: dict) -> None:
        """Buffer one record; spills to disk past the buffer bound."""
        line = encode_record(record)
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        self.records_written += 1
        if self._buffered_bytes > self.buffer_bytes:
            self.flush()

    def flush(self) -> int:
        """Spill the buffer to disk; returns the durable byte offset."""
        if self._buffer:
            if self._fh is None:
                # First spill decides the mode: truncate for fresh runs,
                # append when resuming past a checkpoint truncation.
                self._fh = open(self.path, "ab" if self._append else "wb")
                self._append = True  # later reopens must never truncate
            payload = b"".join(self._buffer)
            self._fh.write(payload)
            self._fh.flush()
            self._durable_bytes += len(payload)
            self._buffer.clear()
            self._buffered_bytes = 0
        return self._durable_bytes

    def tell(self) -> int:
        """Durable byte offset (on-disk bytes; excludes the buffer)."""
        return self._durable_bytes

    @property
    def buffered_records(self) -> int:
        return len(self._buffer)

    def close(self) -> int:
        """Flush and close (idempotent); returns the final byte offset."""
        offset = self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return offset

    # -- pickling (checkpoint support) ----------------------------------

    def __getstate__(self) -> dict:
        """Checkpoint as (path, durable offset): the buffer must be
        flushed first — :meth:`flush` at the epoch boundary precedes any
        checkpoint capture — so an unflushed buffer here is a bug."""
        if self._buffer:
            raise RuntimeError(
                f"SpillWriter({self.path!r}) pickled with "
                f"{len(self._buffer)} unflushed records"
            )
        return {
            "path": self.path,
            "buffer_bytes": self.buffer_bytes,
            "durable_bytes": self._durable_bytes,
            "records_written": self.records_written,
        }

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.buffer_bytes = state["buffer_bytes"]
        self._append = True
        self._fh = None
        self._buffer = []
        self._buffered_bytes = 0
        self._durable_bytes = state["durable_bytes"]
        self.records_written = state["records_written"]


# ----------------------------------------------------------------------
# Reading, rewinding, merging
# ----------------------------------------------------------------------

def iter_jsonl(path: _PathLike) -> Iterator[dict]:
    """Stream records back from a spill file (no whole-file list)."""
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def truncate_file(path: _PathLike, offset: int) -> int:
    """Rewind a spill file to a checkpoint's durable offset.

    Returns the number of bytes discarded.  A missing file at offset 0
    is fine (the shard never spilled before the checkpoint); a file
    *shorter* than the recorded offset means the spill the manifest
    promised is gone, which is unrecoverable.
    """
    if offset < 0:
        raise ValueError("offset must be non-negative")
    if not os.path.exists(path):
        if offset == 0:
            return 0
        raise FileNotFoundError(
            f"spill file {os.fspath(path)!r} missing but checkpoint "
            f"recorded {offset} durable bytes"
        )
    size = os.path.getsize(path)
    if size < offset:
        raise ValueError(
            f"spill file {os.fspath(path)!r} holds {size} bytes, shorter "
            f"than the checkpoint's durable offset {offset}"
        )
    if size == offset:
        return 0
    with open(path, "rb+") as fh:
        fh.truncate(offset)
    return size - offset


def merge_spills(
    paths: list[_PathLike], out_path: _PathLike, *, chunk_bytes: int = 1 << 20
) -> int:
    """Concatenate spill files into one, in the given order, streaming.

    The caller fixes the order (the shard engine passes shard-index
    order), and within each file append order is preserved, so the
    merged bytes are a pure function of the per-shard spills — the
    canonical final row set for bit-identity comparisons.  Missing
    inputs are skipped (a shard that closed no flows never created its
    file).  Returns the merged size in bytes.
    """
    total = 0
    with open(out_path, "wb") as out:
        for path in paths:
            if not os.path.exists(path):
                continue
            with open(path, "rb") as src:
                while True:
                    chunk = src.read(chunk_bytes)
                    if not chunk:
                        break
                    out.write(chunk)
                    total += len(chunk)
    return total
