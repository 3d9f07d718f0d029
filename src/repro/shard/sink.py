"""Bounded-memory result streaming for sharded runs.

At 10⁵ flows the per-flow result rows (and, with ``--trace``, the trace
records) no longer fit comfortably in RAM — and returning them with the
shard's result would make that payload grow with the run.
This module is the counterpart of DESIGN.md §14's *streamed results*:

* :class:`SpillWriter` — a JSONL writer with a bounded in-RAM buffer.
  Records are encoded eagerly (so the buffer holds compact ``bytes``,
  not live dicts) and spill to disk whenever the buffer exceeds
  ``buffer_bytes`` or :meth:`~SpillWriter.flush` is called.  File bytes
  depend only on the sequence of ``write`` calls — never on buffer
  size, flush timing, or process layout — which is what keeps
  ``--shard-jobs N`` spills bit-identical.
* :func:`merge_spills` — deterministic compaction of per-shard spill
  files into one final row file (shard order, then within-shard append
  order), used to build the canonical ``flows.jsonl`` artifact that the
  kill-then-resume CI check compares byte for byte.
* :func:`iter_jsonl` — the streaming reader.

The writer is deliberately dependency-free (``json``/``os`` only): the
same mechanism backs :class:`~repro.workload.pool.FlowPool` result
streaming, which imports it lazily from its own layer.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import IO, Iterator, Optional, Union

_PathLike = Union[str, "os.PathLike[str]"]

#: Default in-RAM buffer bound before a spill to disk (bytes of encoded
#: JSONL, not record count — large records spill sooner).
DEFAULT_BUFFER_BYTES = 256 << 10


class SpillWriter:
    """Write-once JSONL writer with a bounded in-RAM buffer.

    The file is created — truncated if it exists — on the first spill,
    so an idle writer costs nothing, and a shard that runs again
    rewrites its spill from byte 0.  A line's keys keep the record's
    insertion order, as in the trace JSONL
    (:func:`repro.obs.tracer.dump_jsonl`): callers that need byte-stable
    files build their records with a fixed key order.
    """

    def __init__(
        self, path: _PathLike, *, buffer_bytes: int = DEFAULT_BUFFER_BYTES
    ) -> None:
        if buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")
        self.path = os.fspath(path)
        self.buffer_bytes = buffer_bytes
        self._fh: Optional[IO[bytes]] = None
        self._buffer: list[bytes] = []
        self._buffered_bytes = 0
        self._durable_bytes = 0

    def write(self, record: dict) -> None:
        """Buffer one record; spills to disk past the buffer bound."""
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        if self._buffered_bytes > self.buffer_bytes:
            self.flush()

    def flush(self) -> int:
        """Spill the buffer to disk; returns the bytes written so far."""
        if self._buffer:
            if self._fh is None:
                self._fh = open(self.path, "wb")
            payload = b"".join(self._buffer)
            self._fh.write(payload)
            self._fh.flush()
            self._durable_bytes += len(payload)
            self._buffer.clear()
            self._buffered_bytes = 0
        return self._durable_bytes

    def close(self) -> int:
        """Flush and close (idempotent); returns the file's byte count."""
        size = self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return size


# ----------------------------------------------------------------------
# Reading and merging
# ----------------------------------------------------------------------

def iter_jsonl(path: _PathLike) -> Iterator[dict]:
    """Stream records back from a spill file (no whole-file list)."""
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def merge_spills(paths: list[_PathLike], out_path: _PathLike) -> int:
    """Concatenate spill files into one, in the given order, streaming.

    The caller fixes the order (the shard engine passes shard-index
    order), and within each file append order is preserved, so the
    merged bytes are a pure function of the per-shard spills — the
    canonical final row set for bit-identity comparisons.  Missing
    inputs are skipped (a shard that closed no flows never created its
    file).  Returns the merged size in bytes.
    """
    with open(out_path, "wb") as out:
        for path in paths:
            if os.path.exists(path):
                with open(path, "rb") as src:
                    shutil.copyfileobj(src, out)
        return out.tell()
