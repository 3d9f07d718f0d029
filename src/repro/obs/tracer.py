"""Structured event tracing with a zero-cost disabled path.

One :class:`EventTracer` instance, :data:`TRACER`, exists per process.
Emit sites across the stack are guarded by its :attr:`~EventTracer.enabled`
flag::

    if TRACER.enabled:
        TRACER.emit(now, "interest_send", self.name, flow=self.flow_id,
                    start=rng.start, end=rng.end)

When tracing is off the guard is a single attribute load and a branch —
no argument tuple, no dict, no call — which is what keeps the
instrumented hot paths inside the ``benchmarks/compare.py`` perf gate
(see DESIGN.md §8 for the measured budget).

Record schema
-------------

Every record is a flat JSON-serialisable dict with three required keys:

``t``
    simulated time in seconds (float),
``event``
    the event kind (str, e.g. ``"interest_send"``, ``"link_drop"``),
``node``
    the emitting component's name (str).

plus event-specific fields (``flow``, ``start``/``end`` byte offsets,
``owd_s``, ``retx``, ``reason``, ``detail``, ...).  The schema is
deliberately open: analysis code must tolerate unknown fields.
:func:`validate_record` checks the required keys and types and is what
``tests/test_obs.py`` and the JSONL round-trip assert against.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import IO, Iterable, Union

#: Keys every trace record must carry (see module docstring).
RECORD_REQUIRED_KEYS = ("t", "event", "node")


class EventTracer:
    """An append-only buffer of structured trace records.

    The tracer never samples by itself — components push records into it
    at the moment something happens, stamped with the simulated time they
    observed.  ``max_records`` bounds memory on long runs; overflow is
    counted in :attr:`dropped_records` rather than silently ignored.
    """

    __slots__ = ("enabled", "records", "max_records", "dropped_records")

    def __init__(self, max_records: int = 2_000_000) -> None:
        self.enabled = False
        self.records: list[dict] = []
        self.max_records = max_records
        self.dropped_records = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Discard all buffered records (does not change ``enabled``)."""
        self.records.clear()
        self.dropped_records = 0

    def drain(self) -> list[dict]:
        """Return the buffered records and clear the buffer."""
        out = self.records
        self.records = []
        self.dropped_records = 0
        return out

    # ------------------------------------------------------------------
    # Emission (hot path when enabled; never called when disabled)
    # ------------------------------------------------------------------

    def emit(self, t: float, event: str, node: str, **fields) -> None:
        """Append one record.  Callers must guard with ``if TRACER.enabled``."""
        if len(self.records) >= self.max_records:
            self.dropped_records += 1
            return
        rec = {"t": t, "event": event, "node": node}
        if fields:
            rec.update(fields)
        self.records.append(rec)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def counts(self) -> Counter:
        """Record count per event kind."""
        return Counter(rec["event"] for rec in self.records)


#: The process-global tracer every emit site in the stack writes to.
#: Its identity never changes — enable()/disable() mutate it in place —
#: so components may bind it at import time.
TRACER = EventTracer()


# ----------------------------------------------------------------------
# Schema validation and JSONL persistence
# ----------------------------------------------------------------------

def validate_record(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` satisfies the record schema."""
    if not isinstance(rec, dict):
        raise ValueError(f"record must be a dict, got {type(rec).__name__}")
    for key in RECORD_REQUIRED_KEYS:
        if key not in rec:
            raise ValueError(f"record missing required key {key!r}: {rec}")
    if not isinstance(rec["t"], (int, float)):
        raise ValueError(f"record 't' must be numeric: {rec}")
    if not isinstance(rec["event"], str) or not isinstance(rec["node"], str):
        raise ValueError(f"record 'event'/'node' must be strings: {rec}")


def dump_jsonl(records: Iterable[dict], dest: Union[str, IO[str]]) -> int:
    """Write records as JSON Lines; returns the number written.

    ``dest`` is a path (str or PathLike) or an open text file.  Keys keep emission order
    (``sort_keys`` off) so the required triple leads every line.
    """
    def _write(fh: IO[str]) -> int:
        n = 0
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
            n += 1
        return n

    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            return _write(fh)
    return _write(dest)


def load_jsonl(src: Union[str, IO[str]], validate: bool = True) -> list[dict]:
    """Read a JSONL trace/metrics file back into a list of dicts."""
    def _read(fh: IO[str]) -> list[dict]:
        out = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if validate:
                validate_record(rec)
            out.append(rec)
        return out

    if isinstance(src, (str, os.PathLike)):
        with open(src) as fh:
            return _read(fh)
    return _read(src)
