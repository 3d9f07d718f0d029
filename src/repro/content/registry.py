"""Flow→object binding shared by a pool's Midnodes.

Wire protocol state stays per-flow — every Consumer keeps its own
FlowID, SHR detector, and paced sender — but the *cache* is content
addressed: a Midnode with a registry aliases its cache key from the
flow id to the bound object name, so two flows fetching ``obj00003``
read and write the same cached blocks.  This is the simulation analogue
of Interests naming content rather than connections (paper Sec. III-A).

The registry is plain dict state, maintained by the pool's lifecycle: bind at
spawn, unbind after retirement — during retirement the binding is still
visible, which is how :meth:`repro.core.midnode.Midnode.retire_flow`
knows to *keep* shared object blocks when their requester finishes.
"""

from __future__ import annotations

from typing import Optional


class ContentRegistry:
    """Mutable flow-id → object-name map with bind/unbind counters."""

    def __init__(self) -> None:
        self._objects: dict[str, str] = {}
        self.binds = 0
        self.unbinds = 0

    def bind(self, flow_id: str, object_nm: str) -> None:
        if not object_nm:
            raise ValueError("object name must be non-empty")
        self._objects[flow_id] = object_nm
        self.binds += 1

    def unbind(self, flow_id: str) -> None:
        if self._objects.pop(flow_id, None) is not None:
            self.unbinds += 1

    def object_of(self, flow_id: str) -> Optional[str]:
        """The bound object name, or None for unbound (flow-keyed) flows."""
        return self._objects.get(flow_id)
