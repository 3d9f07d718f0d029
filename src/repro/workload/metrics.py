"""Scale-aware per-flow metrics for many-flow workloads.

With one flow, a time-series of its rate tells the whole story.  With a
thousand, the interesting quantities are distributional: flow completion
times (FCT), per-flow goodput, and how *fairly* concurrent flows shared
the path while they overlapped.  This module collects those from the
pool's delivery callbacks:

* :class:`FlowRecord` — lifecycle record of one flow (arrival, start,
  finish/abort) with derived FCT and goodput;
* :class:`FairnessTracker` — windowed Jain index: delivered bytes are
  bucketed into fixed windows per flow, and Jain's index is computed per
  window over the flows active in it.  A windowed index exposes transient
  starvation that a whole-run average hides.

The heavy lifting (Jain, percentiles) is delegated to
:mod:`repro.analysis.stats` so workload results and figure pipelines
agree on definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import jain_fairness


@dataclass(slots=True)
class FlowRecord:
    """Lifecycle and outcome of one flow in a pool."""

    flow_id: str
    arrival_s: float
    size_bytes: int
    #: When the flow was actually admitted (== arrival in open loop;
    #: later under closed-loop admission).
    start_s: float
    finish_s: Optional[float] = None
    aborted: bool = False
    #: Why the flow aborted (``"admission"``, ``"no_route"``,
    #: ``"unfinished"``, ...); ``None`` for completed flows.
    abort_reason: Optional[str] = None
    #: Position in the pool's (arrival-sorted) demand list == spawn order;
    #: the spill rows' ``idx`` and the slot of the summary's samples.
    index: int = 0

    @property
    def completed(self) -> bool:
        return self.finish_s is not None and not self.aborted

    @property
    def fct_s(self) -> Optional[float]:
        """Flow completion time (admission to last byte), if completed."""
        if not self.completed:
            return None
        assert self.finish_s is not None
        return self.finish_s - self.start_s

    @property
    def goodput_bytes_s(self) -> Optional[float]:
        fct = self.fct_s
        if fct is None or fct <= 0:
            return None
        return self.size_bytes / fct


class FairnessTracker:
    """Windowed Jain fairness over delivered bytes.

    ``on_delivery`` is O(1) per callback; windows are materialised lazily
    at query time.  Windows containing fewer than two active flows are
    skipped (fairness of one flow is vacuous).
    """

    def __init__(self, window_s: float = 1.0) -> None:
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self._windows: dict[int, dict[str, int]] = {}

    def on_delivery(self, flow_id: str, nbytes: int, t: float) -> None:
        idx = int(t / self.window_s)
        window = self._windows.get(idx)
        if window is None:
            window = self._windows[idx] = {}
        window[flow_id] = window.get(flow_id, 0) + nbytes

    def windowed_jain(self) -> list[tuple[float, float]]:
        """(window start time, Jain index) for each multi-flow window."""
        out: list[tuple[float, float]] = []
        for idx in sorted(self._windows):
            per_flow = self._windows[idx]
            if len(per_flow) < 2:
                continue
            out.append((idx * self.window_s, jain_fairness(list(per_flow.values()))))
        return out

    def summary(self) -> dict[str, float]:
        """Mean and worst windowed Jain (1.0 when never contended)."""
        indexed = [j for _, j in self.windowed_jain()]
        if not indexed:
            return {"jain_mean": 1.0, "jain_min": 1.0, "windows": 0.0}
        return {
            "jain_mean": sum(indexed) / len(indexed),
            "jain_min": min(indexed),
            "windows": float(len(indexed)),
        }
