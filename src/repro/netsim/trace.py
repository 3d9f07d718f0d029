"""Measurement collection: per-flow delivery columns and time series.

Experiments attach a :class:`FlowRecorder` at the receiving endpoint to
record when each byte range is first delivered and how long it spent in the
network; the recorder then answers the questions the paper's figures ask
(mean/percentile OWD, OWD CDFs, goodput over a window, retransmitted-packet
OWD distributions).  A delivered packet is one row across four machine
arrays (25 host bytes, nothing the garbage collector tracks), not an
object.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Optional

import numpy as np

from repro.simcore.simulator import Simulator


class FlowRecorder:
    """Accumulates one row per delivered data packet of one flow.

    Row ``i`` is ``(times[i], sizes[i], owd_s[i], retx[i])``: delivery
    time (non-decreasing — it is the simulation clock), payload bytes,
    one-way delay, and whether the packet was a retransmission.
    """

    def __init__(self, sim: Simulator, name: str = "flow") -> None:
        self.sim = sim
        self.name = name
        self.times = array("d")
        self.sizes = array("q")
        self.owd_s = array("d")
        self.retx = array("b")
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    def on_delivery(
        self, nbytes: int, owd_s: float, retransmitted: bool = False
    ) -> None:
        now = self.sim.now
        if self.start_time is None:
            self.start_time = now
        self.end_time = now
        self.times.append(now)
        self.sizes.append(nbytes)
        self.owd_s.append(owd_s)
        self.retx.append(retransmitted)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes)

    def throughput_bps(
        self, t_start: Optional[float] = None, t_end: Optional[float] = None
    ) -> float:
        """Goodput over [t_start, t_end] (defaults to first/last delivery)."""
        if not self.times:
            return 0.0
        t0 = self.start_time if t_start is None else t_start
        t1 = self.end_time if t_end is None else t_end
        assert t0 is not None and t1 is not None
        if t1 <= t0:
            return 0.0
        rows = slice(bisect_left(self.times, t0), bisect_right(self.times, t1))
        return sum(self.sizes[rows]) * 8.0 / (t1 - t0)

    def owds(self, retransmitted_only: bool = False) -> np.ndarray:
        # np.array copies: a view would pin the column against appends.
        owds = np.array(self.owd_s, dtype=float)
        if retransmitted_only:
            return owds[np.array(self.retx, dtype=bool)]
        return owds

    def owd_mean(self) -> float:
        owds = self.owds()
        return float(owds.mean()) if owds.size else float("nan")

    def owd_percentile(self, q: float) -> float:
        owds = self.owds()
        return float(np.percentile(owds, q)) if owds.size else float("nan")


def cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probabilities)."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return vals, vals
    probs = np.arange(1, vals.size + 1) / vals.size
    return vals, probs


class TimeSeriesProbe:
    """Periodically samples a callable into (t, value) arrays.

    Used for queue-length and rate traces (Figs. 5, 14, 15).
    """

    def __init__(self, sim: Simulator, interval_s: float, fn, name: str = "probe"):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []
        self._fn = fn
        self._interval = interval_s
        self._schedule()

    def _schedule(self) -> None:
        self.sim.schedule_call(self._interval, self._sample)

    def _sample(self) -> None:
        self.times.append(self.sim.now)
        self.values.append(float(self._fn()))
        self._schedule()

    def mean(self, t_start: float = 0.0) -> float:
        vals = [v for t, v in zip(self.times, self.values) if t >= t_start]
        return float(np.mean(vals)) if vals else float("nan")
