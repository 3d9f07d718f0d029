"""TCP Vegas (Brakmo & Peterson 1995): delay-based congestion avoidance.

Vegas compares the expected rate (cwnd/baseRTT) with the actual rate
(cwnd/RTT); the difference, in segments of queue occupancy, steers the
window between the alpha and beta thresholds.  The paper uses Vegas as
the representative RTT-based baseline, and notes it is "confused by the
time-varying RTT" of LEO paths (Fig. 13) — a behaviour that emerges
naturally from its reliance on a stable baseRTT.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS


class VegasCC(CongestionControl):
    name = "vegas"

    ALPHA = 2.0   # segments of queue: grow below this
    BETA = 4.0    # segments of queue: shrink above this
    GAMMA = 1.0   # slow-start exit threshold

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self._cwnd = 10.0  # MSS units
        self._ssthresh = float("inf")
        self._base_rtt: Optional[float] = None
        self._in_slow_start = True

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd * self.mss

    @property
    def in_slow_start(self) -> bool:
        return self._in_slow_start

    def _queue_segments(self, rtt_s: float) -> float:
        assert self._base_rtt is not None
        expected = self._cwnd / self._base_rtt
        actual = self._cwnd / rtt_s
        return (expected - actual) * self._base_rtt

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        acked_mss = acked_bytes / self.mss
        if in_recovery:
            if rtt_s is not None and (self._base_rtt is None or rtt_s < self._base_rtt):
                self._base_rtt = rtt_s
            return
        if rtt_s is None:
            if self._in_slow_start:
                self._cwnd += acked_mss
            return
        if self._base_rtt is None or rtt_s < self._base_rtt:
            self._base_rtt = rtt_s
        diff = self._queue_segments(rtt_s)
        if self._in_slow_start:
            if diff > self.GAMMA or self._cwnd >= self._ssthresh:
                self._in_slow_start = False
            else:
                # Vegas doubles every *other* RTT; half-rate exponential
                # growth approximates that with per-ACK arithmetic.
                self._cwnd += acked_mss / 2.0
                return
        if diff < self.ALPHA:
            self._cwnd += acked_mss / self._cwnd
        elif diff > self.BETA:
            self._cwnd = max(self._cwnd - acked_mss / self._cwnd, 2.0)
        # else: hold

    def on_fast_retransmit(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = max(self._cwnd * 3.0 / 4.0, 2.0)
        self._in_slow_start = False

    def on_rto(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = 2.0
        self._in_slow_start = False
