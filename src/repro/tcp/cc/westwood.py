"""TCP Westwood+: bandwidth-estimate-based loss response for wireless links.

Westwood grows like Reno but, on loss, sets ssthresh to the estimated
bandwidth-delay product (BWE x RTTmin) instead of blindly halving — the
"faded-channel" heuristic that helps on random-loss links.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS


class WestwoodCC(CongestionControl):
    name = "westwood"

    FILTER_GAIN = 0.9  # EWMA low-pass coefficient for the bandwidth estimate

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self._cwnd = 10.0 * mss  # bytes
        self._ssthresh = float("inf")
        self._bwe_bps = 0.0
        self._rtt_min: Optional[float] = None
        self._last_ack_time: Optional[float] = None

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd

    @property
    def bandwidth_estimate_bps(self) -> float:
        return self._bwe_bps

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self._ssthresh

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        if rtt_s is not None:
            self._rtt_min = rtt_s if self._rtt_min is None else min(self._rtt_min, rtt_s)
        if self._last_ack_time is not None:
            dt = now - self._last_ack_time
            if dt > 0:
                sample = acked_bytes * 8.0 / dt
                self._bwe_bps = (
                    self.FILTER_GAIN * self._bwe_bps + (1 - self.FILTER_GAIN) * sample
                )
        self._last_ack_time = now
        if in_recovery:
            return  # keep estimating bandwidth, but no window growth
        if self.in_slow_start:
            self._cwnd += acked_bytes
        else:
            self._cwnd += self.mss * acked_bytes / self._cwnd

    def _bdp_bytes(self) -> float:
        if self._rtt_min is None or self._bwe_bps <= 0:
            return 2.0 * self.mss
        return max(self._bwe_bps * self._rtt_min / 8.0, 2.0 * self.mss)

    def on_fast_retransmit(self, now: float) -> None:
        self._ssthresh = self._bdp_bytes()
        if self._cwnd > self._ssthresh:
            self._cwnd = self._ssthresh

    def on_rto(self, now: float) -> None:
        self._ssthresh = self._bdp_bytes()
        self._cwnd = float(self.mss)
