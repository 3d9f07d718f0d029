"""CUBIC congestion control (RFC 8312 window growth)."""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS


class CubicCC(CongestionControl):
    """CUBIC: window grows as a cubic of time since the last loss.

    Window arithmetic is in MSS units (as in the RFC) and converted to
    bytes at the interface.  Includes the TCP-friendly (Reno-tracking)
    region so the algorithm is not slower than AIMD at small scale.
    """

    name = "cubic"

    C = 0.4           # cubic scaling constant, MSS/s^3
    BETA = 0.7        # multiplicative decrease factor

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self._cwnd = 10.0          # MSS units
        self._ssthresh = float("inf")
        self._w_max = 0.0
        self._k = 0.0
        self._epoch_start: Optional[float] = None
        self._w_est = 0.0          # TCP-friendly estimate
        self._last_rtt = 0.1

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd * self.mss

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self._ssthresh

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        if rtt_s is not None:
            self._last_rtt = rtt_s
        if in_recovery:
            return  # no window growth while repairing losses
        acked_mss = acked_bytes / self.mss
        if self.in_slow_start:
            self._cwnd += acked_mss
            return
        if self._epoch_start is None:
            self._epoch_start = now
            if self._w_max <= 0:
                self._w_max = self._cwnd
            self._k = ((self._w_max * (1 - self.BETA)) / self.C) ** (1.0 / 3.0)
            self._w_est = self._cwnd
        t = now - self._epoch_start + self._last_rtt
        w_cubic = self.C * (t - self._k) ** 3 + self._w_max
        # TCP-friendly region: emulate Reno's average growth rate.
        self._w_est += 3.0 * (1 - self.BETA) / (1 + self.BETA) * acked_mss / self._cwnd
        target = max(w_cubic, self._w_est)
        if target > self._cwnd:
            self._cwnd += (target - self._cwnd) / self._cwnd * acked_mss
        else:
            self._cwnd += 0.01 * acked_mss  # minimal probing per RFC 8312

    def _on_loss(self) -> None:
        self._w_max = self._cwnd
        self._cwnd = max(self._cwnd * self.BETA, 2.0)
        self._ssthresh = self._cwnd
        self._epoch_start = None

    def on_fast_retransmit(self, now: float) -> None:
        self._on_loss()

    def on_rto(self, now: float) -> None:
        self._on_loss()
        self._cwnd = 1.0
