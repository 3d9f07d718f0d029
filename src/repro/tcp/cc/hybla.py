"""TCP Hybla (Caini & Firrincieli 2004): RTT-compensated AIMD.

Hybla scales window growth by rho = RTT/RTT0 (RTT0 = 25 ms) so long-RTT
(satellite) connections grow as fast as a terrestrial reference flow:
slow start adds ``2^rho - 1`` segments per ACKed segment and congestion
avoidance adds ``rho^2 / cwnd``.
"""

from __future__ import annotations

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS


class HyblaCC(CongestionControl):
    name = "hybla"

    RTT0_S = 0.025

    RHO_CAP = 8.0  # bounds 2^rho growth against pathological RTT estimates

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self._cwnd = 10.0  # MSS units
        self._ssthresh = float("inf")
        self._rho = 1.0
        self._rtt_min: float | None = None

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd * self.mss

    @property
    def rho(self) -> float:
        return self._rho

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self._ssthresh

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        if rtt_s is not None:
            # rho derives from the propagation RTT (minimum observed), not
            # the instantaneous RTT — otherwise queueing inflates rho and
            # growth diverges.
            if self._rtt_min is None or rtt_s < self._rtt_min:
                self._rtt_min = rtt_s
            self._rho = min(max(self._rtt_min / self.RTT0_S, 1.0), self.RHO_CAP)
        if in_recovery:
            return  # no window growth while repairing losses
        acked_mss = acked_bytes / self.mss
        if self.in_slow_start:
            self._cwnd += (2.0 ** self._rho - 1.0) * acked_mss
        else:
            self._cwnd += (self._rho**2 / self._cwnd) * acked_mss

    def on_fast_retransmit(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self._ssthresh

    def on_rto(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = 1.0
