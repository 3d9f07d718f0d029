"""Congestion-control interface and the Reno baseline.

The TCP sender drives its congestion module through a small event API:
``on_ack`` for every new cumulative ACK (with a Karn-valid RTT sample when
available), ``on_fast_retransmit`` when triple-dup-ACK loss recovery kicks
in, and ``on_rto`` on a retransmission timeout.  The module exposes a
window (``cwnd_bytes``) and, for rate-based algorithms, a pacing rate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.tcp.segment import DEFAULT_MSS


class CongestionControl(ABC):
    """Base class for all congestion-control algorithms."""

    name = "base"

    #: Handover-aware controllers set this True to ask the sender to
    #: refresh its retransmission timer on churn signals (drop RTO
    #: backoff accumulated during the pre-handover blackout and re-arm
    #: on the estimator's measured timescale).  See
    #: :meth:`repro.tcp.connection.TcpSender.notify_churn`.
    churn_rearm_rto = False

    #: Optional fast-repair deadline (seconds) honored with
    #: ``churn_rearm_rto``: a churn signal is explicit evidence that the
    #: inflight window rode a path that just vanished, so the sender may
    #: pull its retransmission timer in to ``now + churn_retx_delay_s``
    #: (never pushing a nearer expiry out) instead of waiting out a full
    #: RTT-derived RTO.  None disables the pull-in.
    churn_retx_delay_s: Optional[float] = None

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss

    # -- events ---------------------------------------------------------

    @abstractmethod
    def on_ack(
        self,
        now: float,
        acked_bytes: int,
        rtt_s: Optional[float],
        inflight_bytes: int,
        in_recovery: bool = False,
        rate_sample_bps: Optional[float] = None,
    ) -> None:
        """A new cumulative ACK advanced snd_una by ``acked_bytes``."""

    def on_dup_ack(self, now: float) -> None:
        """A duplicate ACK arrived (before the fast-retransmit threshold)."""

    @abstractmethod
    def on_fast_retransmit(self, now: float) -> None:
        """Loss detected via triple duplicate ACKs."""

    @abstractmethod
    def on_rto(self, now: float) -> None:
        """Retransmission timeout fired."""

    def on_churn(self, now: float, kind: str) -> None:
        """A topology churn event (``PathSwitch``/``GsReattach``/...)
        reached this sender.

        Default: ignore.  Handover-aware controllers (OrbCC) override
        this to drop their stale path model — the bottleneck after a
        handover shares nothing with the one before it.  Delivered via
        :meth:`repro.tcp.connection.TcpSender.notify_churn`, which
        experiments hand to the timeline driver as its ``on_signal``
        (the signal entries of :func:`repro.churn.churn_timeline`).
        """

    # -- outputs ---------------------------------------------------------

    @property
    @abstractmethod
    def cwnd_bytes(self) -> float:
        """Current congestion window in bytes."""

    def pacing_rate_bps(self, now: float) -> Optional[float]:
        """Pacing rate for rate-based algorithms; None = pure ACK clocking."""
        return None

    def wake_at(self, now: float) -> Optional[float]:
        """When ``cwnd_bytes`` next moves on the clock alone (no ACK, RTO or
        churn signal): a paced sender with a closed window looks again."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} cwnd={self.cwnd_bytes:.0f}B>"


class RenoCC(CongestionControl):
    """Classic NewReno AIMD: the scaffolding Cubic/Hybla/Westwood extend."""

    name = "reno"

    INITIAL_WINDOW_SEGMENTS = 10

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self._cwnd = float(self.INITIAL_WINDOW_SEGMENTS * mss)
        self._ssthresh = float("inf")

    @property
    def cwnd_bytes(self) -> float:
        return self._cwnd

    @property
    def ssthresh_bytes(self) -> float:
        return self._ssthresh

    @property
    def in_slow_start(self) -> bool:
        return self._cwnd < self._ssthresh

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        if in_recovery:
            return  # no window growth while repairing losses
        if self.in_slow_start:
            self._cwnd += acked_bytes
        else:
            self._cwnd += self.mss * acked_bytes / self._cwnd

    def on_fast_retransmit(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0 * self.mss)
        self._cwnd = self._ssthresh

    def on_rto(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0 * self.mss)
        self._cwnd = float(self.mss)
