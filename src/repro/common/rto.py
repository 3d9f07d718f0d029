"""RFC 6298 retransmission-timeout estimator.

Both the TCP baselines and LEOTP's Consumer-driven Timeout Retransmission
derive their RTO from smoothed RTT (SRTT) and RTT variance (RTTVAR)
"according to the algorithm in RFC6298" (paper Sec. III-B).
"""

from __future__ import annotations


class RtoEstimator:
    """Smoothed RTT / RTT-variance estimator with RFC 6298 constants."""

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0

    def __init__(
        self,
        initial_rto_s: float = 1.0,
        min_rto_s: float = 0.2,
        max_rto_s: float = 60.0,
    ) -> None:
        if not 0 < min_rto_s <= max_rto_s:
            raise ValueError("need 0 < min_rto <= max_rto")
        self.min_rto_s = min_rto_s
        self.max_rto_s = max_rto_s
        self._rto_s = initial_rto_s
        # The extremes of every RTO ever set (the rto-sanity rule reads
        # them when a flow ends, so no excursion goes unseen).
        self.lowest_rto_s = self.highest_rto_s = initial_rto_s
        self.srtt_s: float | None = None
        self.rttvar_s: float | None = None
        self.samples = 0

    @property
    def rto_s(self) -> float:
        return self._rto_s

    def on_sample(self, rtt_s: float) -> None:
        """Fold one RTT measurement into the estimate (RFC 6298 Sec. 2)."""
        if rtt_s <= 0:
            raise ValueError(f"RTT sample must be positive, got {rtt_s}")
        if self.srtt_s is None:
            self.srtt_s = rtt_s
            self.rttvar_s = rtt_s / 2.0
        else:
            assert self.rttvar_s is not None
            self.rttvar_s = (1 - self.BETA) * self.rttvar_s + self.BETA * abs(
                self.srtt_s - rtt_s
            )
            self.srtt_s = (1 - self.ALPHA) * self.srtt_s + self.ALPHA * rtt_s
        self.samples += 1
        raw = self.srtt_s + self.K * self.rttvar_s
        rto = self._rto_s = min(max(raw, self.min_rto_s), self.max_rto_s)
        if rto < self.lowest_rto_s:
            self.lowest_rto_s = rto
        elif rto > self.highest_rto_s:
            self.highest_rto_s = rto

    def backoff(self, factor: float = 2.0) -> None:
        """Exponential backoff after a timeout (TCP doubles; LEOTP uses 1.5)."""
        if factor <= 1.0:
            raise ValueError("backoff factor must exceed 1")
        rto = self._rto_s = min(self._rto_s * factor, self.max_rto_s)
        if rto > self.highest_rto_s:
            self.highest_rto_s = rto

    def refresh(self) -> None:
        """Drop accumulated backoff: recompute the RTO from SRTT/RTTVAR.

        For handover-aware transports: a backed-off RTO encodes timeouts
        suffered on a path that no longer exists.  After a path switch
        the estimator's measured timescale is the right restart point —
        without this, loss detection on the new path waits out backoff
        accumulated while the old one blacked out.  No-op before the
        first RTT sample (there is nothing better to recompute from).
        """
        if self.srtt_s is None:
            return
        assert self.rttvar_s is not None
        raw = self.srtt_s + self.K * self.rttvar_s
        rto = self._rto_s = min(max(raw, self.min_rto_s), self.max_rto_s)
        if rto < self.lowest_rto_s:
            self.lowest_rto_s = rto
        elif rto > self.highest_rto_s:
            self.highest_rto_s = rto
