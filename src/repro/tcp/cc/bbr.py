"""BBR congestion control (simplified v1 state machine).

Model-based: estimates the bottleneck bandwidth (windowed-max of delivery
rate) and the round-trip propagation delay (windowed-min RTT), paces at
``gain * btl_bw`` and caps inflight at ``2 * BDP``.  The four-phase state
machine (STARTUP / DRAIN / PROBE_BW / PROBE_RTT) follows the published
design; delivery rate is sampled per packet exactly as in BBR (the sender
echoes its delivered-counter through the receiver).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS

STARTUP = "STARTUP"
DRAIN = "DRAIN"
PROBE_BW = "PROBE_BW"
PROBE_RTT = "PROBE_RTT"


class BbrCC(CongestionControl):
    name = "bbr"

    HIGH_GAIN = 2.885
    DRAIN_GAIN = 1.0 / 2.885
    CWND_GAIN = 2.0
    PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    BW_WINDOW_ROUNDS = 10          # max-filter length, in rounds (~RTTs)
    RTPROP_WINDOW_S = 10.0         # min-filter length for RTprop
    PROBE_RTT_DURATION_S = 0.2
    STARTUP_GROWTH = 1.25          # full-pipe test: bw must grow 25 %/round

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        super().__init__(mss)
        self.state = STARTUP
        self._pacing_gain = self.HIGH_GAIN
        self._cwnd_gain = self.HIGH_GAIN
        # Bandwidth (max) filter: (expiry_round, bw_bps) entries.
        self._bw_samples: Deque[tuple[int, float]] = deque()
        self._btl_bw = 0.0
        # RTprop (min) filter: (time, rtt) entries.
        self._rtt_samples: Deque[tuple[float, float]] = deque()
        self._rt_prop: Optional[float] = None
        # Delivery accounting (diagnostics only; sampling is per packet).
        self._delivered_bytes = 0
        # Round tracking.
        self._round = 0
        self._round_start_time = 0.0
        # Full-pipe detection.
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._filled_pipe = False
        # PROBE_BW cycling / PROBE_RTT bookkeeping.
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._probe_rtt_done_at: Optional[float] = None
        self._rtprop_stamp = 0.0
        self._last_inflight = 0

    # ------------------------------------------------------------------
    # Model updates
    # ------------------------------------------------------------------

    def _update_round(self, now: float) -> None:
        rt = self._rt_prop if self._rt_prop is not None else 0.1
        if now - self._round_start_time >= rt:
            self._round += 1
            self._round_start_time = now

    def _update_bw(self, now: float, rate_sample_bps: Optional[float]) -> None:
        """Fold a per-packet delivery-rate sample into the windowed max.

        The sender computes each sample exactly as BBR does —
        ``(delivered_now - delivered_at_segment_send) / (ack_time -
        segment_send_time)`` — which is immune to ACK bursts after
        recovery, unlike any estimator built on the cumulative-ACK series.
        """
        if rate_sample_bps is not None and rate_sample_bps > 0:
            expiry = self._round + self.BW_WINDOW_ROUNDS
            # Monotonic max-filter: drop tail samples dominated by the new
            # one, so the window max is always at the head (O(1) amortised).
            while self._bw_samples and self._bw_samples[-1][1] <= rate_sample_bps:
                self._bw_samples.pop()
            self._bw_samples.append((expiry, rate_sample_bps))
        while self._bw_samples and self._bw_samples[0][0] < self._round:
            self._bw_samples.popleft()
        if self._bw_samples:
            self._btl_bw = self._bw_samples[0][1]

    def _update_rtprop(self, now: float, rtt_s: Optional[float]) -> None:
        if rtt_s is None:
            return
        # Monotonic min-filter over the RTprop window: the head is always
        # the window minimum (O(1) amortised per sample).
        while self._rtt_samples and self._rtt_samples[-1][1] >= rtt_s:
            self._rtt_samples.pop()
        self._rtt_samples.append((now, rtt_s))
        while self._rtt_samples and self._rtt_samples[0][0] < now - self.RTPROP_WINDOW_S:
            self._rtt_samples.popleft()
        new_min = self._rtt_samples[0][1]
        if self._rt_prop is None or new_min <= self._rt_prop:
            self._rtprop_stamp = now
        self._rt_prop = new_min

    def _check_full_pipe(self) -> None:
        if self._filled_pipe:
            return
        if self._btl_bw >= self._full_bw * self.STARTUP_GROWTH:
            self._full_bw = self._btl_bw
            self._full_bw_rounds = 0
        else:
            self._full_bw_rounds += 1
            if self._full_bw_rounds >= 3:
                self._filled_pipe = True

    def _bdp_bytes(self) -> float:
        if self._btl_bw <= 0 or self._rt_prop is None:
            return 10.0 * self.mss
        return self._btl_bw * self._rt_prop / 8.0

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    def _advance_state(self, now: float, inflight: int) -> None:
        if self.state == STARTUP and self._filled_pipe:
            self.state = DRAIN
            self._pacing_gain = self.DRAIN_GAIN
            self._cwnd_gain = self.HIGH_GAIN
        if self.state == DRAIN and inflight <= self._bdp_bytes():
            self._enter_probe_bw(now)
        if self.state == PROBE_BW:
            rt = self._rt_prop or 0.1
            if now - self._cycle_start > rt:
                self._cycle_index = (self._cycle_index + 1) % len(self.PROBE_BW_GAINS)
                self._cycle_start = now
                self._pacing_gain = self.PROBE_BW_GAINS[self._cycle_index]
        # PROBE_RTT entry: RTprop estimate stale.
        if (
            self.state != PROBE_RTT
            and self._rt_prop is not None
            and now - self._rtprop_stamp > self.RTPROP_WINDOW_S
        ):
            self.state = PROBE_RTT
            self._pacing_gain = 1.0
            self._cwnd_gain = 1.0
            self._probe_rtt_done_at = now + self.PROBE_RTT_DURATION_S
        if self.state == PROBE_RTT:
            assert self._probe_rtt_done_at is not None
            if now >= self._probe_rtt_done_at:
                self._rtprop_stamp = now
                if self._filled_pipe:
                    self._enter_probe_bw(now)
                else:
                    self.state = STARTUP
                    self._pacing_gain = self.HIGH_GAIN
                    self._cwnd_gain = self.HIGH_GAIN

    def _enter_probe_bw(self, now: float) -> None:
        self.state = PROBE_BW
        self._cycle_index = 2  # start in a cruise phase
        self._cycle_start = now
        self._pacing_gain = self.PROBE_BW_GAINS[self._cycle_index]
        self._cwnd_gain = self.CWND_GAIN

    # ------------------------------------------------------------------
    # CongestionControl interface
    # ------------------------------------------------------------------

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        self._delivered_bytes += acked_bytes
        self._last_inflight = inflight_bytes
        self._update_round(now)
        self._update_bw(now, rate_sample_bps)
        self._update_rtprop(now, rtt_s)
        self._check_full_pipe()
        self._advance_state(now, inflight_bytes)

    def on_fast_retransmit(self, now: float) -> None:
        # BBR does not react to isolated losses; the model absorbs them.
        pass

    def on_rto(self, now: float) -> None:
        # Conservative restart of the model after a timeout.
        self._full_bw = 0.0
        self._full_bw_rounds = 0

    @property
    def cwnd_bytes(self) -> float:
        if self.state == PROBE_RTT:
            return 4.0 * self.mss
        return max(self._cwnd_gain * self._bdp_bytes(), 4.0 * self.mss)

    def pacing_rate_bps(self, now: float) -> Optional[float]:
        if self._btl_bw <= 0:
            # No estimate yet: pace at an arbitrary moderate default so the
            # first round produces samples.
            return 10e6 * self._pacing_gain
        return self._pacing_gain * self._btl_bw

    @property
    def btl_bw_bps(self) -> float:
        return self._btl_bw

    @property
    def rt_prop_s(self) -> Optional[float]:
        return self._rt_prop
