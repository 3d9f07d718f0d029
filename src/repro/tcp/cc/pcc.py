"""PCC Vivace (simplified): online-learning rate control.

PCC sends at an explicit rate and judges each monitor interval (MI) by a
utility function combining throughput, latency gradient, and loss
(u = rate^0.9 - b*rate*dRTT/dt - c*rate*loss).  Paired MIs probe rate
up/down by epsilon; the sender moves along the empirical utility gradient.
This captures the published behaviour the paper's figures rely on: decent
loss tolerance (up to the utility cliff) but sluggish reaction under long
feedback loops, producing queueing during bandwidth drops.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS


class PccVivaceCC(CongestionControl):
    name = "pcc"

    EPSILON = 0.05            # probe amplitude
    LATENCY_COEF = 900.0      # Vivace's b (per Mbps * s/s)
    LOSS_COEF = 11.35         # Vivace's c
    GRADIENT_TOLERANCE = 0.02  # ignore RTT gradients below measurement noise
    THROUGHPUT_EXPONENT = 0.9
    MIN_RATE_BPS = 0.2e6
    MAX_RATE_BPS = 1e9
    STEP_FRACTION = 0.08      # conversion of utility gradient sign to rate step

    def __init__(self, mss: int = DEFAULT_MSS, initial_rate_bps: float = 2e6) -> None:
        super().__init__(mss)
        self._base_rate = initial_rate_bps
        self._srtt: Optional[float] = None
        # Monitor-interval state.
        self._mi_start = 0.0
        self._mi_acked = 0
        self._mi_losses = 0
        self._mi_first_rtt: Optional[float] = None
        self._mi_last_rtt: Optional[float] = None
        self._mi_phase = 0          # 0: probe up, 1: probe down
        # ACK feedback lags transmission by ~1 RTT = ~1 MI, so the bytes
        # observed during an MI were sent at the *previous* MI's rate; we
        # therefore attribute each window's measurement to the previous
        # MI's (phase, rate).
        self._pending_attribution: Optional[tuple[int, float]] = None
        self._utility_by_phase: dict[int, float] = {}
        self._consecutive_same_direction = 0
        self._last_direction = 0

    # ------------------------------------------------------------------

    def _mi_duration(self) -> float:
        return max(self._srtt if self._srtt is not None else 0.05, 0.01)

    def _current_rate(self) -> float:
        sign = 1.0 if self._mi_phase == 0 else -1.0
        return self._base_rate * (1.0 + sign * self.EPSILON)

    def _utility(self, rate_bps: float, loss_rate: float, rtt_gradient: float) -> float:
        rate_mbps = rate_bps / 1e6
        # Small positive gradients are indistinguishable from serialisation
        # jitter; Vivace's monitor tolerates them (its b coefficient ramps up
        # only under sustained inflation).
        effective_gradient = max(rtt_gradient - self.GRADIENT_TOLERANCE, 0.0)
        return (
            rate_mbps**self.THROUGHPUT_EXPONENT
            - self.LATENCY_COEF * rate_mbps * effective_gradient
            - self.LOSS_COEF * rate_mbps * loss_rate
        )

    def _finish_mi(self, now: float) -> None:
        duration = now - self._mi_start
        if duration <= 0:
            return
        if self._pending_attribution is not None:
            phase, rate = self._pending_attribution
            achieved_bps = self._mi_acked * 8.0 / duration
            sent_estimate = rate * duration / 8.0 / self.mss
            loss_rate = (
                self._mi_losses / max(sent_estimate, 1.0) if sent_estimate > 0 else 0.0
            )
            if self._mi_first_rtt is not None and self._mi_last_rtt is not None:
                rtt_gradient = (self._mi_last_rtt - self._mi_first_rtt) / duration
            else:
                rtt_gradient = 0.0
            self._utility_by_phase[phase] = self._utility(
                achieved_bps, min(loss_rate, 1.0), rtt_gradient
            )
            if 0 in self._utility_by_phase and 1 in self._utility_by_phase:
                self._decide(self._utility_by_phase[0], self._utility_by_phase[1])
                self._utility_by_phase.clear()
        # The MI that elapsed in this window was sent at the current phase's
        # rate; its ACKs will arrive during the next window.
        self._pending_attribution = (self._mi_phase, self._current_rate())
        # Reset the MI accumulators.
        self._mi_start = now
        self._mi_acked = 0
        self._mi_losses = 0
        self._mi_first_rtt = None
        self._mi_last_rtt = None
        self._mi_phase ^= 1

    def _decide(self, utility_up: float, utility_down: float) -> None:
        direction = 1 if utility_up > utility_down else -1
        if direction == self._last_direction:
            self._consecutive_same_direction += 1
        else:
            self._consecutive_same_direction = 1
        self._last_direction = direction
        # Amplify the step while the gradient keeps pointing the same way.
        boost = min(self._consecutive_same_direction, 4)
        step = self.STEP_FRACTION * boost * self._base_rate
        self._base_rate = min(
            max(self._base_rate + direction * step, self.MIN_RATE_BPS),
            self.MAX_RATE_BPS,
        )

    # ------------------------------------------------------------------
    # CongestionControl interface
    # ------------------------------------------------------------------

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        if rtt_s is not None:
            self._srtt = (
                rtt_s if self._srtt is None else 0.9 * self._srtt + 0.1 * rtt_s
            )
            if self._mi_first_rtt is None:
                self._mi_first_rtt = rtt_s
            self._mi_last_rtt = rtt_s
        self._mi_acked += acked_bytes
        if now - self._mi_start >= self._mi_duration():
            self._finish_mi(now)

    def on_fast_retransmit(self, now: float) -> None:
        self._mi_losses += 1

    def on_rto(self, now: float) -> None:
        self._mi_losses += 4  # a timeout signals a loss burst
        self._base_rate = max(self._base_rate * 0.7, self.MIN_RATE_BPS)

    @property
    def cwnd_bytes(self) -> float:
        # Rate-based: the window only caps runaway inflight.
        rtt = self._srtt if self._srtt is not None else 0.1
        return max(2.0 * self._current_rate() * rtt / 8.0, 4.0 * self.mss)

    def pacing_rate_bps(self, now: float) -> Optional[float]:
        return self._current_rate()

    @property
    def rate_bps(self) -> float:
        return self._base_rate
