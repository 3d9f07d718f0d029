"""A simple learned/adaptive rate policy (online bandit over rate moves).

A deliberately small stand-in for the learning-based controllers of the
Sussex LEO CC study: the sender's rate is adjusted once per monitor
interval (~1 RTT) by one of three discrete actions — *decrease*, *hold*,
*increase* — chosen by a utility-greedy rule with a deterministic
round-robin exploration schedule (every ``explore_every``-th decision
tries the least-recently-used action).  Each interval's observed utility

    ``throughput_mbps - loss_penalty * losses - rtt_penalty * rtt_gradient``

is folded into a per-action EWMA; the greedy step picks the action with
the best running score.  No RNG anywhere, so runs stay bit-reproducible
from ``(scale, seed)`` like everything else in the simulator.

Churn-aware via :meth:`on_churn`: a path switch zeroes the learned
scores (experience from the old bottleneck misleads on the new one) and
re-enters the multiplicative-increase warmup.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS

from repro.tcp.cc.orbcc import RESET_KINDS


class AdaptiveCC(CongestionControl):
    name = "adaptive"

    #: Rate multipliers for the three actions.
    ACTIONS = (0.85, 1.0, 1.2)

    def __init__(
        self,
        mss: int = DEFAULT_MSS,
        initial_rate_bps: float = 4e6,
        min_rate_bps: float = 256e3,
        max_rate_bps: float = 2e9,
        ewma_alpha: float = 0.3,
        explore_every: int = 8,
        loss_penalty: float = 8.0,
        rtt_penalty: float = 40.0,
        warmup_gain: float = 1.6,
    ) -> None:
        super().__init__(mss)
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if explore_every < 2:
            raise ValueError("explore_every must be >= 2")
        self.min_rate_bps = float(min_rate_bps)
        self.max_rate_bps = float(max_rate_bps)
        self.ewma_alpha = float(ewma_alpha)
        self.explore_every = int(explore_every)
        self.loss_penalty = float(loss_penalty)
        self.rtt_penalty = float(rtt_penalty)
        self.warmup_gain = float(warmup_gain)

        self._rate = float(initial_rate_bps)
        self._warmup = True
        # Per-action EWMA utility and staleness (decision index last tried).
        self._scores = [0.0, 0.0, 0.0]
        self._last_tried = [-1, -1, -1]
        self._decision = 0
        self._action = 1  # hold
        # Current monitor interval accumulators.
        self._interval_start: Optional[float] = None
        self._acked_bytes = 0
        self._losses = 0
        self._rtt_first: Optional[float] = None
        self._rtt_last: Optional[float] = None
        self._srtt: Optional[float] = None
        self.churn_resets = 0

    # -- interval machinery ---------------------------------------------

    def _interval_len(self) -> float:
        return self._srtt if self._srtt is not None else 0.1

    def _finish_interval(self, now: float) -> None:
        start = self._interval_start if self._interval_start is not None else now
        elapsed = max(now - start, 1e-6)
        thr_mbps = self._acked_bytes * 8.0 / elapsed / 1e6
        grad = 0.0
        if self._rtt_first is not None and self._rtt_last is not None:
            grad = max(self._rtt_last - self._rtt_first, 0.0)
        utility = (
            thr_mbps
            - self.loss_penalty * self._losses
            - self.rtt_penalty * grad
        )
        a = self.ewma_alpha
        idx = self._action
        if self._last_tried[idx] < 0:
            self._scores[idx] = utility
        else:
            self._scores[idx] = (1 - a) * self._scores[idx] + a * utility
        self._last_tried[idx] = self._decision
        self._decision += 1

        if self._warmup:
            if self._losses or grad > 0.05:
                self._warmup = False  # found the ceiling; start learning
            else:
                self._rate = min(self._rate * self.warmup_gain, self.max_rate_bps)
        if not self._warmup:
            self._action = self._pick_action()
            self._rate = self._rate * self.ACTIONS[self._action]
            self._rate = min(max(self._rate, self.min_rate_bps), self.max_rate_bps)

        self._interval_start = now
        self._acked_bytes = 0
        self._losses = 0
        self._rtt_first = None
        self._rtt_last = None

    def _pick_action(self) -> int:
        if self._decision % self.explore_every == 0:
            # Deterministic exploration: revisit the stalest action.
            return min(range(len(self.ACTIONS)), key=lambda i: self._last_tried[i])
        best = max(self._scores)
        return self._scores.index(best)  # ties -> lowest index (decrease)

    # -- CongestionControl interface ------------------------------------

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        if self._interval_start is None:
            self._interval_start = now
        self._acked_bytes += acked_bytes
        if rtt_s is not None:
            self._srtt = rtt_s if self._srtt is None else 0.875 * self._srtt + 0.125 * rtt_s
            if self._rtt_first is None:
                self._rtt_first = rtt_s
            self._rtt_last = rtt_s
        if now - (self._interval_start or now) >= self._interval_len():
            self._finish_interval(now)

    def on_fast_retransmit(self, now: float) -> None:
        self._losses += 1

    def on_rto(self, now: float) -> None:
        # A timeout is strong evidence of overshoot: back off immediately
        # rather than waiting out the interval.
        self._losses += 3
        self._rate = max(self._rate * 0.5, self.min_rate_bps)
        self._warmup = False

    def on_churn(self, now: float, kind: str) -> None:
        if kind not in RESET_KINDS:
            return
        self.churn_resets += 1
        # Old-path experience misleads on the new bottleneck: forget it
        # and re-probe upward multiplicatively.
        self._scores = [0.0, 0.0, 0.0]
        self._last_tried = [-1, -1, -1]
        self._action = 1
        self._warmup = True
        self._interval_start = now
        self._acked_bytes = 0
        self._losses = 0
        self._rtt_first = None
        self._rtt_last = None

    @property
    def cwnd_bytes(self) -> float:
        # Inflight cap: 2x the rate-delay product at the smoothed RTT.
        rtt = self._srtt if self._srtt is not None else 0.1
        return max(2.0 * self._rate * rtt / 8.0, 4.0 * self.mss)

    def pacing_rate_bps(self, now: float) -> Optional[float]:
        return self._rate

    @property
    def rate_bps(self) -> float:
        return self._rate
