"""Backpressure hop-by-hop congestion control (paper Sec. III-C).

Each hop's *Requester* (the node sending Interests on that hop) runs a
:class:`HopRateController`:

* hopRTT is measured per packet as Interest-OWD + Data-OWD, smoothed with
  an EWMA; ``hopRTT_min`` is the minimum over the last 5 seconds.
* ``cwnd`` follows equation (8): multiplicative increase in slow start,
  +1 MSS per hopRTT in congestion avoidance, and ``k*BDP`` (k = 0.8) when
  the estimated queue exceeds the threshold M, where ``BDP = throughput *
  hopRTT_min`` (6) and ``QueueLen = throughput * (hopRTT - hopRTT_min)``
  (7).
* the advertised rate is ``min(cwnd / hopRTT, rate_bp)`` (10) with the
  backpressure bound ``rate_bp = rate_nextHop + (BL - BL_tar)/hopRTT``
  (9) applied at Midnodes (``BL`` = sending-buffer backlog).

The *Responder* paces Data with a :class:`TokenBucket` driven by the rate
piggybacked on incoming Interests.  Both run once per packet per hop, so
each answers its caller in one step: a pacing decision is one
:meth:`TokenBucket.take`, and the controller reads its sender's backlog
as a plain attribute.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.config import LeotpConfig
from repro.simcore.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.paced import PacedSender

SLOW_START = "SLOW_START"
CONGESTION_AVOIDANCE = "CONGESTION_AVOIDANCE"
_INF = float("inf")


class TokenBucket:
    """Continuous-replenishment token bucket (the Responder's Rate Limiter)."""

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_s: float,
        burst_bytes: float = 3000.0,
    ) -> None:
        if rate_bytes_s <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self._rate = rate_bytes_s
        self.burst_bytes = burst_bytes
        self._tokens = burst_bytes
        self._last_update = sim.now

    @property
    def rate_bytes_s(self) -> float:
        return self._rate

    @property
    def tokens_available(self) -> float:
        """Current token level, read-only (used by metrics samplers)."""
        elapsed = self.sim.now - self._last_update
        return min(self.burst_bytes, self._tokens + elapsed * self._rate)

    def set_rate(self, rate_bytes_s: float) -> None:
        """Change the fill rate; tokens earned so far accrue at the old one."""
        if rate_bytes_s <= 0:
            raise ValueError("rate must be positive")
        now = self.sim.now
        tokens = self._tokens + (now - self._last_update) * self._rate
        if tokens > self.burst_bytes:
            tokens = self.burst_bytes
        self._tokens = tokens
        self._last_update = now
        self._rate = rate_bytes_s

    def take(self, nbytes: int) -> float:
        """Spend ``nbytes`` tokens if the bucket holds them.

        Returns 0.0 when they were taken; otherwise the level is left
        as it is and the result is the time, in seconds, until
        ``nbytes`` will have accumulated at the current rate.
        """
        now = self.sim.now
        tokens = self._tokens + (now - self._last_update) * self._rate
        if tokens > self.burst_bytes:
            tokens = self.burst_bytes
        self._last_update = now
        if tokens >= nbytes:
            self._tokens = tokens - nbytes
            return 0.0
        self._tokens = tokens
        return (nbytes - tokens) / self._rate


class HopRateController:
    """The Requester-side rate controller of one hop of one flow."""

    def __init__(
        self,
        sim: Simulator,
        config: LeotpConfig,
        sender: Optional["PacedSender"] = None,
        name: str = "hopcc",
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        # The node's own sending buffer for this flow (its
        # ``backlog_bytes`` is the BL of equation (9)).  ``None`` marks an
        # endpoint Requester (the Consumer): no sending buffer, so the
        # backpressure bound does not apply.
        self.sender = sender
        self.state = SLOW_START
        self.cwnd_bytes = float(config.initial_cwnd_packets * config.mss)
        # The largest window ever set, and the first non-finite or
        # non-positive one (the cwnd-sanity rule reads both as a flow ends).
        self.peak_cwnd_bytes = self.cwnd_bytes
        self.bad_cwnd_bytes: Optional[float] = None
        self.hoprtt_s: Optional[float] = None       # EWMA
        self._min_samples: deque[tuple[float, float]] = deque()
        self.hoprtt_min_s: Optional[float] = None
        self.next_hop_rate_bytes_s: Optional[float] = None
        self._delivered_since_tick = 0
        self._last_tick = sim.now
        self.last_throughput_bytes_s = 0.0
        self.ticks = 0
        self.congestion_events = 0
        self.route_changes_detected = 0
        self._high_rtt_streak = 0
        self._streak_low = float("inf")

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    ROUTE_CHANGE_FACTOR = 1.2   # persistent RTT above min*this = new path
    ROUTE_CHANGE_SAMPLES = 12   # consecutive high samples before resetting

    def on_data(self, nbytes: int, hoprtt_sample: float) -> None:
        """Account one received Data packet with its hopRTT sample."""
        rtt = self.hoprtt_s
        now = self.sim.now
        if hoprtt_sample > 0:
            if rtt is None:
                rtt = hoprtt_sample
            else:
                rtt += (hoprtt_sample - rtt) / 8.0
            self.hoprtt_s = rtt
            samples = self._min_samples
            # Monotonic min-filter over the last ``window`` seconds.
            while samples and samples[-1][1] >= hoprtt_sample:
                samples.pop()
            samples.append((now, hoprtt_sample))
            horizon = now - self.config.hoprtt_min_window_s
            while samples[0][0] < horizon:
                samples.popleft()
            rtt_min = self.hoprtt_min_s = samples[0][1]
            # Route-change detection: after a LEO path switch the
            # propagation delay itself moves, and a stale minimum makes the
            # new (longer) path look permanently congested.  A sustained run
            # of samples all well above the minimum cannot be queueing we
            # caused — queues we cause drain within a hopRTT once the window
            # backs off — so treat it as a new path and restart the filter
            # from the recent samples.
            if hoprtt_sample > rtt_min * self.ROUTE_CHANGE_FACTOR:
                self._high_rtt_streak += 1
                if hoprtt_sample < self._streak_low:
                    self._streak_low = hoprtt_sample
                if self._high_rtt_streak >= self.ROUTE_CHANGE_SAMPLES:
                    samples.clear()
                    samples.append((now, self._streak_low))
                    self.hoprtt_min_s = self._streak_low
                    self._high_rtt_streak = 0
                    self._streak_low = _INF
                    self.route_changes_detected += 1
            else:
                self._high_rtt_streak = 0
                self._streak_low = _INF
        elif rtt is None:
            rtt = self.config.initial_hoprtt_s
        self._delivered_since_tick += nbytes
        if now - self._last_tick >= rtt:
            self._tick()

    # ------------------------------------------------------------------
    # Window adjustment: equation (8), once per hopRTT
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_tick
        self._last_tick = now
        self.ticks += 1
        delivered = self._delivered_since_tick
        throughput = delivered / elapsed if elapsed > 0 else 0.0
        self.last_throughput_bytes_s = throughput
        self._delivered_since_tick = 0
        cfg = self.config
        rtt = self.hoprtt_s if self.hoprtt_s is not None else cfg.initial_hoprtt_s
        rtt_min = self.hoprtt_min_s if self.hoprtt_min_s is not None else rtt
        bdp = throughput * rtt_min
        queue_len = throughput * max(rtt - rtt_min, 0.0)
        # The queue threshold scales with the control loop's BDP: a loop
        # spanning many hops (endpoint-only control, long Starlink paths)
        # sees proportionally more RTT jitter than a single-hop loop.
        threshold = max(float(cfg.queue_threshold_bytes), 0.1 * bdp)
        floor = 4.0 * cfg.mss
        # Growth is delivery-coupled, as in any ACK-clocked window scheme:
        # doubling per hopRTT happens only when a full window was actually
        # delivered, and additive increase only while the window is being
        # used — otherwise a stalled path lets the window diverge.
        utilised = delivered >= cfg.utilisation_threshold * self.cwnd_bytes
        if self.state == CONGESTION_AVOIDANCE and delivered == 0:
            # Delivery stall (handover blackout, path outage): additive
            # increase would take seconds to refill the pipe, so restart
            # probing multiplicatively, like TCP's slow start after idle.
            self.state = SLOW_START
        if self.state == SLOW_START:
            if queue_len > threshold:
                self.state = CONGESTION_AVOIDANCE
                self.congestion_events += 1
                self.cwnd_bytes = max(cfg.cwnd_backoff_factor * bdp, floor)
            elif self.ticks > 2 and not utilised:
                # Full pipe: deliveries no longer track the window, so the
                # path is saturated even though this hop shows no queue
                # (the bottleneck is remote).  Settle at the measured BDP.
                self.state = CONGESTION_AVOIDANCE
                self.cwnd_bytes = max(cfg.cwnd_backoff_factor * bdp, floor)
            else:
                self.cwnd_bytes = min(self.cwnd_bytes * 2.0, self.cwnd_bytes + delivered)
        else:
            if queue_len <= threshold:
                if utilised:
                    self.cwnd_bytes += cfg.mss
            else:
                self.congestion_events += 1
                self.cwnd_bytes = max(cfg.cwnd_backoff_factor * bdp, floor)
        cwnd = self.cwnd_bytes = min(
            max(self.cwnd_bytes, floor), float(cfg.max_cwnd_bytes)
        )
        if cwnd > self.peak_cwnd_bytes:
            self.peak_cwnd_bytes = cwnd
        if not 0.0 < cwnd < _INF and self.bad_cwnd_bytes is None:
            self.bad_cwnd_bytes = cwnd

    # ------------------------------------------------------------------
    # Outputs: equations (9) and (10)
    # ------------------------------------------------------------------

    def backpressure_rate(self) -> Optional[float]:
        """Equation (9), or None when it does not constrain this node."""
        sender = self.sender
        next_hop = self.next_hop_rate_bytes_s
        if sender is None or next_hop is None:
            return None
        cfg = self.config
        rtt = self.hoprtt_s if self.hoprtt_s is not None else cfg.initial_hoprtt_s
        correction = (cfg.buffer_target_bytes - sender.backlog_bytes) / rtt
        return next_hop + cfg.backpressure_gain * correction

    def sending_rate_bytes_s(self) -> float:
        """Equation (10): the rate piggybacked on Interests, with eq. (9)
        evaluated here on the RTT already resolved
        (:meth:`backpressure_rate` is the same bound, for readers)."""
        cfg = self.config
        rtt = self.hoprtt_s
        if rtt is None:
            rtt = cfg.initial_hoprtt_s
        rate = self.cwnd_bytes / rtt
        sender = self.sender
        next_hop = self.next_hop_rate_bytes_s
        if sender is not None and next_hop is not None:
            correction = (cfg.buffer_target_bytes - sender.backlog_bytes) / rtt
            bp = next_hop + cfg.backpressure_gain * correction
            if bp < rate:
                rate = bp
        floor = cfg.min_rate_bytes_s
        return rate if rate > floor else floor
