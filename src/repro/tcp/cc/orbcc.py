"""OrbCC-style handover-aware rate control for LEO paths.

Model-based like BBR — windowed max delivery rate, windowed min RTT,
pace at ``gain * btl_bw`` — but built around the one fact BBR's filters
cannot express: in a LEO network the bottleneck *changes identity* at
every handover.  BBR keeps serving a 10-round-old bandwidth maximum that
describes a satellite it is no longer using, and its ProbeBW cruise
gains need many RTTs to re-learn a post-handover capacity jump.  OrbCC
keeps BBR's steady-state machinery (STARTUP -> DRAIN -> CRUISE with the
8-phase gain cycle) and adds a handover arc driven by churn signals
(:meth:`on_churn`):

* on ``PathSwitch`` / ``GsReattach`` / ``RouteRestored`` it *drops* the
  bandwidth and RTT filters — the old path model is evidence about a
  path that no longer exists — keeping only a discounted carry-over
  floor (``carryover * btl_bw``) so pacing never falls off a cliff;
* it rides out the re-acquisition blackout first (``HOLD_HANDOVER``):
  for ``hold_s`` after the signal (sized to the sub-100 ms GSL re-attach
  window) it paces gently at the floor instead of blasting a probe burst
  into a link that is still down and repairing the whole burst after;
* then probes aggressively (``PROBE_HANDOVER``: ``probe_gain`` pacing
  for ``probe_s``) to re-fill the new bottleneck in a couple of RTTs
  instead of tens, and *drains* the probe queue afterwards exactly as
  BBR drains its startup queue — without the drain, every handover
  leaves a standing queue that inflates RTT for the rest of the flow;
* uses short filter windows (bandwidth max over ``bw_window_rounds``
  rounds, RTT min over ``rtt_window_s`` seconds) sized to
  inter-handover intervals rather than wired-Internet route lifetimes.
  There is no PROBE_RTT state: handover resets re-measure RTprop far
  more often than BBR's 10 s staleness timer would.

All knobs are constructor params, reachable via
``CCSpec("orbcc", {...})`` / ``--cc-param``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.tcp.cc.base import CongestionControl
from repro.tcp.segment import DEFAULT_MSS

#: Churn kinds that mean "the path identity changed": drop the model.
RESET_KINDS = frozenset({"PathSwitch", "GsReattach", "RouteRestored"})

STARTUP = "STARTUP"
DRAIN = "DRAIN"
CRUISE = "CRUISE"
HOLD_HANDOVER = "HOLD_HANDOVER"
PROBE_HANDOVER = "PROBE_HANDOVER"


class OrbCC(CongestionControl):
    name = "orbcc"

    #: On churn the sender also refreshes its RTO timer: backoff racked
    #: up while the old GSL blacked out would otherwise stall loss
    #: detection on the *new* path for seconds (min-RTO doubling wins
    #: every clustered-handover race without this).
    churn_rearm_rto = True

    STARTUP_GAIN = 2.885
    DRAIN_GAIN = 1.0 / 2.885
    CWND_GAIN = 2.0
    HOLD_GAIN = 0.75
    CRUISE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    STARTUP_GROWTH = 1.25
    FLOOR_DECAY = 0.85

    def __init__(
        self,
        mss: int = DEFAULT_MSS,
        probe_gain: float = 2.0,
        probe_s: float = 0.6,
        hold_s: float = 0.1,
        carryover: float = 0.85,
        bw_window_rounds: int = 6,
        rtt_window_s: float = 4.0,
        blind_rate_bps: float = 2e6,
    ) -> None:
        super().__init__(mss)
        if probe_gain < 1.0:
            raise ValueError("probe_gain must be >= 1.0")
        if not 0.0 <= carryover <= 1.0:
            raise ValueError("carryover must be in [0, 1]")
        if hold_s < 0.0 or probe_s < 0.0:
            raise ValueError("hold_s and probe_s must be non-negative")
        if blind_rate_bps <= 0:
            raise ValueError("blind_rate_bps must be positive")
        self.probe_gain = float(probe_gain)
        self.probe_s = float(probe_s)
        self.hold_s = float(hold_s)
        self.carryover = float(carryover)
        self.bw_window_rounds = int(bw_window_rounds)
        self.rtt_window_s = float(rtt_window_s)
        self.blind_rate_bps = float(blind_rate_bps)

        self._bw_samples: Deque[tuple[int, float]] = deque()
        self._btl_bw = 0.0
        self._rtt_samples: Deque[tuple[float, float]] = deque()
        self._rt_prop: Optional[float] = None
        self._round = 0
        self._round_start_time = 0.0
        # Startup/full-pipe detection (as in BBR).
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._filled_pipe = False
        # Queue drain after STARTUP or PROBE_HANDOVER (as BBR's DRAIN).
        self._draining = False
        # Post-handover hold/probe phases (absolute sim times).
        self._hold_until = -1.0
        self._probe_until = -1.0
        self._probe_needs_drain = False
        self._now = 0.0
        self._floor_bw = 0.0
        self._floor_stale = False
        # Cruise cycling.
        self._cycle_index = 2  # start in a cruise phase, as BBR does
        self._cycle_start = 0.0
        self.churn_resets = 0

    # -- model ----------------------------------------------------------

    def _update_round(self, now: float) -> None:
        rt = self._rt_prop if self._rt_prop is not None else 0.1
        if now - self._round_start_time >= rt:
            self._round += 1
            self._round_start_time = now
            if self._floor_stale and self._floor_bw > 0.0:
                # Fade the stale floor one round at a time: keeps the
                # post-probe cushion briefly but cannot out-pace a
                # genuinely slower new bottleneck for more than ~1 s.
                self._floor_bw *= self.FLOOR_DECAY

    def _update_bw(self, rate_sample_bps: Optional[float]) -> None:
        if rate_sample_bps is not None and rate_sample_bps > 0:
            expiry = self._round + self.bw_window_rounds
            while self._bw_samples and self._bw_samples[-1][1] <= rate_sample_bps:
                self._bw_samples.pop()
            self._bw_samples.append((expiry, rate_sample_bps))
        while self._bw_samples and self._bw_samples[0][0] < self._round:
            self._bw_samples.popleft()
        if self._bw_samples:
            self._btl_bw = self._bw_samples[0][1]
            # Fresh evidence supersedes the carried-over floor.
            if self._btl_bw >= self._floor_bw:
                self._floor_bw = 0.0

    def _update_rtprop(self, now: float, rtt_s: Optional[float]) -> None:
        if rtt_s is None:
            return
        while self._rtt_samples and self._rtt_samples[-1][1] >= rtt_s:
            self._rtt_samples.pop()
        self._rtt_samples.append((now, rtt_s))
        while self._rtt_samples and self._rtt_samples[0][0] < now - self.rtt_window_s:
            self._rtt_samples.popleft()
        self._rt_prop = self._rtt_samples[0][1]

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
                # Exit STARTUP through DRAIN, as BBR does: the 2.885x
                # startup burst is sitting in the bottleneck queue.
                self._draining = True

    def _bdp_bytes(self) -> float:
        bw = self._effective_bw()
        if bw <= 0 or self._rt_prop is None:
            return 10.0 * self.mss
        return bw * self._rt_prop / 8.0

    def _effective_bw(self) -> float:
        return max(self._btl_bw, self._floor_bw)

    @property
    def churn_retx_delay_s(self) -> float:
        # Repair right after the re-attach window: any packet that was
        # in flight when the path switched is assumed gone by then.
        return self.hold_s + 0.05

    def _holding(self, now: float) -> bool:
        return now < self._hold_until

    def _probing(self, now: float) -> bool:
        return self._hold_until <= now < self._probe_until

    def wake_at(self, now: float) -> Optional[float]:
        ends = (self._hold_until, self._probe_until)  # of HOLD, of PROBE
        return min((t for t in ends if now < t), default=None)

    def _expire_probe(self, now: float) -> None:
        """Probe window over: drain the probe burst before cruising."""
        if self._probe_needs_drain and now >= self._probe_until:
            self._probe_needs_drain = False
            # The carry-over floor only bridges the re-acquisition gap:
            # past the probe it goes stale and decays round by round
            # (see _update_round).  If the new bottleneck is *slower*
            # than the old one, a persistent floor would pace above it
            # forever — standing queue, loss, multi-second stalls on
            # downgrade handovers.  (Not cleared outright: a blackout
            # spanning the whole probe window would leave bw=0 and drop
            # pacing to the blind rate.)
            self._floor_stale = True
            if not self._holding(now):
                self._draining = True

    # -- CongestionControl interface ------------------------------------

    def on_ack(self, now, acked_bytes, rtt_s, inflight_bytes, in_recovery=False, rate_sample_bps=None) -> None:
        self._now = now
        self._update_round(now)
        self._update_bw(rate_sample_bps)
        self._update_rtprop(now, rtt_s)
        self._check_full_pipe()
        self._expire_probe(now)
        if self._draining and inflight_bytes <= self._bdp_bytes():
            self._draining = False
            self._cycle_index = 2
            self._cycle_start = now
        if self.state == CRUISE:
            rt = self._rt_prop or 0.1
            if now - self._cycle_start > rt:
                self._cycle_index = (self._cycle_index + 1) % len(self.CRUISE_GAINS)
                self._cycle_start = now

    def on_fast_retransmit(self, now: float) -> None:
        # Like BBR: isolated losses are noise, the rate model absorbs them.
        pass

    def on_rto(self, now: float) -> None:
        self._full_bw = 0.0
        self._full_bw_rounds = 0

    def on_churn(self, now: float, kind: str) -> None:
        if kind not in RESET_KINDS:
            return
        self.churn_resets += 1
        self._now = now
        # The old path's filters describe a bottleneck we just left.
        self._floor_bw = self.carryover * self._effective_bw()
        self._floor_stale = False
        self._bw_samples.clear()
        self._btl_bw = 0.0
        self._rtt_samples.clear()
        # Keep _rt_prop as a working guess until the first new sample.
        self._round += 1
        self._round_start_time = now
        self._hold_until = now + self.hold_s
        self._probe_until = self._hold_until + self.probe_s
        self._probe_needs_drain = True
        self._draining = False
        # Allow startup-style growth detection on the new path.
        self._full_bw = 0.0
        self._full_bw_rounds = 0

    @property
    def state(self) -> str:
        if self._holding(self._now):
            return HOLD_HANDOVER
        if self._probing(self._now):
            return PROBE_HANDOVER
        if self._draining:
            return DRAIN
        if not self._filled_pipe:
            return STARTUP
        return CRUISE

    @property
    def cwnd_bytes(self) -> float:
        if self._holding(self._now):
            # Enough to keep the ACK clock alive through the blackout,
            # not enough to dump a burst into a dead link.
            return max(self._bdp_bytes(), 4.0 * self.mss)
        gain = self.CWND_GAIN
        if self._probing(self._now):
            gain = max(self.probe_gain, self.CWND_GAIN)
        elif not self._filled_pipe:
            gain = self.STARTUP_GAIN
        return max(gain * self._bdp_bytes(), 4.0 * self.mss)

    def pacing_rate_bps(self, now: float) -> Optional[float]:
        self._now = now
        self._expire_probe(now)
        bw = self._effective_bw()
        if bw <= 0:
            # No estimate yet.  Unlike BBR's 29 Mbps blind blast, pace
            # the first window at GSL order-of-magnitude: on a LEO path
            # a flow born near a handover otherwise serializes its whole
            # initial window into the re-attach blackout (~80 ms) and
            # stalls on the 1 s conventional initial RTO before it ever
            # measures anything.  Spreading the window across ~150 ms
            # lets its tail survive the blackout and start the model.
            return self.blind_rate_bps
        if self._holding(now):
            return self.HOLD_GAIN * bw
        if self._probing(now):
            return self.probe_gain * bw
        if self._draining:
            return self.DRAIN_GAIN * bw
        if not self._filled_pipe:
            return self.STARTUP_GAIN * bw
        return self.CRUISE_GAINS[self._cycle_index] * bw

    @property
    def btl_bw_bps(self) -> float:
        return self._effective_bw()

    @property
    def rt_prop_s(self) -> Optional[float]:
        return self._rt_prop
