"""The LEOTP Consumer: pull-based receiver, TR reliability, rate control
(Sec. III-B reliability, Sec. III-C congestion control; evaluated in
Figs. 4-5 and 10-12).

The Consumer is the only node that tracks ongoing transfers (the paper's
"only the receiver records the states of ongoing packets").  It:

* emits Interests for consecutive MSS-sized ranges up to an in-flight
  window (its hop controller's rate x the end-to-end RTT); emission is
  delivery-clocked — each arriving Data packet frees window space and
  pulls the next Interests, there is no emission timer;
* runs Timeout Retransmission: unsatisfied Interests are re-sent after an
  RFC 6298 RTO, with x1.5 exponential backoff on repeats; a repeat, or a
  repair a VPH announced, is also re-sent once Data for an Interest sent
  after it has arrived and that Interest's RTT, at least one SRTT, has
  passed (RFC 8985's RACK), so a loss does not wait out a backed-off RTO;
* resets TR deadlines when a Void Packet Header arrives (the hole is
  already being repaired in-network);
* runs the SHR detector locally, re-requesting confirmed holes at once;
* records per-packet delivery metrics for the experiment harness.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.common.ranges import ByteRange, RangeSet
from repro.common.rto import RtoEstimator
from repro.core.config import LeotpConfig
from repro.core.congestion import HopRateController
from repro.core.shr import SeqHoleDetector
from repro.core.wire import DataPacket, Interest
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.trace import FlowRecorder
from repro.obs.tracer import TRACER
from repro.simcore.simulator import Simulator


class _InterestState:
    __slots__ = (
        "rng", "first_sent", "last_sent", "sent_no", "deadline", "retries", "vph_at"
    )

    def __init__(self, rng: ByteRange, now: float, rto: float, no: int = 0) -> None:
        self.rng = rng
        self.first_sent = now
        self.last_sent = now
        self.sent_no = no  # the Consumer's Interest count at the last send
        self.deadline = now + rto
        self.retries = 0
        self.vph_at = 0.0  # when a VPH last announced its in-network repair


class Consumer(Node):
    """A LEOTP receiving endpoint fetching one flow."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        flow_id: str,
        config: LeotpConfig = LeotpConfig(),
        total_bytes: Optional[int] = None,
        recorder: Optional[FlowRecorder] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        deliver: Optional["Callable[[int, float], None]"] = None,
        on_complete: Optional["Callable[[Consumer], None]"] = None,
    ) -> None:
        super().__init__(sim, name)
        self.flow_id = flow_id
        self.config = config
        self.total_bytes = total_bytes
        self.recorder = recorder
        self.stop_time = stop_time
        # Optional in-order delivery callback (gateways, applications):
        # called with (nbytes, origin_ts) as the contiguous frontier advances.
        self.deliver = deliver
        # Optional completion callback (flow pools, closed-loop workloads):
        # called once, with this Consumer, when the last byte arrives.
        self.on_complete = on_complete
        self._delivered_next = 0
        self.out_link: Optional[Link] = None  # toward the Producer
        self.cc = HopRateController(sim, config, name=f"{name}:cc")
        self.rto = RtoEstimator(
            initial_rto_s=config.tr_initial_rto_s, min_rto_s=config.tr_min_rto_s
        )
        self.shr = SeqHoleDetector(
            config.shr_disorder_threshold, config.shr_max_holes
        )
        self._received = RangeSet()
        self._outstanding: dict[int, _InterestState] = {}
        self._outstanding_bytes = 0
        self._next_offset = 0
        # Windowed minimum of the end-to-end Interest RTT (monotonic deque):
        # the propagation RTT used to size the in-flight window.
        self._rtt_min_samples: deque[tuple[float, float]] = deque()
        self.completed_at: Optional[float] = None
        self._rack_no = 0  # RACK: the latest-sent Interest answered,
        self._rack_rtt = 0.0  # and its RTT
        # Statistics.
        self.interests_sent = 0
        self.retransmission_interests = 0
        self.tr_expirations = 0
        self.vph_received = 0
        self.bytes_received = 0
        self.duplicate_bytes_received = 0  # bytes arriving more than once
        self.max_outstanding_bytes = 0     # in-flight high-water mark
        self.max_interest_retries = 0      # worst per-Interest retry count
        self._started = False
        sim.schedule_call(start_time, self.start)

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    @property
    def delivered_bytes(self) -> int:
        """Contiguous in-order bytes handed to the application so far."""
        return self._delivered_next

    @property
    def outstanding_bytes(self) -> int:
        """Bytes covered by Interests currently in flight."""
        return self._outstanding_bytes

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self._active():
            self._fill_window()
        self._tr_tick()

    def _active(self) -> bool:
        if self.finished:
            return False
        return self.stop_time is None or self.sim.now < self.stop_time

    # ------------------------------------------------------------------
    # Interest emission (window-limited, clocked by Data arrivals)
    # ------------------------------------------------------------------

    def _outstanding_cap(self) -> float:
        # Interests in flight cover the *whole path* (request -> Producer ->
        # data back), so the window is the controlled rate times the
        # end-to-end Interest RTT (plus headroom), while the rate itself is
        # governed by the last hop's controller.  This bounds the backlog
        # any Responder can accumulate to a fraction of one RTT's worth.
        rate = self.cc.sending_rate_bytes_s()
        rtt_min = self._e2e_rtt_min()
        # The effective round trip includes the standing buffers Midnodes
        # deliberately hold (the BL_tar smoothing reservoir), which the
        # propagation RTT misses.  Blending in the smoothed RTT covers them
        # while the 0.5 gain and the 3x cap keep the feedback loop stable.
        srtt = self.rto.srtt_s if self.rto.srtt_s is not None else rtt_min
        effective_rtt = 0.5 * rtt_min + 0.5 * min(srtt, 3.0 * rtt_min)
        return max(
            self.config.window_headroom * rate * effective_rtt,
            8.0 * self.config.mss,
        )

    def _e2e_rtt_min(self) -> float:
        """Propagation-level Interest RTT (windowed minimum, 10 s)."""
        if self._rtt_min_samples:
            return self._rtt_min_samples[0][1]
        return self.rto.srtt_s if self.rto.srtt_s is not None else 0.1

    def _record_rtt_min(self, sample: float) -> None:
        now = self.sim.now
        window = self.config.e2e_rtt_min_window_s
        while self._rtt_min_samples and self._rtt_min_samples[-1][1] >= sample:
            self._rtt_min_samples.pop()
        self._rtt_min_samples.append((now, sample))
        while self._rtt_min_samples and self._rtt_min_samples[0][0] < now - window:
            self._rtt_min_samples.popleft()

    def _fill_window(self) -> None:
        """Emit new Interests up to the in-flight window.

        Emission is delivery-clocked: each arriving Data packet frees
        window space and immediately pulls the next Interest, so in steady
        state the Interest rate equals the delivery rate (the bursts this
        allows are smoothed by the Responders' token buckets).  Every
        input of the window test (``cc`` state, the RTT estimators,
        ``_outstanding_bytes``) is written only inside :meth:`on_receive`,
        which ends here, so no timer is needed to keep the window full:
        :meth:`start` fills it once and a stalled path is woken by the TR
        tick's retransmissions, whose Data arrives through on_receive.
        Sending an Interest moves nothing the cap reads, so the cap is
        read once per fill.
        """
        mss = self.config.mss
        total = self.total_bytes
        if total is not None and self._next_offset >= total:
            return  # every byte is requested
        cap = self._outstanding_cap()
        while (total is None or self._next_offset < total) and (
            self._outstanding_bytes + mss <= cap
        ):
            end = self._next_offset + mss
            if total is not None and end > total:
                end = total
            rng = ByteRange.unchecked(self._next_offset, end)
            self._next_offset = end
            self._send_interest(rng, retransmission=False)

    def _send_interest(self, rng: ByteRange, retransmission: bool) -> None:
        if self.out_link is None:
            raise RuntimeError(f"consumer {self.name} has no outgoing link")
        now = self.sim.now
        # The piggybacked rate is the last hop's controller's: its
        # delivery-gated growth bounds it at roughly twice the path's
        # delivery rate even when the bottleneck is remote and the last
        # hop never shows a queue.
        interest = Interest(
            self.flow_id, rng, now, self.cc.sending_rate_bytes_s(), retransmission
        )
        self.interests_sent += 1
        if retransmission:
            self.retransmission_interests += 1
        state = self._outstanding.get(rng.start)
        if state is None:
            state = _InterestState(rng, now, self.rto.rto_s, self.interests_sent)
            self._outstanding[rng.start] = state
            self._outstanding_bytes += rng.end - rng.start
            if self._outstanding_bytes > self.max_outstanding_bytes:
                self.max_outstanding_bytes = self._outstanding_bytes
        else:
            state.last_sent = now
            state.sent_no = self.interests_sent
            state.retries += 1
            if state.retries > self.max_interest_retries:
                self.max_interest_retries = state.retries
            # Exponential backoff, clamped: during a long outage the
            # uncapped product would push deadlines minutes out and freeze
            # recovery long after connectivity returns.
            timeout = min(
                self.rto.rto_s * (self.config.tr_backoff_factor ** state.retries),
                self.rto.max_rto_s,
            )
            state.deadline = now + timeout
        if TRACER.enabled:
            TRACER.emit(
                now, "interest_send", self.name, flow=self.flow_id,
                start=rng.start, end=rng.end, retx=retransmission,
                rate=interest.send_rate_bytes_s,
            )
        self.out_link.send(interest)

    # ------------------------------------------------------------------
    # Timeout Retransmission
    # ------------------------------------------------------------------

    def _tr_tick(self) -> None:
        if not self._active():
            return
        now = self.sim.now
        rack_no = self._rack_no
        srtt = self.rto.srtt_s or 0.0
        rack_wait = max(self._rack_rtt, srtt) + 0.25 * self._e2e_rtt_min()
        for state in list(self._outstanding.values()):
            due = state.deadline
            if state.sent_no < rack_no and (state.retries or state.vph_at):
                # RACK: an Interest sent after this repeat (or after the
                # VPH of its repair) came back, so once its RTT (at least
                # one SRTT: a nearer cache answers sooner) and a reordering
                # allowance pass, the repeat or the repair is lost.
                due = min(due, max(state.last_sent, state.vph_at) + rack_wait)
            if due <= now:
                if state.retries >= self.config.tr_max_retries:
                    continue  # give up silently; reliability bound reached
                self.tr_expirations += 1
                if TRACER.enabled:
                    TRACER.emit(
                        now, "tr_expire", self.name, flow=self.flow_id,
                        start=state.rng.start, end=state.rng.end,
                        retries=state.retries, rto_s=self.rto.rto_s,
                    )
                self._send_interest(state.rng, retransmission=True)
        self.sim.schedule_call(self.config.tr_check_interval_s, self._tr_tick)

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def on_receive(self, packet: Packet, link: Link) -> None:
        if not isinstance(packet, DataPacket) or packet.flow_id != self.flow_id:
            return
        if packet.is_header:
            self._on_vph(packet)
            return
        now = self.sim.now
        rng = packet.range
        # Congestion feedback: Data-OWD plus the echoed Interest-OWD.  With
        # hop-by-hop control Midnodes re-stamp per hop, so this measures the
        # last hop; with endpoint-only control (ablation C/D) timestamps
        # survive end-to-end and the same sum measures the full path.
        sample = now - packet.timestamp
        if sample < 0.0:
            sample = 0.0
        sample += packet.echo_interest_owd
        if not self.config.hop_by_hop_cc and packet.retransmitted:
            # Endpoint-only control: a cache-served copy travelled a shorter
            # path, and its timestamp would poison the path's RTT minimum.
            sample = 0.0
        length = rng.end - rng.start
        self.cc.on_data(length, sample)
        # SHR at the receiving endpoint: re-request confirmed holes now.
        actions = self.shr.on_packet(rng)
        for hole in actions.request:
            self._request_hole(hole)
        # Delivery accounting (first arrival of each byte only): what the
        # received set grows by is exactly the not-yet-received part.
        received = self._received
        before = len(received)
        received.add(rng)
        have = len(received)
        new_bytes = have - before
        self.duplicate_bytes_received += length - new_bytes
        if TRACER.enabled:
            TRACER.emit(
                now, "data_recv", self.name, flow=self.flow_id,
                start=rng.start, end=rng.end, new_bytes=new_bytes,
                owd_s=now - packet.origin_ts, retx=packet.retransmitted,
            )
        if new_bytes > 0:
            self.bytes_received += new_bytes
            if self.recorder is not None:
                self.recorder.on_delivery(
                    new_bytes,
                    now - packet.origin_ts,
                    retransmitted=packet.retransmitted,
                )
        if self.deliver is not None:
            new_next = received.first_missing_from(self._delivered_next)
            if new_next > self._delivered_next:
                delta = new_next - self._delivered_next
                self._delivered_next = new_next
                self.deliver(delta, packet.origin_ts)
        self._satisfy(rng)
        self._fill_window()
        total = self.total_bytes
        if (
            total is not None
            and have >= total  # cheap necessary condition, per packet
            and self.completed_at is None
            and received.contains(ByteRange(0, total))
        ):
            self.completed_at = now
            if TRACER.enabled:
                TRACER.emit(
                    now, "flow_complete", self.name, flow=self.flow_id,
                    total_bytes=self.total_bytes,
                )
            if self.on_complete is not None:
                self.on_complete(self)

    def _on_vph(self, packet: DataPacket) -> None:
        """A hole notification: in-network repair is under way, so push the
        TR deadline of the overlapping Interests out by one fresh RTO."""
        self.vph_received += 1
        now = self.sim.now
        if TRACER.enabled:
            TRACER.emit(
                now, "vph_recv", self.name, flow=self.flow_id,
                start=packet.range.start, end=packet.range.end,
            )
        self.shr.on_packet(packet.range)
        for state in self._overlapping(packet.range):
            state.deadline = max(state.deadline, now + self.rto.rto_s)
            state.vph_at = now
            state.sent_no = self.interests_sent  # RACK: the repair is a send

    def _request_hole(self, hole: ByteRange) -> None:
        """SHR-confirmed hole: immediately re-request overlapping Interests."""
        if TRACER.enabled:
            TRACER.emit(
                self.sim.now, "shr_request", self.name, flow=self.flow_id,
                start=hole.start, end=hole.end,
            )
        for state in self._overlapping(hole):
            if state.retries < self.config.tr_max_retries:
                self._send_interest(state.rng, retransmission=True)

    def _satisfy(self, rng: ByteRange) -> None:
        # Fast path: Data ranges normally match Interest ranges one-to-one
        # (both are MSS-chunked from the same offsets).
        state = self._outstanding.get(rng.start)
        if state is not None and state.rng == rng:
            self._complete_interest(state)
            return
        for st in self._overlapping(rng):
            self._complete_interest(st)

    def _overlapping(self, rng: ByteRange) -> list[_InterestState]:
        """Outstanding Interests overlapping ``rng``, in ascending start.

        Interests are only ever created by :meth:`_fill_window`,
        MSS-chunked from offset 0, and a satisfied start is never
        requested again, so the candidates are the MSS-aligned starts
        below ``rng.end`` — and ascending start is the order a scan of
        the (insertion-ordered) window would visit them in.
        """
        mss = self.config.mss
        outstanding = self._outstanding
        found = []
        for start in range(rng.start - rng.start % mss, rng.end, mss):
            state = outstanding.get(start)
            if state is not None and state.rng.overlaps(rng):
                found.append(state)
        return found

    def _complete_interest(self, state: _InterestState) -> None:
        if not self._received.contains(state.rng):
            return
        if state.retries == 0:
            # Karn's rule: only unambiguous (never-retried) Interests feed
            # the RTT estimators.  Fresh Interests flow continuously, so
            # the estimator cannot starve; sampling retried ones from
            # first_sent would fold outage time into the RTO and freeze
            # recovery for seconds after a handover blackout.
            rtt = self.sim.now - state.last_sent
            if rtt > 0:
                self._record_rtt_min(rtt)
                self.rto.on_sample(rtt)
        if state.sent_no > self._rack_no:  # RACK: the latest-sent answered
            self._rack_no = state.sent_no
            self._rack_rtt = self.sim.now - max(state.last_sent, state.vph_at)
        rng = state.rng
        del self._outstanding[rng.start]
        self._outstanding_bytes -= rng.end - rng.start
