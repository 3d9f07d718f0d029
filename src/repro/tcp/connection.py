"""Packet-level TCP sender and receiver.

The engine implements the transport behaviours the paper's baselines need:

* cumulative ACKs carrying SACK blocks; the sender runs an RFC 6675-style
  scoreboard (pipe accounting, loss marking by SACK gap) so loss recovery
  performs like a modern kernel stack rather than a textbook NewReno;
* RFC 6298 retransmission timeouts with exponential backoff and Karn's
  algorithm for RTT sampling (ACKs echo the segment timestamp and its
  retransmission flag);
* pluggable congestion control (:mod:`repro.tcp.cc`), supporting both
  window-based (ACK-clocked) and rate-based (paced) algorithms;
* byte-stream sources, including the proxy-fed stream Split TCP uses, so
  per-byte origin timestamps survive proxy hops and end-to-end OWD can be
  measured across a split path.

A connection handshake is not modelled: every experiment measures
steady-state bulk transfer where the 1-RTT setup is immaterial.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Optional

from repro.common.ranges import ByteRange, RangeSet
from repro.common.rto import RtoEstimator
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.trace import FlowRecorder
from repro.simcore.process import Timer
from repro.simcore.simulator import Simulator
from repro.tcp.cc import CCSpec, make_cc
from repro.tcp.segment import DEFAULT_MSS, TcpSegment

# ---------------------------------------------------------------------------
# Byte-stream sources
# ---------------------------------------------------------------------------


class ByteStream:
    """What a sender transmits: a byte stream with per-byte timestamps."""

    def available_from(self, seq: int) -> int:
        """Bytes available to send at stream offset ``seq``."""
        raise NotImplementedError

    def timestamp_at(self, seq: int) -> Optional[float]:
        """Origin timestamp of the byte at ``seq`` (None = stamp at send)."""
        return None


class InfiniteStream(ByteStream):
    """An unbounded bulk-transfer stream (iperf-style)."""

    def available_from(self, seq: int) -> int:
        return 1 << 40


class FiniteStream(ByteStream):
    """A fixed-size transfer (e.g. the 100 MB file of Fig. 11)."""

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.total_bytes = total_bytes

    def available_from(self, seq: int) -> int:
        return max(self.total_bytes - seq, 0)


class ProxyStream(ByteStream):
    """A stream fed incrementally by an upstream proxy receiver.

    ``push`` appends bytes carrying their *original* first-transmission
    timestamp; ``timestamp_at`` hands them back in order so downstream
    segments inherit the end-to-end age of the data they carry.
    """

    def __init__(self) -> None:
        self._pushed = 0
        self._chunks: deque[tuple[int, float]] = deque()  # (end_seq, ts)

    def push(self, nbytes: int, first_ts: float) -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self._pushed += nbytes
        self._chunks.append((self._pushed, first_ts))

    def available_from(self, seq: int) -> int:
        return max(self._pushed - seq, 0)

    def timestamp_at(self, seq: int) -> Optional[float]:
        while self._chunks and self._chunks[0][0] <= seq:
            self._chunks.popleft()
        return self._chunks[0][1] if self._chunks else None

    def buffered_bytes(self, consumed_seq: int) -> int:
        """Bytes pushed but not yet sent by the downstream sender."""
        return max(self._pushed - consumed_seq, 0)


# ---------------------------------------------------------------------------
# Sender
# ---------------------------------------------------------------------------


class _SegmentState:
    """Scoreboard entry for one in-flight segment."""

    __slots__ = (
        "seq", "end", "first_sent", "last_sent", "retx_count",
        "lost", "in_pipe",
    )

    def __init__(self, seq: int, end: int, first_sent: float) -> None:
        self.seq = seq
        self.end = end
        self.first_sent = first_sent
        self.last_sent = first_sent
        self.retx_count = 0
        self.lost = False
        self.in_pipe = False

    @property
    def length(self) -> int:
        return self.end - self.seq


class TcpSender(Node):
    """A TCP sending endpoint; every wake-up transmits through :meth:`kick`.

    ``cc`` selects the congestion-control law; the sender builds it with
    its own ``mss`` (:func:`~repro.tcp.cc.make_cc`).
    """

    LOSS_GAP_BYTES_FACTOR = 3  # SACKed bytes above a hole that mark it lost

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst_name: str,
        out_link: Optional[Link],
        cc: CCSpec,
        stream: Optional[ByteStream] = None,
        mss: int = DEFAULT_MSS,
        flow_id: Optional[str] = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        super().__init__(sim, name)
        self.dst_name = dst_name
        self.out_link = out_link
        self.cc = make_cc(cc, mss)
        self.stream = stream if stream is not None else InfiniteStream()
        self.mss = mss
        self.flow_id = flow_id or f"{name}->{dst_name}"
        self.stop_time = stop_time
        # Sequence state and scoreboard.
        self.snd_una = 0
        self.snd_nxt = 0
        self._segments: "OrderedDict[int, _SegmentState]" = OrderedDict()
        self._pipe = 0  # bytes believed in flight (RFC 6675)
        self._lost: deque[_SegmentState] = deque()  # awaiting retransmission
        self._recovery_point: Optional[int] = None
        # Timers.
        self.rto = RtoEstimator()
        self._rto_timer = Timer(sim, self._on_rto)
        self._pace_timer = Timer(sim, self._on_pace)
        self._wake_timer = Timer(sim, self._on_wake)
        self._next_send_at = float("inf")  # next pacing slot (paced CCs)
        # Stats.
        self.delivered_total = 0  # cumulative delivered bytes (ack + sack)
        self.wire_bytes_sent = 0
        self.data_segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.completed_at: Optional[float] = None
        self._started = False
        sim.schedule_call(start_time, self.start)

    # ------------------------------------------------------------------

    @property
    def inflight_bytes(self) -> int:
        """Scoreboard pipe: bytes believed to be in the network."""
        return self._pipe

    @property
    def in_recovery(self) -> bool:
        return self._recovery_point is not None

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        rate = self.cc.pacing_rate_bps(self.sim.now)
        if rate is not None:
            self._next_send_at = self.sim.now + self.mss * 8.0 / max(rate, 1e3)
        self.kick()

    def stop(self) -> None:
        """Quiesce the sender: no further transmissions or timer fires.

        Used when a flow's routes are retired (completed or aborted):
        without this the sender's RTO timer keeps firing and
        retransmitting into the network forever — invisible zombie
        traffic that distorts every other flow's bottleneck share.
        """
        self.stop_time = self.sim.now
        for timer in (self._rto_timer, self._pace_timer, self._wake_timer):
            timer.cancel()

    def notify_churn(self, kind: str) -> None:
        """Deliver a topology churn signal to the congestion module.

        Experiments wire this to a
        :meth:`~repro.churn.events.TopologyEventStream.arm_signal`
        subscription, giving handover-aware CCs (OrbCC, adaptive) their
        ``on_churn`` events.  After the CC reacts the sender is kicked, so
        a raised rate/window takes effect now rather than at the next ACK.
        """
        if self.finished:
            return
        self._skip_idle_slots()
        self.cc.on_churn(self.sim.now, kind)
        if self.cc.churn_rearm_rto and self._rto_timer.armed:
            # The pending timer (and any backoff folded into it) was
            # calibrated against the pre-handover path.  Restart loss
            # detection on the estimator's measured timescale so data
            # eaten by the re-attach blackout is repaired in ~one RTO,
            # not after a backoff ladder built during the outage.  Pull
            # the expiry *in* only — an imminent timer is already better
            # loss detection than anything the estimator can offer.
            self.rto.refresh()
            # A sender with no RTT samples yet is sitting on the 1 s
            # conventional initial RTO; post-churn, probing the new path
            # at the floor is the faster way to its first sample.
            delay = self.rto.rto_s if self.rto.samples else self.rto.min_rto_s
            # The signal is explicit evidence the inflight rode a dead
            # path: a CC may name an even shorter repair deadline sized
            # to the re-attach blackout.  ACKs from surviving packets
            # re-arm the timer normally before it can fire spuriously.
            if self.cc.churn_retx_delay_s is not None:
                delay = min(delay, self.cc.churn_retx_delay_s)
            expiry = self._rto_timer.expiry
            if expiry is None or self.sim.now + delay < expiry:
                self._rto_timer.arm(delay)
        self.kick()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _active(self) -> bool:
        if not self._started or self.finished:
            return False
        return self.stop_time is None or self.sim.now < self.stop_time

    def kick(self) -> None:
        """Send what may leave now, or arm the pacer for the next slot.

        The one transmission entry point, called on every real wake-up:
        ACK, RTO, churn signal, application write (``ProxyStream.push``).
        A paced sender has at most one pace event pending, and only while
        a segment is eligible and the window is open; otherwise nothing is
        scheduled until the next wake-up (DESIGN.md §5, TCP pacing model).
        """
        if not self._active():
            return
        self._skip_idle_slots()
        if self.cc.pacing_rate_bps(self.sim.now) is None:
            while self._pipe + self.mss <= self.cc.cwnd_bytes and self._send_one():
                pass
        else:
            self._arm_pacer()

    def _skip_idle_slots(self) -> None:
        """Pass over the pacing slots that went by with nothing to send,
        each at its own moment's rate: run before the CC changes it."""
        now = self.sim.now
        while self._next_send_at < now:
            rate = self.cc.pacing_rate_bps(self._next_send_at)
            self._next_send_at += self.mss * 8.0 / max(rate, 1e3)

    def _arm_pacer(self) -> None:
        if self._pace_timer.armed:
            return
        if self._pipe + self.mss > self.cc.cwnd_bytes:
            wake = self.cc.wake_at(self.sim.now)
            if wake is not None and wake != self._wake_timer.expiry:
                self._wake_timer.arm_at(wake)
        elif self._segment_ready():
            self._pace_timer.arm_at(self._next_send_at)

    def _on_wake(self) -> None:
        # cc.wake_at: the window moved on the clock; the next slot looks.
        if self._active() and not self._pace_timer.armed:
            self._skip_idle_slots()
            self._pace_timer.arm_at(self._next_send_at)

    def _on_pace(self) -> None:
        if not self._active():
            return
        rate = self.cc.pacing_rate_bps(self.sim.now)
        if self._pipe + self.mss <= self.cc.cwnd_bytes:
            self._send_one()
        self._next_send_at = self.sim.now + self.mss * 8.0 / max(rate, 1e3)
        self._arm_pacer()

    def _segment_ready(self) -> bool:
        lost = self._lost
        while lost and not lost[0].lost:
            lost.popleft()  # repaired by a late ACK while queued
        return bool(lost) or self.stream.available_from(self.snd_nxt) > 0

    def _send_one(self) -> bool:
        """Send the highest-priority eligible segment.  True if sent."""
        if not self._segment_ready():
            return False
        if self._lost:
            self._transmit(self._lost.popleft(), retransmitted=True)
        else:
            self._send_new_segment()
        return True

    def _send_new_segment(self) -> None:
        length = min(self.mss, self.stream.available_from(self.snd_nxt))
        seq, end = self.snd_nxt, self.snd_nxt + length
        origin_ts = self.stream.timestamp_at(seq)
        first_sent = origin_ts if origin_ts is not None else self.sim.now
        state = _SegmentState(seq, end, first_sent)
        self._segments[seq] = state
        self.snd_nxt = end
        self._transmit(state, retransmitted=False)

    def _transmit(self, state: _SegmentState, retransmitted: bool) -> None:
        seg = TcpSegment(
            flow_id=self.flow_id,
            src=self.name,
            dst=self.dst_name,
            seq=state.seq,
            end_seq=state.end,
            sent_at=self.sim.now,
            first_sent_at=state.first_sent,
            retransmitted=retransmitted,
        )
        seg.tx_delivered = self.delivered_total
        self.wire_bytes_sent += seg.size_bytes
        self.data_segments_sent += 1
        if retransmitted:
            self.retransmissions += 1
            state.retx_count += 1
            state.lost = False  # back in flight
        state.last_sent = self.sim.now
        if not state.in_pipe:
            state.in_pipe = True
            self._pipe += state.length
        if self.out_link is None:
            raise RuntimeError(f"sender {self.name} has no outgoing link")
        self.out_link.send(seg)
        if not self._rto_timer.armed:
            self._rto_timer.arm(self.rto.rto_s)

    def _remove_from_pipe(self, state: _SegmentState) -> None:
        if state.in_pipe:
            state.in_pipe = False
            self._pipe -= state.length

    def _drop(self, state: _SegmentState) -> None:
        self._remove_from_pipe(state)
        state.lost = False  # invalidates its lost-queue entry, if any
        del self._segments[state.seq]

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------

    def on_receive(self, packet: Packet, link: Link) -> None:
        if not isinstance(packet, TcpSegment) or not packet.is_ack:
            return
        if packet.flow_id != self.flow_id or not self._active():
            return  # a stopped sender stays quiet: late ACKs re-arm nothing
        self._skip_idle_slots()
        self._process_ack(packet)
        self.kick()

    def _process_ack(self, ack: TcpSegment) -> None:
        now = self.sim.now
        acked = max(ack.ack_seq - self.snd_una, 0)
        if acked:
            self.snd_una = ack.ack_seq
            while self._segments:
                state = next(iter(self._segments.values()))
                if state.end > self.snd_una:
                    break
                self._drop(state)
        # Apply SACK information to the scoreboard.  Fully SACKed segments
        # are removed outright (receiver reneging is not modelled), which
        # keeps every later scoreboard scan proportional to the number of
        # holes rather than to the whole window.
        sack_advanced = False
        newly_sacked = 0
        highest_sacked = self.snd_una
        for start, end in ack.sack_blocks:
            highest_sacked = max(highest_sacked, end)
            for state in self._iter_segments_between(start, end):
                self._drop(state)
                newly_sacked += state.length
                sack_advanced = True
        newly_lost = self._mark_lost(highest_sacked) if sack_advanced or acked else 0
        # RTT sampling (Karn: never from retransmitted segments).
        rtt = None
        if ack.echo_ts is not None and not ack.echo_retx:
            rtt = now - ack.echo_ts
            if rtt > 0:
                self.rto.on_sample(rtt)
        # Delivered = cumulatively ACKed plus newly SACKed (kernel-style
        # delivery accounting, which rate-based estimators depend on).
        delivered = acked + newly_sacked
        self.delivered_total += delivered
        rate_sample = None
        if (
            ack.echo_ts is not None
            and not ack.echo_retx
            and ack.echo_delivered is not None
        ):
            span = now - ack.echo_ts
            if span > 0:
                rate_sample = (self.delivered_total - ack.echo_delivered) * 8.0 / span
        if delivered:
            self.cc.on_ack(
                now, delivered, rtt, self._pipe,
                in_recovery=self.in_recovery, rate_sample_bps=rate_sample,
            )
        else:
            self.cc.on_dup_ack(now)
        # Recovery bookkeeping.
        if newly_lost and not self.in_recovery:
            self._recovery_point = self.snd_nxt
            self.cc.on_fast_retransmit(now)
        if self.in_recovery and self.snd_una >= self._recovery_point:
            self._recovery_point = None
        # RTO timer.
        if self._segments:
            self._rto_timer.arm(self.rto.rto_s)
        else:
            self._rto_timer.cancel()
        # Completion of finite transfers.
        if (
            self.completed_at is None
            and isinstance(self.stream, FiniteStream)
            and self.stream.available_from(self.snd_nxt) == 0
            and not self._segments
        ):
            self.completed_at = now
            for timer in (self._rto_timer, self._pace_timer, self._wake_timer):
                timer.cancel()

    def _iter_segments_between(self, start: int, end: int) -> list[_SegmentState]:
        # Scoreboard order is ascending seq (OrderedDict, appends only), so
        # the scan can stop at the block end; materialise because callers
        # delete entries while consuming the result.
        matched = []
        for state in self._segments.values():
            if state.seq >= end:
                break
            if start <= state.seq and state.end <= end:
                matched.append(state)
        return matched

    def _mark_lost(self, highest_sacked: int) -> int:
        """RFC 6675-style loss inference: a hole with >= 3 MSS of SACKed
        bytes above it is lost.  Returns the number of newly marked bytes."""
        threshold = self.LOSS_GAP_BYTES_FACTOR * self.mss
        newly = 0
        for state in self._segments.values():
            if state.seq >= highest_sacked:
                break
            if state.lost:
                continue
            if state.retx_count > 0:
                # Already retransmitted once; if the retransmission is also
                # lost, only the RTO can tell — never re-mark on stale SACKs.
                continue
            if highest_sacked - state.end >= threshold:
                state.lost = True
                self._lost.append(state)
                self._remove_from_pipe(state)
                newly += state.length
        return newly

    def _on_rto(self) -> None:
        if not self._segments or not self._active():
            return
        self._skip_idle_slots()
        self.timeouts += 1
        self.cc.on_rto(self.sim.now)
        self.rto.backoff(2.0)
        self._recovery_point = None
        # Everything unSACKed is presumed lost; retransmit from the front.
        self._lost.clear()
        for state in self._segments.values():
            state.lost = True
            self._remove_from_pipe(state)
            self._lost.append(state)
        self._transmit(self._lost.popleft(), retransmitted=True)
        self._rto_timer.arm(self.rto.rto_s)
        self.kick()


# ---------------------------------------------------------------------------
# Receiver
# ---------------------------------------------------------------------------


class TcpReceiver(Node):
    """A TCP receiving endpoint: reassembly, cumulative+SACK ACKs, metrics."""

    MAX_SACK_BLOCKS = 16

    def __init__(
        self,
        sim: Simulator,
        name: str,
        out_link: Optional[Link],
        recorder: Optional[FlowRecorder] = None,
        deliver: Optional[Callable[[int, float], None]] = None,
        flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.out_link = out_link
        self.recorder = recorder
        self.deliver = deliver
        self.flow_id = flow_id
        self.rcv_next = 0
        self._received = RangeSet()
        # Out-of-order chunks pending in-order delivery: seq -> (end, ts).
        self._pending: dict[int, tuple[int, float]] = {}
        self.bytes_delivered = 0
        self.acks_sent = 0

    def on_receive(self, packet: Packet, link: Link) -> None:
        if not isinstance(packet, TcpSegment) or packet.is_ack:
            return
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return
        rng = ByteRange(packet.seq, packet.end_seq)
        is_new = not self._received.contains(rng)
        if is_new:
            if self.recorder is not None:
                self.recorder.on_delivery(
                    packet.payload_bytes,
                    self.sim.now - packet.first_sent_at,
                    retransmitted=packet.retransmitted,
                )
            self._received.add(rng)
            if self.deliver is not None:
                self._pending[packet.seq] = (packet.end_seq, packet.first_sent_at)
            self._advance_delivery()
        self._send_ack(packet)

    def _advance_delivery(self) -> None:
        new_next = self._received.first_missing_from(self.rcv_next)
        if new_next == self.rcv_next:
            return
        self.bytes_delivered += new_next - self.rcv_next
        if self.deliver is not None:
            # Hand contiguous chunks downstream with their origin stamps.
            pos = self.rcv_next
            while pos < new_next:
                chunk = self._pending.pop(pos, None)
                if chunk is None:
                    # Overlapping retransmission split a chunk: deliver
                    # the rest stamped now, sweep what the frontier jumped.
                    self.deliver(new_next - pos, self.sim.now)
                    for seq in [s for s in self._pending if s < new_next]:
                        del self._pending[seq]
                    break
                end, ts = chunk
                end = min(end, new_next)
                self.deliver(end - pos, ts)
                pos = end
        self.rcv_next = new_next

    def _sack_blocks(self) -> list[tuple[int, int]]:
        blocks = []
        for rng in self._received:
            if rng.end <= self.rcv_next:
                continue
            blocks.append((max(rng.start, self.rcv_next), rng.end))
            if len(blocks) >= self.MAX_SACK_BLOCKS:
                break
        return blocks

    def _send_ack(self, data_seg: TcpSegment) -> None:
        ack = TcpSegment(
            flow_id=data_seg.flow_id,
            src=self.name,
            dst=data_seg.src,
            is_ack=True,
            ack_seq=self.rcv_next,
            sent_at=self.sim.now,
            echo_ts=data_seg.sent_at,
            echo_retx=data_seg.retransmitted,
        )
        ack.echo_delivered = data_seg.tx_delivered
        ack.sack_blocks = self._sack_blocks()
        self.acks_sent += 1
        if self.out_link is None:
            raise RuntimeError(f"receiver {self.name} has no outgoing link")
        self.out_link.send(ack)

