"""Tests for the multicast extension (Interest aggregation + fan-out)."""

from types import SimpleNamespace

import pytest

from repro.common.ranges import ByteRange
from repro.core import Consumer, LeotpConfig, MulticastMidnode, Producer
from repro.core.wire import DataPacket, Interest
from repro.netsim.link import DuplexLink
from repro.netsim.node import SinkNode
from repro.netsim.trace import FlowRecorder
from repro.simcore import Simulator


def build_multicast_tree(sim, n_consumers=2, total=50 * 1400, stagger=0.0):
    """n consumers <- midnode <- producer, all requesting the same flow.

    Returns the links too (upstream first, then one access link per
    consumer) so fault timelines can target them by hop index.
    """
    config = LeotpConfig()
    producer = Producer(sim, "prod", config, content_bytes=total)
    midnode = MulticastMidnode(sim, "mid", config)
    up = DuplexLink(sim, producer, midnode, rate_bps=20e6, delay_s=0.010)
    midnode.set_upstream(up.ba)
    consumers, recorders, links = [], [], [up]
    for i in range(n_consumers):
        recorder = FlowRecorder(sim, name=f"c{i}")
        consumer = Consumer(
            sim, f"c{i}", "shared-flow", config,
            total_bytes=total, recorder=recorder,
            start_time=i * stagger,
        )
        access = DuplexLink(sim, midnode, consumer, rate_bps=20e6, delay_s=0.002)
        consumer.out_link = access.ba
        consumers.append(consumer)
        recorders.append(recorder)
        links.append(access)
    return producer, midnode, consumers, recorders, links


class TestMulticast:
    def test_both_consumers_complete(self):
        sim = Simulator()
        producer, midnode, consumers, _, _ = build_multicast_tree(sim)
        sim.run(until=30.0)
        assert all(c.finished for c in consumers)

    def test_simultaneous_requests_are_aggregated(self):
        sim = Simulator()
        producer, midnode, consumers, _, _ = build_multicast_tree(sim)
        sim.run(until=30.0)
        assert midnode.interests_aggregated > 0
        assert midnode.fanout_packets > 0

    def test_upstream_traffic_shared(self):
        """Two simultaneous consumers should cost the producer much less
        than two full transfers (the paper's multicast benefit)."""
        total = 100 * 1400
        sim = Simulator()
        producer, midnode, consumers, _, _ = build_multicast_tree(
            sim, n_consumers=2, total=total
        )
        sim.run(until=60.0)
        assert all(c.finished for c in consumers)
        # Strictly fewer bytes than serving both copies from the source.
        assert producer.wire_bytes_sent < 1.7 * total

    def test_staggered_consumer_served_from_cache(self):
        """A consumer arriving later is served from the Midnode's cache,
        costing the producer almost nothing extra."""
        total = 50 * 1400
        sim = Simulator()
        producer, midnode, consumers, _, _ = build_multicast_tree(
            sim, n_consumers=2, total=total, stagger=5.0,
        )
        sim.run(until=60.0)
        assert all(c.finished for c in consumers)
        assert midnode.cache.stats.hits > 0
        assert producer.wire_bytes_sent < 1.5 * total

    def test_retransmission_interests_bypass_pit(self):
        sim = Simulator()
        producer, midnode, consumers, _, _ = build_multicast_tree(sim)
        sim.run(until=30.0)
        # Reliability invariant: every byte reached every consumer exactly
        # once even with aggregation in the path.
        for consumer in consumers:
            assert consumer.bytes_received == 50 * 1400


    def test_a_fanout_copy_is_booked_on_its_own_face(self):
        """A copy fanned out to a second face does not un-queue the range
        on the primary face: a TR re-request arriving after the resend
        window, while the primary copy still waits to be paced out, is
        absorbed there — one copy per face, not a second on the primary."""
        sim = Simulator()
        mid = MulticastMidnode(sim, "mid", LeotpConfig())
        up = DuplexLink(sim, SinkNode(sim, "up"), mid, 50e6, 0.001)
        mid.set_upstream(up.ba)
        face_a, face_b = SinkNode(sim, "a"), SinkNode(sim, "b")
        link_a = DuplexLink(sim, face_a, mid, 50e6, 0.001)
        link_b = DuplexLink(sim, face_b, mid, 50e6, 0.001)
        chunks = [ByteRange(1400 * k, 1400 * (k + 1)) for k in range(4)]
        # Face a paces ~10 packets/s: its 3-packet burst takes chunks 0-2,
        # so chunk 3 waits ~0.1 s there; face b asks chunk 3 only.
        for k, chunk in enumerate(chunks):
            sim.schedule_at(0.001 * k, link_a.ab.send,
                            Interest("f", chunk, 0.001 * k - 0.005, 14_430.0))
        sim.schedule_at(0.004, link_b.ab.send,
                        Interest("f", chunks[3], -0.001, 1e6))
        for chunk in chunks:
            sim.schedule_at(0.01, up.ab.send, DataPacket("f", chunk, 0.01))
        sim.schedule_at(0.05, link_a.ab.send,
                        Interest("f", chunks[3], 0.045, 14_430.0, True))
        sim.run(until=1.0)
        assert mid.fanout_packets == 1
        for face in (face_a, face_b):
            copies = [p for p in face.received if p.range == chunks[3]]
            assert len(copies) == 1, face.name


class _MulticastChaosPath:
    """Adapter exposing the multicast tree through the chaos path protocol.

    ``run_chaos`` arms invariants on ``consumer`` (the first one) and
    arms its timeline on ``links``/``nodes``; the extra consumers ride
    along for post-run asserts.
    """

    def __init__(self, producer, midnode, consumers, recorders, links):
        self.producer = producer
        self.consumer = consumers[0]
        self.consumers = consumers
        self.intermediates = [midnode]
        self.midnodes = [midnode]
        self.recorder = recorders[0]
        self.links = links
        self.nodes = [producer, midnode, *consumers]

    @property
    def wire_bytes_sent(self):
        return self.producer.wire_bytes_sent


class TestMulticastChaos:
    """Fault injection on the multicast tree (blackout + midnode crash)."""

    def _builder(self, total=50 * 1400):
        def build(sim, rng):
            return _MulticastChaosPath(*build_multicast_tree(sim, total=total))

        return build

    def test_upstream_blackout_recovers(self):
        from repro.faults import LinkDown, Timeline, run_chaos

        result = run_chaos(
            Timeline(LinkDown(0.3, 0, duration_s=0.4)), self._builder(),
            duration_s=30.0, seed=3,
        )
        result.assert_ok()
        assert result.completed
        # Every consumer (not just the monitored one) got the whole flow.
        assert all(c.finished for c in result.path.consumers)
        assert any("hop0 DOWN" in action for _, action in result.fault_log)

    def test_midnode_crash_recovers(self):
        from repro.faults import NodeCrash, Timeline, run_chaos

        result = run_chaos(
            Timeline(NodeCrash(0.3, "mid", restart_after_s=0.4)),
            self._builder(), duration_s=30.0, seed=3,
        )
        result.assert_ok()
        assert all(c.finished for c in result.path.consumers)
        actions = [action for _, action in result.fault_log]
        assert any("mid CRASHED" in a for a in actions)
        assert any("mid restarted" in a for a in actions)


class TestOneOwner:
    """A queued packet has one owner: the hop that dequeues it re-stamps
    that object, so no object may be on two links (or twice on one)."""

    def test_no_packet_is_offered_while_queued_or_in_flight(self, monkeypatch):
        """A lossy 5-hop chain — Midnodes answering from their caches, one
        crashing and restarting — ends in a MulticastMidnode that fans out
        to a same-flow subscriber on a second face and to a cross-flow
        subscriber of the same object.  Every object a link takes is live
        until that link delivers it (a lost one is referenced by no node
        and never offered again); offering a live object is the fault."""
        from repro.core import Midnode
        from repro.netsim.link import Link
        from repro.simcore import RngRegistry

        live, violations = {}, []
        send, deliver = Link.send, Link._deliver

        def tracked_send(link, packet):
            if id(packet) in live:
                violations.append((link.name, packet))
            taken = send(link, packet)
            if taken:
                live[id(packet)] = packet  # held, so no id is reused
            return taken

        def tracked_deliver(link, packet, gen):
            live.pop(id(packet), None)
            deliver(link, packet, gen)

        monkeypatch.setattr(Link, "send", tracked_send)
        monkeypatch.setattr(Link, "_deliver", tracked_deliver)

        sim, rng, config = Simulator(), RngRegistry(7), LeotpConfig()
        total = 400 * 1400
        producer = Producer(sim, "prod", config, content_bytes=total)
        mids = [Midnode(sim, f"mid{i}", config) for i in range(3)]
        fan = MulticastMidnode(sim, "fan", config)
        fan.content = SimpleNamespace(object_of=lambda flow_id: "obj")
        chain = [producer, *mids, fan]
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            hop = DuplexLink(
                sim, a, b, rate_bps=20e6, delay_s=0.005, plr=0.02,
                rng_ab=rng.stream(f"h{i}ab"), rng_ba=rng.stream(f"h{i}ba"),
            )
            b.set_upstream(hop.ba)
        consumers = []
        for i, flow_id in enumerate(("shared", "shared", "other")):
            consumer = Consumer(sim, f"c{i}", flow_id, config, total_bytes=total)
            consumer.out_link = DuplexLink(
                sim, fan, consumer, rate_bps=20e6, delay_s=0.002,
            ).ba
            consumers.append(consumer)
        sim.schedule_at(0.15, mids[1].crash)
        sim.schedule_at(0.35, mids[1].restart)
        sim.run(until=30.0)

        assert all(c.finished for c in consumers)
        assert mids[1].stats.crashes == 1
        assert sum(m.stats.cache_responses for m in mids) > 0
        fanned = {key[0] for key in fan._fanout_senders}
        assert fanned == {"shared", "other"} and fan.fanout_packets > 0
        assert violations == []
