"""Tests for links: serialisation, queueing, loss, flushing, duplexes."""

import pytest

from repro.netsim.bandwidth import SquareWaveBandwidth
from repro.netsim.link import DuplexLink, Link
from repro.netsim.node import SinkNode
from repro.netsim.packet import Packet
from repro.simcore import RngRegistry, Simulator


def make_link(sim, sink, **kwargs):
    defaults = dict(rate_bps=8e6, delay_s=0.01)
    defaults.update(kwargs)
    return Link(sim, sink, **defaults)


class TestPacket:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Packet(0)

    def test_unique_uids(self):
        assert Packet(10).uid != Packet(10).uid


class TestLinkTiming:
    def test_delivery_time_is_serialisation_plus_propagation(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)  # 8 Mbps, 10 ms
        link.send(Packet(1000))  # 1000B at 8Mbps = 1 ms
        sim.run()
        assert sink.receive_times == [pytest.approx(0.011)]

    def test_back_to_back_packets_serialise_sequentially(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        link.send(Packet(1000))
        link.send(Packet(1000))
        sim.run()
        assert sink.receive_times == [pytest.approx(0.011), pytest.approx(0.012)]

    def test_rate_profile_affects_serialisation(self):
        sim = Simulator()
        sink = SinkNode(sim)
        # Square wave 8/4 Mbps-amplitude: first half-period is 12 Mbps.
        profile = SquareWaveBandwidth(8e6, 4e6, period_s=2.0)
        link = Link(sim, sink, delay_s=0.0, profile=profile)
        link.send(Packet(1500))  # 1500*8/12e6 = 1 ms
        sim.run()
        assert sink.receive_times == [pytest.approx(0.001)]

    def test_delay_change_applies_to_new_packets(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, delay_s=0.010)
        link.send(Packet(1000))
        sim.run()
        link.delay_s = 0.050
        link.send(Packet(1000))
        sim.run()
        # Second send starts at t=0.011 (after the first delivery), takes
        # 1 ms serialisation + 50 ms propagation -> arrives at 0.062.
        assert sink.receive_times[1] - sink.receive_times[0] == pytest.approx(0.051)


class TestLinkQueueing:
    def test_queue_overflow_drops(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, queue_bytes=2000)
        for _ in range(5):
            link.send(Packet(1000))
        sim.run()
        # 1 in transmission + 2 queued; 2 dropped.
        assert len(sink.received) == 3
        assert link.stats.packets_dropped_queue == 2

    def test_unbounded_queue(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, queue_bytes=None)
        for _ in range(50):
            link.send(Packet(1000))
        sim.run()
        assert len(sink.received) == 50

    def test_queued_bytes_tracking(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        link.send(Packet(1000))
        link.send(Packet(500))
        assert link.queued_bytes == 500  # first is in transmission
        sim.run()
        assert link.queued_bytes == 0

    def test_flush_drops_queue(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        for _ in range(4):
            link.send(Packet(1000))
        dropped = link.flush()
        assert dropped == 3  # in-transmission packet survives
        sim.run()
        assert len(sink.received) == 1
        assert link.stats.packets_dropped_flush == 3

    def test_flush_with_inflight(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        link.send(Packet(1000))
        sim.run(until=0.005)  # serialised (1ms), now propagating
        link.flush(drop_inflight=True)
        sim.run()
        assert sink.received == []

    def test_down_link_blackholes(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        link.up = False
        assert link.send(Packet(1000)) is False
        sim.run()
        assert sink.received == []


class TestLinkLoss:
    def test_zero_plr_delivers_everything(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        for _ in range(200):
            link.send(Packet(100))
        sim.run()
        assert len(sink.received) == 200

    def test_loss_rate_statistics(self):
        sim = Simulator()
        rng = RngRegistry(3)
        sink = SinkNode(sim)
        link = make_link(sim, sink, plr=0.2, rng=rng.stream("l"), queue_bytes=None)
        n = 5000
        for _ in range(n):
            link.send(Packet(100))
        sim.run()
        observed = link.stats.packets_dropped_loss / n
        assert 0.17 < observed < 0.23

    def test_plr_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, SinkNode(sim), plr=0.1)

    def test_plr_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, SinkNode(sim), plr=1.0, rng=RngRegistry(0).stream("x"))


class TestLinkStats:
    def test_byte_accounting(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink)
        link.send(Packet(1000))
        link.send(Packet(500))
        sim.run()
        assert link.stats.bytes_offered == 1500
        assert link.stats.bytes_delivered == 1500
        assert link.stats.packets_delivered == 2

    def test_utilisation(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, rate_bps=8e6, delay_s=0.0)
        link.send(Packet(1000))  # 1 ms busy
        sim.run(until=0.01)
        assert link.stats.utilisation(0.01) == pytest.approx(0.1)


class TestDuplexLink:
    def test_both_directions_work(self):
        sim = Simulator()
        a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
        duplex = DuplexLink(sim, a, b, rate_bps=8e6, delay_s=0.01)
        duplex.ab.send(Packet(100))
        duplex.ba.send(Packet(100))
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_reply_link_wiring(self):
        sim = Simulator()
        a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
        duplex = DuplexLink(sim, a, b)
        assert duplex.ab.reply_link is duplex.ba
        assert duplex.ba.reply_link is duplex.ab

    def test_link_towards(self):
        sim = Simulator()
        a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
        duplex = DuplexLink(sim, a, b)
        assert duplex.link_towards(b) is duplex.ab
        assert duplex.link_towards(a) is duplex.ba
        with pytest.raises(ValueError):
            duplex.link_towards(SinkNode(sim, "c"))

    def test_set_delay_updates_both(self):
        sim = Simulator()
        duplex = DuplexLink(sim, SinkNode(sim, "a"), SinkNode(sim, "b"))
        duplex.set_delay(0.123)
        assert duplex.ab.delay_s == 0.123
        assert duplex.ba.delay_s == 0.123


class TestDelayShrinkReorder:
    """Regression: a shrinking delay_s reorders packets already in flight.

    This is the LEO handover phenomenon — after a path switch the new
    satellite is closer, so packets launched later arrive earlier.  The
    link deliberately models each packet's propagation independently; the
    protocol layers (SHR disorder thresholds, duplicate absorption) are
    what must tolerate the resulting reordering.
    """

    def test_shrinking_delay_reorders_in_flight(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, delay_s=0.05)
        first, second = Packet(1000), Packet(1000)
        link.send(first)  # serialises in 1 ms, arrives at 0.051

        def shrink_and_send():
            link.delay_s = 0.001
            link.send(second)  # arrives at ~0.004, overtaking `first`

        sim.schedule_at(0.002, shrink_and_send)
        sim.run()
        assert [p.uid for p in sink.received] == [second.uid, first.uid]
        assert sink.receive_times == sorted(sink.receive_times)

    def test_growing_delay_preserves_order(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, delay_s=0.001)
        first, second = Packet(1000), Packet(1000)
        link.send(first)

        def grow_and_send():
            link.delay_s = 0.05
            link.send(second)

        sim.schedule_at(0.002, grow_and_send)
        sim.run()
        assert [p.uid for p in sink.received] == [first.uid, second.uid]


class TestNodeHandler:
    def test_node_without_handler_raises(self):
        from repro.netsim.node import Node

        sim = Simulator()
        node = Node(sim, "n")
        link = make_link(sim, node)
        link.send(Packet(100))
        with pytest.raises(NotImplementedError):
            sim.run()
