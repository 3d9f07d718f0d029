"""Focused tests for Producer / Consumer / Midnode behaviours."""

import pytest

from repro.common.ranges import ByteRange
from repro.core import (
    Consumer,
    DataPacket,
    Interest,
    LeotpConfig,
    Midnode,
    Producer,
    build_leotp_path,
)
from repro.netsim.link import DuplexLink
from repro.netsim.node import SinkNode
from repro.netsim.packet import Packet
from repro.netsim.topology import uniform_chain_specs
from repro.simcore import RngRegistry, Simulator


def one_hop_pair(sim, config=None, content=None):
    """Producer <-> Consumer over a single clean hop."""
    config = config or LeotpConfig()
    producer = Producer(sim, "prod", config, content_bytes=content)
    consumer = Consumer(sim, "cons", "flow", config, total_bytes=content)
    link = DuplexLink(sim, producer, consumer, rate_bps=50e6, delay_s=0.005)
    consumer.out_link = link.ba
    return producer, consumer, link


class TestProducer:
    def test_answers_interest_with_data(self):
        sim = Simulator()
        producer, consumer, link = one_hop_pair(sim, content=2800)
        sim.run(until=1.0)
        assert consumer.finished
        assert consumer.bytes_received == 2800

    def test_clips_to_content_length(self):
        sim = Simulator()
        config = LeotpConfig()
        producer = Producer(sim, "prod", config, content_bytes=1000)
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, producer, rate_bps=50e6, delay_s=0.001)
        link.ab.send(Interest("f", ByteRange(0, 1400), 0.0, 1e6))
        link.ab.send(Interest("f", ByteRange(2000, 3400), 0.0, 1e6))
        sim.run(until=1.0)
        data = [p for p in sink.received if isinstance(p, DataPacket)]
        assert sum(p.payload_bytes for p in data) == 1000

    def test_re_requested_range_marked_retransmitted(self):
        sim = Simulator()
        config = LeotpConfig()
        producer = Producer(sim, "prod", config)
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, producer, rate_bps=50e6, delay_s=0.001)
        link.ab.send(Interest("f", ByteRange(0, 1400), 0.0, 1e6))
        sim.run(until=0.5)
        link.ab.send(Interest("f", ByteRange(0, 1400), sim.now, 1e6))
        sim.run(until=1.0)
        data = [p for p in sink.received if isinstance(p, DataPacket)]
        assert [p.retransmitted for p in data] == [False, True]
        # The retransmitted copy carries the ORIGINAL first-send timestamp.
        assert data[1].origin_ts == pytest.approx(data[0].origin_ts)

    @pytest.mark.parametrize("responder", ["producer", "midnode"])
    def test_duplicate_interest_absorbed_while_queued(self, responder):
        """Both Responders make one copy decision, seen on the wire: a
        queued range is absorbed; a re-request within one echoed hopRTT
        of the copy's departure is suppressed and one after it is served;
        a VPH is never absorbed (a Producer sends none); and Data echoes
        the 1/8 EWMA of the Interest delays, the first sample as is."""
        sim = Simulator()
        config = LeotpConfig()
        sink = SinkNode(sim, "sink")
        # One 1400-byte chunk per 4 KiB cache block, so a Midnode answers
        # each with one piece.
        chunks = [ByteRange(4096 * k, 4096 * k + 1400) for k in range(4)]
        if responder == "producer":
            node = Producer(sim, "prod", config)
        else:
            node = Midnode(sim, "mid", config)
            up = DuplexLink(sim, SinkNode(sim, "up"), node, 50e6, 0.001)
            node.set_upstream(up.ba)
            for chunk in chunks:  # a warm cache: every answer is a re-serve
                node.cache.store("f", chunk, 0.0, writer="f")
        down = DuplexLink(sim, sink, node, rate_bps=50e6, delay_s=0.001)
        # The 3-packet burst covers chunks 0-2; chunk 3 then waits ~0.1 s.
        rate = 14_430.0
        delays = []

        def ask(at, chunk, age):
            interest = Interest("f", chunk, at - age, rate)
            delays.append(age + interest.size_bytes * 8 / 50e6 + 0.001)
            sim.schedule_at(at, down.ab.send, interest)

        for k, chunk in enumerate(chunks):
            ask(0.001 * k, chunk, 0.01 * (k + 1))
        ask(0.004, chunks[3], 0.05)  # still queued: absorbed
        ask(0.005, chunks[0], 0.06)  # left ~4 ms ago: suppressed
        if responder == "midnode":  # a VPH for the queued range passes
            vph = DataPacket("f", chunks[3], 0.005, is_header=True)
            sim.schedule_at(0.005, up.ab.send, vph)
        ask(0.3, chunks[0], 0.07)  # past the window: served again
        sim.run(until=1.0)

        data = [p for p in sink.received if not p.is_header]
        assert [p.range for p in data] == chunks + [chunks[0]]
        assert data[-1].retransmitted
        vphs = [p.range for p in sink.received if p.is_header]
        assert vphs == ([chunks[3]] if responder == "midnode" else [])
        ewma = [delays[0]]
        for delay in delays[1:]:
            ewma.append(ewma[-1] + (delay - ewma[-1]) / 8.0)
        # Chunk 3 leaves after the 6th Interest, the re-serve after the 7th.
        expected = [ewma[0], ewma[1], ewma[2], ewma[5], ewma[6]]
        assert [p.echo_interest_owd for p in data] == pytest.approx(
            expected, rel=1e-9
        )

    def test_requires_reply_link(self):
        sim = Simulator()
        producer = Producer(sim, "prod", LeotpConfig())
        from repro.netsim.link import Link

        bare = Link(sim, producer, rate_bps=1e6, delay_s=0.001)
        bare.send(Interest("f", ByteRange(0, 100), 0.0, 1e6))
        with pytest.raises(RuntimeError):
            sim.run(until=1.0)


class TestConsumer:
    def test_final_partial_chunk_requested(self):
        sim = Simulator()
        producer, consumer, link = one_hop_pair(sim, content=3000)  # 2x1400+200
        sim.run(until=2.0)
        assert consumer.finished
        assert consumer.bytes_received == 3000

    def test_vph_postpones_tr_deadline(self):
        sim = Simulator()
        config = LeotpConfig()
        consumer = Consumer(sim, "cons", "flow", config, total_bytes=1400)
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        sim.run(until=0.05)  # one interest is now outstanding
        state = next(iter(consumer._outstanding.values()))
        deadline_before = state.deadline
        vph = DataPacket("flow", ByteRange(0, 1400), sim.now, is_header=True)
        link.ab.send(vph)
        sim.run(until=0.1)
        assert state.deadline > deadline_before
        assert consumer.vph_received == 1

    def test_tr_resends_unanswered_interest(self):
        sim = Simulator()
        config = LeotpConfig()
        consumer = Consumer(sim, "cons", "flow", config, total_bytes=1400)
        sink = SinkNode(sim, "sink")  # black hole: never answers
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        sim.run(until=3.0)
        interests = [p for p in sink.received if isinstance(p, Interest)]
        assert len(interests) >= 2
        assert any(i.is_retransmission for i in interests)
        assert consumer.tr_expirations >= 1

    def test_tr_gives_up_after_max_retries(self):
        sim = Simulator()
        config = LeotpConfig(tr_max_retries=2, tr_initial_rto_s=0.1)
        consumer = Consumer(sim, "cons", "flow", config, total_bytes=1400)
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        sim.run(until=20.0)
        state = next(iter(consumer._outstanding.values()))
        assert state.retries == 2

    def test_duplicate_data_not_recorded_twice(self):
        sim = Simulator()
        from repro.netsim.trace import FlowRecorder

        config = LeotpConfig()
        rec = FlowRecorder(sim)
        consumer = Consumer(sim, "cons", "flow", config, recorder=rec)
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        for _ in range(2):
            link.ab.send(DataPacket("flow", ByteRange(0, 1400), sim.now))
        sim.run(until=0.5)
        assert rec.total_bytes == 1400

    def test_stop_time_halts_activity(self):
        sim = Simulator()
        config = LeotpConfig()
        consumer = Consumer(sim, "cons", "flow", config, stop_time=0.2)
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        sim.run(until=0.2)
        count_at_stop = consumer.interests_sent
        sim.run(until=2.0)
        assert consumer.interests_sent == count_at_stop


class TestMidnode:
    def build_triple(self, sim, config=None):
        """consumer -- midnode -- producer, individually wired."""
        config = config or LeotpConfig()
        producer = Producer(sim, "prod", config)
        midnode = Midnode(sim, "mid", config)
        consumer = Consumer(sim, "cons", "flow", config, total_bytes=5 * 1400)
        up = DuplexLink(sim, producer, midnode, rate_bps=50e6, delay_s=0.005)
        down = DuplexLink(sim, midnode, consumer, rate_bps=50e6, delay_s=0.005)
        consumer.out_link = down.ba
        midnode.set_upstream(up.ba)
        return producer, midnode, consumer

    def test_forwards_interests_and_data(self):
        sim = Simulator()
        producer, midnode, consumer = self.build_triple(sim)
        sim.run(until=2.0)
        assert consumer.finished
        assert midnode.stats.interests_forwarded >= 5
        assert midnode.stats.data_forwarded >= 5

    def test_cache_answers_re_request_locally(self):
        sim = Simulator()
        config = LeotpConfig()
        producer, midnode, consumer = self.build_triple(sim, config)
        sim.run(until=2.0)
        forwarded_before = midnode.stats.interests_forwarded
        # Re-request a range the midnode has cached.
        retx = Interest("flow", ByteRange(0, 1400), sim.now, 1e6,
                        is_retransmission=True)
        consumer.out_link.send(retx)
        sim.run(until=3.0)
        assert midnode.stats.cache_responses >= 1
        assert midnode.stats.interests_forwarded == forwarded_before

    def test_no_cache_flag_always_forwards(self):
        sim = Simulator()
        config = LeotpConfig(enable_cache=False)
        producer, midnode, consumer = self.build_triple(sim, config)
        sim.run(until=2.0)
        retx = Interest("flow", ByteRange(0, 1400), sim.now, 1e6)
        consumer.out_link.send(retx)
        sim.run(until=3.0)
        assert midnode.stats.cache_responses == 0
        assert midnode.cache.stored_bytes == 0

    def test_requires_upstream_configuration(self):
        sim = Simulator()
        config = LeotpConfig()
        midnode = Midnode(sim, "mid", config)
        consumer = Consumer(sim, "cons", "flow", config, total_bytes=1400)
        down = DuplexLink(sim, midnode, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = down.ba
        with pytest.raises(RuntimeError):
            sim.run(until=1.0)

    def test_per_flow_upstream_routing(self):
        sim = Simulator()
        config = LeotpConfig()
        midnode = Midnode(sim, "mid", config)
        prod_a = Producer(sim, "pa", config)
        prod_b = Producer(sim, "pb", config)
        link_a = DuplexLink(sim, prod_a, midnode, rate_bps=50e6, delay_s=0.001)
        link_b = DuplexLink(sim, prod_b, midnode, rate_bps=50e6, delay_s=0.001)
        cons_a = Consumer(sim, "ca", "flow-a", config, total_bytes=1400)
        cons_b = Consumer(sim, "cb", "flow-b", config, total_bytes=1400)
        down_a = DuplexLink(sim, midnode, cons_a, rate_bps=50e6, delay_s=0.001)
        down_b = DuplexLink(sim, midnode, cons_b, rate_bps=50e6, delay_s=0.001)
        cons_a.out_link = down_a.ba
        cons_b.out_link = down_b.ba
        midnode.set_upstream(link_a.ba, flow_id="flow-a")
        midnode.set_upstream(link_b.ba, flow_id="flow-b")
        sim.run(until=2.0)
        assert cons_a.finished and cons_b.finished
        assert prod_a.interests_received > 0
        assert prod_b.interests_received > 0

    def test_vph_generated_on_hole(self):
        sim = Simulator()
        config = LeotpConfig()
        midnode = Midnode(sim, "mid", config)
        upstream_sink = SinkNode(sim, "up")
        downstream_sink = SinkNode(sim, "down")
        up = DuplexLink(sim, upstream_sink, midnode, rate_bps=50e6, delay_s=0.001)
        down = DuplexLink(sim, midnode, downstream_sink, rate_bps=50e6, delay_s=0.001)
        midnode.set_upstream(up.ba)
        # Teach the midnode its downstream route with one interest.
        down.ba.send(Interest("flow", ByteRange(0, 1400), 0.0, 1e6))
        sim.run(until=0.1)
        # Data arrives with a gap: [0,1400) then [2800,4200).
        up.ab.send(DataPacket("flow", ByteRange(0, 1400), sim.now))
        up.ab.send(DataPacket("flow", ByteRange(2800, 4200), sim.now))
        sim.run(until=0.5)
        vphs = [
            p for p in downstream_sink.received
            if isinstance(p, DataPacket) and p.is_header
        ]
        assert len(vphs) == 1
        assert vphs[0].range == ByteRange(1400, 2800)
        # VPH must precede the out-of-order packet that triggered it.
        idx_vph = downstream_sink.received.index(vphs[0])
        data_oo = [
            p for p in downstream_sink.received
            if isinstance(p, DataPacket) and not p.is_header
            and p.range.start == 2800
        ][0]
        assert idx_vph < downstream_sink.received.index(data_oo)

    def test_crashed_node_drops_without_touching_flow_state(self):
        sim = Simulator()
        producer, midnode, consumer = self.build_triple(sim)
        midnode.crash()
        interest = Interest("flow", ByteRange(0, 1400), 0.0, 1e6)
        data = DataPacket("flow", ByteRange(0, 1400), 0.0)
        for packet in (interest, data, Packet(100)):
            midnode.receive(packet, consumer.out_link)
        assert midnode.packets_dropped_crashed == 3
        assert midnode.packets_received == 0
        assert midnode._flows == {} and midnode.cache.stored_bytes == 0
        assert midnode.stats.interests_received == midnode.stats.data_received == 0

    def test_receive_dispatch(self):
        """The wire types go straight to their handlers; a subclass of
        one, and any other packet, still reaches ``on_receive`` (which
        serves the first and ignores the second)."""
        class TaggedInterest(Interest):
            __slots__ = ()

        sim = Simulator()
        producer, midnode, consumer = self.build_triple(sim)
        seen = []
        on_receive = midnode.on_receive
        midnode.on_receive = lambda pkt, link: (seen.append(pkt), on_receive(pkt, link))
        plain = Interest("flow", ByteRange(0, 1400), 0.0, 1e6)
        tagged = TaggedInterest("flow", ByteRange(1400, 2800), 0.0, 1e6)
        other = Packet(100)
        for packet in (plain, tagged, other):
            midnode.receive(packet, consumer.out_link)
        assert seen == [tagged, other]
        assert midnode.packets_received == 3
        assert midnode.stats.interests_received == 2


class TestEndToEndWiring:
    def test_build_leotp_path_validates(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_leotp_path(sim, RngRegistry(0), [])

    def test_flow_metrics_exposed(self):
        sim = Simulator()
        path = build_leotp_path(
            sim, RngRegistry(1), uniform_chain_specs(2, rate_bps=20e6),
            total_bytes=14_000,
        )
        sim.run(until=5.0)
        assert path.consumer.finished
        assert path.producer.data_packets_sent >= 10
        assert path.midnodes[0].stats.data_received >= 10


class TestConsumerDeliveryCallback:
    def test_in_order_delivery_callback(self):
        """The deliver callback receives contiguous in-order bytes even when
        packets arrive out of order."""
        sim = Simulator()
        config = LeotpConfig()
        chunks = []
        consumer = Consumer(
            sim, "cons", "flow", config, total_bytes=4200,
            deliver=lambda n, ts: chunks.append(n),
        )
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        # Deliver out of order: [1400,2800) before [0,1400).
        link.ab.send(DataPacket("flow", ByteRange(1400, 2800), 0.0))
        link.ab.send(DataPacket("flow", ByteRange(0, 1400), 0.0))
        link.ab.send(DataPacket("flow", ByteRange(2800, 4200), 0.0))
        sim.run(until=1.0)
        assert sum(chunks) == 4200
        # First callback fires only once the head-of-line hole is filled.
        assert chunks[0] == 2800


class TestKarnsRuleAndBackoff:
    """TR timer hygiene at the Consumer: Karn's rule and backoff clamping."""

    def _consumer_with_blackhole(self, total_bytes=2800, config=None):
        sim = Simulator()
        config = config or LeotpConfig()
        consumer = Consumer(sim, "cons", "flow", config, total_bytes=total_bytes)
        sink = SinkNode(sim, "sink")  # absorbs Interests, never answers
        link = DuplexLink(sim, sink, consumer, rate_bps=50e6, delay_s=0.001)
        consumer.out_link = link.ba
        return sim, consumer, link

    def test_clean_interest_feeds_rtt_estimator(self):
        sim, consumer, link = self._consumer_with_blackhole()
        sim.run(until=0.05)
        assert consumer.rto.samples == 0
        link.ab.send(DataPacket("flow", ByteRange(0, 1400), sim.now))
        sim.run(until=0.1)
        assert consumer.rto.samples == 1
        assert consumer.rto.srtt_s is not None

    def test_karns_rule_skips_retried_interests(self):
        sim, consumer, link = self._consumer_with_blackhole()
        sim.run(until=0.05)
        # Mark the second Interest ambiguous, as if TR had re-sent it.
        consumer._outstanding[1400].retries = 1
        link.ab.send(DataPacket("flow", ByteRange(1400, 2800), sim.now))
        sim.run(until=0.1)
        assert consumer.rto.samples == 0  # retried: no sample taken
        assert 1400 not in consumer._outstanding  # but still satisfied

    def test_karn_rtt_measured_from_last_send(self):
        """The one sample a clean Interest yields spans last_sent -> now,
        not first_sent -> now (which would fold queueing history in)."""
        sim, consumer, link = self._consumer_with_blackhole()
        sim.run(until=0.05)
        state = consumer._outstanding[0]
        assert state.last_sent == state.first_sent  # never retried
        link.ab.send(DataPacket("flow", ByteRange(0, 1400), sim.now))
        sim.run(until=0.1)
        measured = consumer.rto.srtt_s
        assert measured == pytest.approx(sim.now - state.first_sent, abs=0.05)

    def test_backoff_deadline_clamped_at_max_rto(self):
        sim, consumer, link = self._consumer_with_blackhole()
        sim.run(until=0.05)
        state = consumer._outstanding[0]
        # Deep into an outage the uncapped product 0.5 * 1.5**30 would be
        # ~96 000 s; the deadline must stay within max_rto of now.
        state.retries = 30
        consumer._send_interest(state.rng, retransmission=True)
        assert state.retries == 31
        timeout = state.deadline - sim.now
        assert timeout == pytest.approx(consumer.rto.max_rto_s)

    def test_backoff_grows_until_clamped(self):
        sim, consumer, link = self._consumer_with_blackhole()
        sim.run(until=0.05)
        state = consumer._outstanding[0]
        timeouts = []
        for _ in range(40):
            consumer._send_interest(state.rng, retransmission=True)
            timeouts.append(state.deadline - sim.now)
        # Monotone non-decreasing, strictly growing early, capped late.
        assert all(b >= a - 1e-12 for a, b in zip(timeouts, timeouts[1:]))
        assert timeouts[1] > timeouts[0]
        assert timeouts[-1] == pytest.approx(consumer.rto.max_rto_s)

    @pytest.mark.parametrize("later_data", [False, True])
    @pytest.mark.parametrize("vph", [False, True])
    def test_a_request_overtaken_by_later_data_is_sent_again(self, vph, later_data):
        """RACK for repeats and for repairs a VPH announced (a VPH counts as
        a send): once Data arrives for an Interest sent after it, the
        request is lost when that Interest's RTT (plus a quarter of the
        path's) has passed; without such Data a repeat waits its x1.5
        backoff and a VPH its one-RTO postponement."""
        sim, consumer, link = self._consumer_with_blackhole(total_bytes=4200)
        sim.run(until=0.45)
        if vph:
            link.ab.send(DataPacket("flow", ByteRange(0, 1400), sim.now, is_header=True))
        sim.run(until=0.6)  # TR re-sent every Interest the VPH did not hold
        first, last = consumer._outstanding[0], consumer._outstanding[2800]
        base = 0 if vph else 1
        assert first.retries == base and last.retries == 1
        assert last.sent_no > first.sent_no
        if later_data:  # the repeat sent after ``first`` comes back
            link.ab.send(DataPacket("flow", ByteRange(2800, 4200), sim.now))
        sim.run(until=0.8)
        assert first.retries == base + later_data
        sim.run(until=1.3)
        assert first.retries == base + 1

    def test_max_retries_bounds_retries_under_long_outage(self):
        sim, consumer, link = self._consumer_with_blackhole(
            config=LeotpConfig(tr_max_retries=5, tr_initial_rto_s=0.05)
        )
        sim.run(until=30.0)
        assert consumer.max_interest_retries <= 5
