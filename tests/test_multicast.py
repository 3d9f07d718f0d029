"""Tests for the multicast extension (Interest aggregation + fan-out)."""

import pytest

from repro.core import Consumer, LeotpConfig, MulticastMidnode, Producer
from repro.netsim.link import DuplexLink
from repro.netsim.trace import FlowRecorder
from repro.simcore import Simulator


def build_multicast_tree(sim, n_consumers=2, total=50 * 1400, stagger=0.0):
    """n consumers <- midnode <- producer, all requesting the same flow.

    Returns the links too (upstream first, then one access link per
    consumer) so fault schedules can target them by position.
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


class _MulticastChaosPath:
    """Adapter exposing the multicast tree through the chaos path protocol.

    ``run_chaos`` arms invariants on ``consumer`` (the first one) and
    registers ``links``/``nodes`` with the fault injector; the extra
    consumers ride along for post-run asserts.
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
        from repro.faults import FaultSchedule, LinkDown, run_chaos

        schedule = FaultSchedule([
            LinkDown(at_s=0.3, link="hop0", duration_s=0.4),
        ])
        result = run_chaos(
            schedule, self._builder(), duration_s=30.0, seed=3
        )
        result.assert_ok()
        assert result.completed
        # Every consumer (not just the monitored one) got the whole flow.
        assert all(c.finished for c in result.path.consumers)
        assert any("hop0 DOWN" in action for _, action in result.fault_log)

    def test_midnode_crash_recovers(self):
        from repro.faults import FaultSchedule, NodeCrash, run_chaos

        schedule = FaultSchedule([
            NodeCrash(at_s=0.3, node="mid", restart_after_s=0.4),
        ])
        result = run_chaos(
            schedule, self._builder(), duration_s=30.0, seed=3
        )
        result.assert_ok()
        assert all(c.finished for c in result.path.consumers)
        actions = [action for _, action in result.fault_log]
        assert any("mid CRASHED" in a for a in actions)
        assert any("mid restarted" in a for a in actions)
