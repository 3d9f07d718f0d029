"""Tests for the TCP <-> LEOTP gateway bridge and the streaming producer."""

import pytest

from repro.common.ranges import ByteRange
from repro.core import Consumer, Interest, LeotpConfig
from repro.gateway import StreamingProducer, build_gateway_path
from repro.netsim.link import DuplexLink
from repro.netsim.node import SinkNode
from repro.netsim.topology import HopSpec, uniform_chain_specs
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc import CCSpec


class TestStreamingProducer:
    def make(self, sim):
        producer = StreamingProducer(sim, "prod", LeotpConfig())
        sink = SinkNode(sim, "sink")
        link = DuplexLink(sim, sink, producer, rate_bps=50e6, delay_s=0.001)
        return producer, sink, link

    def test_serves_available_content(self):
        sim = Simulator()
        producer, sink, link = self.make(sim)
        producer.append(1400)
        link.ab.send(Interest("f", ByteRange(0, 1400), 0.0, 1e6))
        sim.run(until=0.5)
        assert sum(getattr(p, "payload_bytes", 0) for p in sink.received) == 1400

    def test_parks_future_interest_until_append(self):
        sim = Simulator()
        producer, sink, link = self.make(sim)
        link.ab.send(Interest("f", ByteRange(0, 1400), 0.0, 1e6))
        sim.run(until=0.2)
        assert sink.received == []  # nothing to serve yet
        producer.append(1400)
        sim.run(until=0.5)
        assert sum(getattr(p, "payload_bytes", 0) for p in sink.received) == 1400

    def test_partial_availability_served_incrementally(self):
        sim = Simulator()
        producer, sink, link = self.make(sim)
        link.ab.send(Interest("f", ByteRange(0, 1400), 0.0, 1e6))
        sim.run(until=0.1)
        producer.append(700)   # first half only
        sim.run(until=0.3)
        first = sum(getattr(p, "payload_bytes", 0) for p in sink.received)
        assert first == 700
        producer.append(700)
        sim.run(until=0.6)
        total = sum(getattr(p, "payload_bytes", 0) for p in sink.received)
        assert total == 1400

    def test_finalise_drops_out_of_range(self):
        sim = Simulator()
        producer, sink, link = self.make(sim)
        producer.append(1000)
        producer.finalise()
        link.ab.send(Interest("f", ByteRange(2000, 3400), 0.0, 1e6))
        sim.run(until=0.5)
        assert sink.received == []

    def test_append_validation(self):
        sim = Simulator()
        producer, _, _ = self.make(sim)
        with pytest.raises(ValueError):
            producer.append(0)
        producer.finalise()
        with pytest.raises(RuntimeError):
            producer.append(100)


class TestGatewayBridge:
    def run_bridge(self, total=1_000_000, leo_plr=0.01, until=60.0,
                   terrestrial=None, n_hops=4, seed=5):
        sim = Simulator()
        rng = RngRegistry(seed)
        path = build_gateway_path(
            sim, rng, total_bytes=total,
            leo_hops=uniform_chain_specs(
                n_hops, rate_bps=20e6, delay_s=0.010, plr=leo_plr
            ),
            terrestrial_spec=terrestrial,
        )
        sim.run(until=until)
        return path

    def test_end_to_end_delivery(self):
        path = self.run_bridge()
        assert path.server.finished
        assert path.client.bytes_delivered == 1_000_000

    def test_delivery_despite_satellite_loss(self):
        path = self.run_bridge(leo_plr=0.03)
        assert path.client.bytes_delivered == 1_000_000

    def test_leotp_segment_repairs_locally(self):
        path = self.run_bridge(leo_plr=0.02)
        from repro.core import Midnode

        mids = [s for s in path.satellites if isinstance(s, Midnode)]
        assert sum(m.stats.retx_interests_sent for m in mids) > 0

    def test_slow_terrestrial_parks_interests(self):
        """If the LEO segment outruns the terrestrial ingest, the streaming
        producer must park Interests instead of dropping them."""
        path = self.run_bridge(
            total=500_000,
            terrestrial=HopSpec(rate_bps=2e6, delay_s=0.005),
            until=90.0,
        )
        assert path.client.bytes_delivered == 500_000
        assert path.ingress.producer.parked_peak > 0

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_gateway_path(
                sim, RngRegistry(0), total_bytes=0,
                leo_hops=uniform_chain_specs(2),
            )


class TestGatewayChaos:
    """Fault injection on the bridged path (LEO blackout + satellite crash).

    ``GatewayPath`` exposes ``links``/``consumer``/``producer``/``midnodes``
    so ``run_chaos(schedule, build)`` can arm its invariant monitor on
    the LEOTP segment and target LEO hops / satellites by name.
    """

    TOTAL = 400_000

    def _builder(self, n_hops=3):
        def build(sim, rng):
            return build_gateway_path(
                sim, rng, total_bytes=self.TOTAL,
                leo_hops=uniform_chain_specs(
                    n_hops, rate_bps=20e6, delay_s=0.008
                ),
            )

        return build

    def test_leo_blackout_recovers(self):
        from repro.faults import FaultSchedule, LinkDown, run_chaos

        schedule = FaultSchedule([
            LinkDown(at_s=0.5, link="hop1", duration_s=0.5),
        ])
        result = run_chaos(
            schedule, self._builder(), duration_s=25.0, seed=2
        )
        result.assert_ok()
        assert result.completed
        # The terrestrial client got every byte despite the LEO outage.
        assert result.path.client.bytes_delivered == self.TOTAL
        assert any("hop1 DOWN" in action for _, action in result.fault_log)

    def test_satellite_crash_recovers(self):
        from repro.faults import FaultSchedule, NodeCrash, run_chaos

        schedule = FaultSchedule([
            NodeCrash(at_s=0.5, node="sat0", restart_after_s=0.5),
        ])
        result = run_chaos(
            schedule, self._builder(), duration_s=25.0, seed=2
        )
        result.assert_ok()
        assert result.completed
        assert result.path.client.bytes_delivered == self.TOTAL
        actions = [action for _, action in result.fault_log]
        assert any("sat0 CRASHED" in a for a in actions)
        assert any("sat0 restarted" in a for a in actions)


def test_bridge_over_paced_cc_is_byte_exact():
    """The egress gateway feeds its TCP sender through ``kick()``."""
    sim = Simulator()
    path = build_gateway_path(
        sim, RngRegistry(5), total_bytes=300_000,
        leo_hops=uniform_chain_specs(3, rate_bps=20e6, delay_s=0.010, plr=0.01),
        tcp_cc=CCSpec("bbr"),
    )
    sim.run(until=60.0)
    assert path.server.finished
    assert path.client.bytes_delivered == 300_000
