"""Tests for topology builders: chains, dumbbells, parallel-path facades."""

from types import SimpleNamespace

import pytest

from repro.faults import TimelineDriver
from repro.netsim.link import DuplexLink
from repro.netsim.node import ChainForwarder, Router, SinkNode, wire_chain_forwarders
from repro.netsim.packet import Packet
from repro.netsim.topology import (
    FirstUpLink,
    HopSpec,
    build_chain,
    build_dumbbell,
    uniform_chain_specs,
)
from repro.simcore import RngRegistry, Simulator


class TestHopSpec:
    def test_uniform_chain_specs(self):
        specs = uniform_chain_specs(3, rate_bps=5e6, delay_s=0.02, plr=0.01)
        assert len(specs) == 3
        assert all(s.rate_bps == 5e6 and s.plr == 0.01 for s in specs)

    def test_uniform_chain_specs_validation(self):
        with pytest.raises(ValueError):
            uniform_chain_specs(0)


class TestBuildChain:
    def test_node_hop_count_mismatch(self):
        sim = Simulator()
        nodes = [SinkNode(sim, f"n{i}") for i in range(3)]
        with pytest.raises(ValueError):
            build_chain(sim, nodes, [HopSpec()], RngRegistry(0))

    def test_links_connect_consecutive_nodes(self):
        sim = Simulator()
        nodes = [SinkNode(sim, f"n{i}") for i in range(3)]
        links = build_chain(sim, nodes, [HopSpec(), HopSpec()], RngRegistry(0))
        assert len(links) == 2
        assert links[0].node_a is nodes[0] and links[0].node_b is nodes[1]
        assert links[1].node_a is nodes[1] and links[1].node_b is nodes[2]


class TestChainForwarder:
    def test_forwards_in_both_directions(self):
        sim = Simulator()
        left = SinkNode(sim, "left")
        mid = ChainForwarder(sim, "mid")
        right = SinkNode(sim, "right")
        links = build_chain(
            sim, [left, mid, right], uniform_chain_specs(2), RngRegistry(0)
        )
        wire_chain_forwarders([left, mid, right], links)
        links[0].ab.send(Packet(100))  # left -> right direction
        links[1].ba.send(Packet(100))  # right -> left direction
        sim.run()
        assert len(right.received) == 1
        assert len(left.received) == 1
        assert mid.packets_forwarded == 2

    def test_endpoint_forwarder_rejected(self):
        sim = Simulator()
        fwd = ChainForwarder(sim, "f")
        other = SinkNode(sim, "s")
        links = build_chain(sim, [fwd, other], uniform_chain_specs(1), RngRegistry(0))
        with pytest.raises(ValueError):
            wire_chain_forwarders([fwd, other], links)


class TestRouter:
    def test_routes_by_destination(self):
        sim = Simulator()
        router = Router(sim, "r")
        a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
        from repro.netsim.link import Link

        la = Link(sim, a, name="to-a")
        lb = Link(sim, b, name="to-b")
        router.add_route("a", la)
        router.add_route("b", lb)
        router.receive(Packet(100, dst="b"), la)
        sim.run()
        assert len(b.received) == 1 and len(a.received) == 0

    def test_unrouted_counted(self):
        sim = Simulator()
        router = Router(sim, "r")
        router.receive(Packet(100, dst="nowhere"), None)
        assert router.packets_unrouted == 1


class TestDumbbell:
    def test_bidirectional_paths(self):
        sim = Simulator()
        rng = RngRegistry(0)
        s = [SinkNode(sim, f"s{i}") for i in range(2)]
        r = [SinkNode(sim, f"r{i}") for i in range(2)]
        bell = build_dumbbell(sim, s, r, rng, bottleneck=HopSpec(rate_bps=5e6))
        # Sender 0 -> receiver 0 via left router.
        bell.access_left[0].ab.send(Packet(100, src="s0", dst="r0"))
        # Receiver 1 -> sender 1 (reverse).
        bell.access_right[1].ba.send(Packet(100, src="r1", dst="s1"))
        sim.run()
        assert len(r[0].received) == 1
        assert len(s[1].received) == 1

    def test_flow_count_mismatch(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_dumbbell(
                sim, [SinkNode(sim, "s")], [], RngRegistry(0), HopSpec()
            )


def parallel_paths(sim, delays_s=(0.040, 0.045)):
    """Sink ``b`` and one duplex link a -> b per delay, with a facade
    over their forward members."""
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    paths = [DuplexLink(sim, a, b, delay_s=d) for d in delays_s]
    return b, paths, FirstUpLink([duplex.ab for duplex in paths])


class TestFirstUpLink:
    def test_up_member_carries_traffic(self):
        sim = Simulator()
        b, paths, link = parallel_paths(sim)
        assert link.send(Packet(100)) is True
        sim.run()
        assert len(b.received) == 1
        assert [d.ab.stats.packets_offered for d in paths] == [1, 0]

    def test_flipping_up_moves_traffic(self):
        sim = Simulator()
        b, paths, link = parallel_paths(sim)
        paths[0].ab.up = False
        link.send(Packet(100))
        sim.run()
        paths[0].ab.up = True
        link.send(Packet(100))
        sim.run()
        assert [d.ab.stats.packets_offered for d in paths] == [1, 1]
        # The 45 ms member first, then (sent on arrival) the 40 ms one.
        serialise = 100 * 8 / 10e6
        assert b.receive_times == [pytest.approx(0.045 + serialise),
                                   pytest.approx(0.085 + 2 * serialise)]


class TestSwitchBlackout:
    def test_new_path_down_during_blackout(self):
        # No member up: the first member takes the packet and drops it.
        sim = Simulator()
        b, paths, link = parallel_paths(sim)
        for duplex in paths:
            duplex.ab.up = False
        assert link.send(Packet(100)) is False
        assert paths[0].ab.stats.packets_dropped_flush == 1
        paths[1].ab.up = True
        assert link.send(Packet(100)) is True
        sim.run()
        assert len(b.received) == 1

    def test_zero_blackout_is_instantaneous(self):
        # Fig. 13's switch: at one instant the old path's hops go down,
        # flushing what they carry, and the new path's hops come up.
        from repro.experiments.fig13_link_switching import switch_timeline

        assert switch_timeline(1.0, 2.5, 2).entries == (
            (0.0, 2, "up", False), (0.0, 3, "up", False),
            (1.0, 0, "up", False), (1.0, 1, "up", False),
            (1.0, 2, "up", True), (1.0, 3, "up", True),
            (2.0, 2, "up", False), (2.0, 3, "up", False),
            (2.0, 0, "up", True), (2.0, 1, "up", True),
        )
        sim = Simulator()
        b, paths, link = parallel_paths(sim)
        TimelineDriver(sim, SimpleNamespace(links=paths),
                       switch_timeline(1.0, 1.5, 1))
        sim.schedule_at(0.99, link.send, Packet(100))  # in flight at 1.0
        sim.run(until=1.0)
        old, new = paths
        assert (old.ab.up, old.ba.up, new.ab.up, new.ba.up) == (
            False, False, True, True)
        assert old.ab.stats.packets_dropped_flush == 1
        link.send(Packet(100))
        sim.run()
        assert b.receive_times == [pytest.approx(1.045 + 100 * 8 / 10e6)]
