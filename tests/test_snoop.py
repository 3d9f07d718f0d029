"""Tests for the Snoop proxy baseline."""

import pytest

from repro.netsim.link import DuplexLink
from repro.netsim.topology import HopSpec, build_chain
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp import FiniteStream, TcpReceiver, TcpSender
from repro.tcp.snoop import SnoopProxy
from repro.tcp.cc import CCSpec


def build_snoop_path(sim, rng, last_hop_plr=0.02, first_hop_plr=0.0,
                     total=300_000, cc=CCSpec("cubic")):
    """sender --clean hop-- snoop --lossy hop-- receiver."""
    recorder = FlowRecorder(sim)
    sender = TcpSender(sim, "snd", "rcv", None, cc,
                       stream=FiniteStream(total) if total else None,
                       flow_id="f")
    snoop = SnoopProxy(sim, "snoop")
    receiver = TcpReceiver(sim, "rcv", None, recorder=recorder, flow_id="f")
    links = build_chain(
        sim, [sender, snoop, receiver],
        [
            HopSpec(rate_bps=20e6, delay_s=0.02, plr=first_hop_plr),
            HopSpec(rate_bps=20e6, delay_s=0.005, plr=last_hop_plr),
        ],
        rng,
    )
    sender.out_link = links[0].ab
    receiver.out_link = links[1].ba
    snoop.connect(
        from_sender=links[0].ab, to_receiver=links[1].ab,
        from_receiver=links[1].ba, to_sender=links[0].ba,
    )
    return sender, snoop, receiver, recorder


class TestSnoopProxy:
    def test_clean_passthrough(self):
        sim = Simulator()
        sender, snoop, receiver, _ = build_snoop_path(
            sim, RngRegistry(1), last_hop_plr=0.0
        )
        sim.run(until=30.0)
        assert sender.finished
        assert receiver.bytes_delivered == 300_000
        assert snoop.local_retransmissions == 0

    def test_repairs_last_hop_loss_locally(self):
        sim = Simulator()
        sender, snoop, receiver, _ = build_snoop_path(
            sim, RngRegistry(1), last_hop_plr=0.03
        )
        sim.run(until=60.0)
        assert sender.finished
        assert receiver.bytes_delivered == 300_000
        assert snoop.local_retransmissions > 0
        assert snoop.suppressed_dup_acks > 0

    def test_hides_loss_from_sender(self):
        """With Snoop, the sender's own retransmission count should be far
        below the number of last-hop losses."""
        sim = Simulator()
        sender, snoop, receiver, _ = build_snoop_path(
            sim, RngRegistry(2), last_hop_plr=0.03
        )
        sim.run(until=60.0)
        assert sender.retransmissions < snoop.local_retransmissions

    def test_snoop_beats_plain_tcp_on_lossy_last_hop(self):
        """Sustained transfer: hiding last-hop loss keeps cubic's window
        open, so goodput is higher with the proxy in place."""
        total = 3_000_000

        def completion(with_snoop: bool) -> float:
            sim = Simulator()
            rng = RngRegistry(3)
            if with_snoop:
                sender, _, _, _ = build_snoop_path(
                    sim, rng, last_hop_plr=0.03, total=total
                )
            else:
                from repro.tcp import build_e2e_tcp_path

                hops = [
                    HopSpec(rate_bps=20e6, delay_s=0.02, plr=0.0),
                    HopSpec(rate_bps=20e6, delay_s=0.005, plr=0.03),
                ]
                path = build_e2e_tcp_path(
                    sim, rng, hops, CCSpec("cubic"), stream=FiniteStream(total)
                )
                sender = path.sender
            sim.run(until=300.0)
            assert sender.finished
            return sender.completed_at

        assert completion(True) < completion(False)

    def test_cannot_repair_upstream_loss(self):
        """Loss before the proxy is invisible to it — the paper's point:
        the sender itself must still retransmit."""
        sim = Simulator()
        sender, snoop, receiver, _ = build_snoop_path(
            sim, RngRegistry(4), last_hop_plr=0.0, first_hop_plr=0.02
        )
        sim.run(until=60.0)
        assert sender.finished
        assert sender.retransmissions > 0

    def test_cache_eviction_bound(self):
        sim = Simulator()
        sender, snoop, receiver, _ = build_snoop_path(sim, RngRegistry(5))
        snoop.cache_bytes = 10_000
        sim.run(until=30.0)
        for flow in snoop._flows.values():
            assert flow.cached_bytes <= 10_000
