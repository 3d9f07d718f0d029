"""Related-work comparison: LEOTP versus the Snoop proxy (paper Sec. VI).

The paper dismisses the Snoop proxy because "the proxy does not perform
loss detection and the local retransmission only happens on the last
hop."  We measure exactly that: a 5-hop chain where the loss is either
(a) concentrated on the last hop — Snoop's best case — or (b) spread
over every hop, where only LEOTP's per-hop recovery helps.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    run_chain,
    scaled_duration,
)
from repro.netsim.topology import HopSpec, build_chain
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp import SnoopProxy, TcpReceiver, TcpSender, make_cc
from repro.netsim.node import ChainForwarder, wire_chain_forwarders

N_HOPS = 5
RATE = 20e6
DELAY = 0.008
TOTAL_PLR = 0.02  # the same loss budget, placed differently


def _hops(spread: bool) -> list[HopSpec]:
    if spread:
        per_hop = 1 - (1 - TOTAL_PLR) ** (1 / N_HOPS)
        return [HopSpec(rate_bps=RATE, delay_s=DELAY, plr=per_hop)] * N_HOPS
    specs = [HopSpec(rate_bps=RATE, delay_s=DELAY)] * (N_HOPS - 1)
    specs.append(HopSpec(rate_bps=RATE, delay_s=DELAY, plr=TOTAL_PLR))
    return specs


def _run_snoop(hops, duration: float, seed: int) -> float:
    """cubic through a Snoop agent one hop before the receiver."""
    sim = Simulator()
    rng = RngRegistry(seed)
    recorder = FlowRecorder(sim)
    sender = TcpSender(sim, "snd", "rcv", None, make_cc("cubic"), flow_id="f")
    relays = [ChainForwarder(sim, f"fwd{i}") for i in range(N_HOPS - 2)]
    snoop = SnoopProxy(sim, "snoop")
    receiver = TcpReceiver(sim, "rcv", None, recorder=recorder, flow_id="f")
    nodes = [sender, *relays, snoop, receiver]
    links = build_chain(sim, nodes, list(hops), rng)
    wire_chain_forwarders(nodes, links)
    sender.out_link = links[0].ab
    receiver.out_link = links[-1].ba
    snoop.connect(
        from_sender=links[-2].ab, to_receiver=links[-1].ab,
        from_receiver=links[-1].ba, to_sender=links[-2].ba,
    )
    sim.run(until=duration)
    return recorder.throughput_bps(duration * 0.2, duration) / 1e6


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(20.0, scale)
    result = ExperimentResult(
        "Snoop comparison",
        "Throughput (Mbps): same 2 % loss budget on the last hop vs spread",
    )
    for spread in (False, True):
        hops = _hops(spread)
        placement = "spread over all hops" if spread else "last hop only"
        cubic, _ = run_chain(
            PathSpec(protocol="tcp", hops=hops, cc_name="cubic"),
            duration, seed=seed,
        )
        result.add(loss_placement=placement, protocol="cubic",
                   throughput_mbps=cubic.throughput_mbps)
        result.add(loss_placement=placement, protocol="cubic+snoop",
                   throughput_mbps=_run_snoop(hops, duration, seed))
        leotp, _ = run_chain(PathSpec(hops=hops), duration, seed=seed)
        result.add(loss_placement=placement, protocol="leotp",
                   throughput_mbps=leotp.throughput_mbps)
    result.notes.append(
        "Snoop matches LEOTP only when the loss sits on its own hop; "
        "spread the same loss and only per-hop recovery keeps throughput"
    )
    return result


if __name__ == "__main__":
    print(run().table())
