"""Design-choice ablation: what Void Packet Headers actually buy.

Not a paper figure — an ablation of the paper's third contribution
("a novel in-network retransmission mechanism using VPH as notifications,
which reduces redundant retransmissions").  We run the same lossy chain
with and without VPH and count retransmission requests and duplicate
data: without VPH every downstream node independently detects and
re-requests the same hole, so the retransmission-Interest count grows
with path depth; with VPH it tracks the actual loss count.
"""

from __future__ import annotations

from repro.core import LeotpConfig
from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration
from repro.netsim.topology import uniform_chain_specs

HOP_COUNTS = (4, 8)
PLR = 0.01


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(20.0, scale)
    result = ExperimentResult(
        "VPH ablation",
        "Retransmission requests per network loss, with/without VPH",
    )
    for n_hops in HOP_COUNTS:
        hops = uniform_chain_specs(n_hops, rate_bps=20e6, delay_s=0.008, plr=PLR)
        for vph in (True, False):
            config = LeotpConfig(enable_vph=vph)
            metrics, path = run_chain(
                PathSpec(hops=hops, config=config), duration, seed=seed
            )
            losses = sum(
                d.ab.stats.packets_dropped_loss + d.ba.stats.packets_dropped_loss
                for d in path.links
            )
            retx_requests = (
                sum(m.stats.retx_interests_sent for m in path.midnodes)
                + path.consumer.retransmission_interests
            )
            result.add(
                hops=n_hops,
                vph="on" if vph else "off",
                losses=losses,
                retx_requests=retx_requests,
                requests_per_loss=retx_requests / losses if losses else None,
                throughput_mbps=metrics.throughput_mbps,
                producer_mb=path.producer.wire_bytes_sent / 1e6,
            )
    return result


if __name__ == "__main__":
    print(run().table())
