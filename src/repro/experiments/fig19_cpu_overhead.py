"""Fig. 19 — the CPU overhead of a LEOTP Midnode.

The paper measures real CPU utilisation and finds it low, growing slowly
with bandwidth above 20 Mbps and insensitive to loss.  Our substrate is a
simulator, so we substitute the closest observable quantity (documented
in DESIGN.md): the Midnode's per-second protocol *operation count*
(packets processed, cache actions, VPH/retransmission events).  The
paper's claims map onto this proxy directly: operations grow (sub-)
linearly with bandwidth — a Midnode is I/O-bound — and barely move with
packet loss.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration
from repro.netsim.topology import uniform_chain_specs

BANDWIDTHS_MBPS = (5, 10, 20, 40)
PLRS = (0.0, 0.01, 0.02)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(15.0, scale)
    result = ExperimentResult(
        "Fig. 19",
        "Midnode operations per second (CPU-utilisation proxy)",
    )
    for rate_mbps in BANDWIDTHS_MBPS:
        for plr in PLRS:
            hops = uniform_chain_specs(
                3, rate_bps=rate_mbps * 1e6, delay_s=0.005, plr=plr
            )
            metrics, path = run_chain(PathSpec(hops=hops), duration, seed=seed)
            mid = path.midnodes[0]
            ops_per_s = mid.stats.total_operations() / duration
            result.add(
                bandwidth_mbps=rate_mbps,
                plr_per_hop=plr,
                ops_per_s=ops_per_s,
                throughput_mbps=metrics.throughput_mbps,
                ops_per_mbit=(
                    ops_per_s / metrics.throughput_mbps
                    if metrics.throughput_mbps > 0
                    else None
                ),
            )
    result.notes.append(
        "ops/s grows ~linearly with offered bandwidth and is insensitive to "
        "loss (ops/Mbit stays flat), matching the paper's CPU curve shape"
    )
    return result


if __name__ == "__main__":
    print(run().table())
