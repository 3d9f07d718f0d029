"""Fig. 14 — throughput-OWD trade-off under bandwidth fluctuation.

Setup (paper Sec. V-B): 10 hops with 20 ms hopRTT each (100 ms end-to-end
propagation); the second hop is the bottleneck at 10 Mbps +- 1 Mbps
square wave (2 s period); other hops run 20 Mbps.  TCP variants all queue
heavily; end-to-end LEOTP has near-optimal latency but poor throughput;
full LEOTP achieves both, with the Midnode buffer target (BL_tar) tracing
the trade-off curve.
"""

from __future__ import annotations

from repro.core import LeotpConfig
from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    run_chain,
    scaled_duration,
)
from repro.netsim.bandwidth import SquareWaveBandwidth
from repro.netsim.topology import HopSpec

N_HOPS = 10
PROP_DELAY_MS = 100.0
BUFFER_TARGETS_PKTS = (4, 8, 16, 32)
BASELINES = ("cubic", "hybla", "bbr", "pcc")


def fluctuating_hops() -> list[HopSpec]:
    per_hop = PROP_DELAY_MS / 1000.0 / N_HOPS
    specs = []
    for i in range(N_HOPS):
        if i == 1:
            specs.append(
                HopSpec(
                    rate_bps=10e6, delay_s=per_hop,
                    profile=SquareWaveBandwidth(10e6, 1e6, period_s=2.0),
                )
            )
        else:
            specs.append(HopSpec(rate_bps=20e6, delay_s=per_hop))
    return specs


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(25.0, scale)
    hops = fluctuating_hops()
    result = ExperimentResult(
        "Fig. 14",
        "Throughput (Mbps) vs mean OWD (ms); fluctuating 10 Mbps bottleneck",
    )
    for cc in BASELINES:
        metrics, _ = run_chain(
            PathSpec(protocol="tcp", hops=hops, cc_name=cc),
            duration, seed=seed,
        )
        result.add(
            protocol=cc, variant="-",
            throughput_mbps=metrics.throughput_mbps,
            owd_mean_ms=metrics.owd_mean_ms,
            queuing_delay_ms=metrics.owd_mean_ms - PROP_DELAY_MS,
        )
    # End-to-end LEOTP: no Midnodes (the paper's "near-optimal latency,
    # low throughput" reference point).
    e2e, _ = run_chain(PathSpec(hops=hops, coverage=0.0), duration, seed=seed)
    result.add(
        protocol="leotp-e2e", variant="-",
        throughput_mbps=e2e.throughput_mbps,
        owd_mean_ms=e2e.owd_mean_ms,
        queuing_delay_ms=e2e.owd_mean_ms - PROP_DELAY_MS,
    )
    # Full LEOTP across the buffer-target sweep (the trade-off knob).
    for target in BUFFER_TARGETS_PKTS:
        config = LeotpConfig(buffer_target_bytes=target * 1400)
        metrics, _ = run_chain(
            PathSpec(hops=hops, config=config), duration, seed=seed
        )
        result.add(
            protocol="leotp", variant=f"BLtar={target}pkt",
            throughput_mbps=metrics.throughput_mbps,
            owd_mean_ms=metrics.owd_mean_ms,
            queuing_delay_ms=metrics.owd_mean_ms - PROP_DELAY_MS,
        )
    return result


if __name__ == "__main__":
    print(run().table())
