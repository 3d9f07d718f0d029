"""Fig. 5 — queueing delay and congestion loss under bandwidth variation.

Setup (paper Sec. II-A): the bottleneck averages 10 Mbps and fluctuates
as a square wave (2 s period, 1 Mbps amplitude); other segments run at
20 Mbps.  The end-to-end propagation delay sweeps 20 -> 100 ms.  With a
longer feedback loop, BBR's queueing delay grows until it exceeds the
loss-based algorithms'; congestion loss grows for everyone.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration
from repro.netsim.bandwidth import SquareWaveBandwidth
from repro.netsim.topology import HopSpec

ALGORITHMS = ("cubic", "hybla", "bbr")
PROP_DELAYS_MS = (20, 40, 60, 80, 100)
N_HOPS = 5


def _hops(total_prop_delay_s: float) -> list[HopSpec]:
    per_hop = total_prop_delay_s / N_HOPS
    specs = []
    for i in range(N_HOPS):
        if i == 1:  # the fluctuating bottleneck
            specs.append(
                HopSpec(
                    rate_bps=10e6,
                    delay_s=per_hop,
                    profile=SquareWaveBandwidth(10e6, 1e6, period_s=2.0),
                    queue_bytes=128_000,
                )
            )
        else:
            specs.append(HopSpec(rate_bps=20e6, delay_s=per_hop, queue_bytes=128_000))
    return specs


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(25.0, scale)
    result = ExperimentResult(
        "Fig. 5",
        "Queueing delay (ms) and congestion loss (pkt/s) vs propagation delay",
    )
    for prop_ms in PROP_DELAYS_MS:
        hops = _hops(prop_ms / 1000.0)
        for cc in ALGORITHMS:
            metrics, path = run_chain(
                PathSpec(protocol="tcp", hops=hops, cc_name=cc),
                duration, seed=seed,
            )
            queue_drops = sum(
                duplex.ab.stats.packets_dropped_queue for duplex in path.links
            )
            result.add(
                prop_delay_ms=prop_ms,
                algorithm=cc,
                queuing_delay_ms=metrics.owd_mean_ms - prop_ms,
                congestion_loss_per_s=queue_drops / duration,
                throughput_mbps=metrics.throughput_mbps,
            )
    return result


if __name__ == "__main__":
    print(run().table())
