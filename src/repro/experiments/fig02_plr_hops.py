"""Fig. 2 — TCP throughput degradation in error-prone multi-hop links.

Setup (paper Sec. II-A): every hop has 20 Mbps bandwidth, 10 ms hop RTT
(5 ms one-way) and 0.5 % loss; the hop count sweeps 1 -> 10.  Loss-based
Cubic/Hybla collapse below 2 Mbps by 5 hops, while BBR/PCC degrade
mildly (-9 % / -33 % at 10 hops in the paper).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration
from repro.netsim.topology import uniform_chain_specs

ALGORITHMS = ("cubic", "hybla", "bbr", "pcc")
HOP_COUNTS = (1, 2, 5, 10)
PLR_PER_HOP = 0.005


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(20.0, scale)
    # Loss-based variants have long sawtooth periods, so single runs are
    # noisy; average a few seeds at full scale (one at benchmark scale).
    repeats = 3 if scale >= 0.3 else 1
    result = ExperimentResult(
        "Fig. 2",
        "Throughput (Mbps) vs hop count; 20 Mbps, 10 ms, 0.5 % loss per hop",
    )
    for n_hops in HOP_COUNTS:
        hops = uniform_chain_specs(
            n_hops, rate_bps=20e6, delay_s=0.005, plr=PLR_PER_HOP
        )
        for cc in ALGORITHMS:
            spec = PathSpec(protocol="tcp", hops=hops, cc_name=cc)
            runs = [
                run_chain(spec, duration, seed=seed + rep)[0]
                for rep in range(repeats)
            ]
            result.add(
                hops=n_hops,
                algorithm=cc,
                throughput_mbps=sum(m.throughput_mbps for m in runs) / repeats,
                seeds=repeats,
            )
    return result


if __name__ == "__main__":
    print(run().table())
