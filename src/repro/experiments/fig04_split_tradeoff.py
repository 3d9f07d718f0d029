"""Fig. 4 — the throughput-OWD trade-off of Split TCP versus TCP.

Setup (paper Sec. II-B): 10-hop network, 20 Mbps / 10 ms RTT / 0.5 % loss
per hop.  Splitting raises the throughput of every variant dramatically
(each hop has better link quality) but buys it with >600 ms of extra
queueing at the proxies.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration
from repro.netsim.topology import uniform_chain_specs

ALGORITHMS = ("cubic", "hybla", "bbr", "pcc")


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(20.0, scale)
    hops = uniform_chain_specs(10, rate_bps=20e6, delay_s=0.005, plr=0.005)
    result = ExperimentResult(
        "Fig. 4",
        "Split TCP vs TCP: throughput (Mbps) and mean OWD (ms), 10 lossy hops",
    )
    for cc in ALGORITHMS:
        for mode, protocol in (("e2e", "tcp"), ("split", "split_tcp")):
            metrics, _ = run_chain(
                PathSpec(protocol=protocol, hops=hops, cc_name=cc),
                duration, seed=seed,
            )
            result.add(
                algorithm=cc,
                mode=mode,
                throughput_mbps=metrics.throughput_mbps,
                owd_mean_ms=metrics.owd_mean_ms,
            )
    return result


if __name__ == "__main__":
    print(run().table())
