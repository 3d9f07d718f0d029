"""Fig. 10 — OWD distribution of retransmitted packets.

Setup (paper Sec. V-B): 5 hops, 20 Mbps bandwidth and 20 ms hopRTT per
hop, lossy links.  BBR's retransmitted packets arrive roughly one
end-to-end RTT late (~160 ms); LEOTP repairs locally within a hopRTT
(~90 ms), cutting average recovery time by 59-64 %.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    run_chain,
    scaled_duration,
)
from repro.netsim.topology import uniform_chain_specs

PLRS = (0.005, 0.01, 0.02)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(30.0, scale)
    result = ExperimentResult(
        "Fig. 10",
        "OWD of retransmitted packets (ms): LEOTP vs BBR, 5 hops, 20 ms hopRTT",
    )
    for plr in PLRS:
        hops = uniform_chain_specs(5, rate_bps=20e6, delay_s=0.010, plr=plr)
        leotp, _ = run_chain(PathSpec(hops=hops), duration, seed=seed)
        bbr, _ = run_chain(
            PathSpec(protocol="tcp", hops=hops, cc_name="bbr"),
            duration, seed=seed,
        )
        base_owd = min(leotp.owd_p50_ms, bbr.owd_p50_ms)
        for proto, metrics in (("leotp", leotp), ("bbr", bbr)):
            retx = metrics.retx_owd_mean_ms
            result.add(
                plr_per_hop=plr,
                protocol=proto,
                retx_owd_mean_ms=retx,
                normal_owd_p50_ms=metrics.owd_p50_ms,
                recovery_cost_ms=(retx - base_owd) if retx is not None else None,
            )
    # Average recovery-time reduction across loss rates (paper: 59-64 %).
    leotp_costs = [
        r["recovery_cost_ms"]
        for r in result.rows
        if r["protocol"] == "leotp" and r["recovery_cost_ms"]
    ]
    bbr_costs = [
        r["recovery_cost_ms"]
        for r in result.rows
        if r["protocol"] == "bbr" and r["recovery_cost_ms"]
    ]
    if leotp_costs and bbr_costs:
        reduction = 1 - float(np.mean(leotp_costs)) / float(np.mean(bbr_costs))
        result.notes.append(
            f"mean recovery-cost reduction: {reduction:.0%} (paper: 59-64 %)"
        )
    return result


if __name__ == "__main__":
    print(run().table())
