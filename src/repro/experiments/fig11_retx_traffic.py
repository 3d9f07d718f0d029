"""Fig. 11 — traffic actually sent by the server for a fixed-size file.

Setup (paper Sec. V-B): a 100 MB transfer over a 5-hop lossy chain.
Sender traffic grows linearly with loss for both protocols, but LEOTP's
slope is ~20 % of BBR's: only first-hop losses reach back to the server;
the rest are repaired from Midnode caches.
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

PLRS = (0.0, 0.005, 0.01, 0.02)


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    file_bytes = max(int(20e6 * scale), 2_000_000)
    timeout = scaled_duration(120.0, max(scale, 0.5))
    result = ExperimentResult(
        "Fig. 11",
        f"Server traffic (MB) to deliver a {file_bytes / 1e6:.0f} MB file, 5 lossy hops",
    )
    for plr in PLRS:
        hops = uniform_chain_specs(5, rate_bps=20e6, delay_s=0.010, plr=plr)
        _, leotp_path = run_chain(
            PathSpec(hops=hops, total_bytes=file_bytes), timeout, seed=seed
        )
        _, bbr_path = run_chain(
            PathSpec(
                protocol="tcp", hops=hops, cc_name="bbr",
                total_bytes=file_bytes,
            ),
            timeout, seed=seed,
        )
        result.add(
            plr_per_hop=plr,
            protocol="leotp",
            sent_mb=leotp_path.producer.wire_bytes_sent / 1e6,
            completed=leotp_path.consumer.finished,
        )
        result.add(
            plr_per_hop=plr,
            protocol="bbr",
            sent_mb=bbr_path.sender.wire_bytes_sent / 1e6,
            completed=bbr_path.sender.finished,
        )
    # Overhead slope comparison (paper: LEOTP slope ~= 20 % of BBR's).
    def slope(protocol: str) -> float:
        rows = result.filtered(protocol=protocol)
        xs = [r["plr_per_hop"] for r in rows]
        ys = [r["sent_mb"] for r in rows]
        return float(np.polyfit(xs, ys, 1)[0])

    s_leotp, s_bbr = slope("leotp"), slope("bbr")
    if s_bbr > 0:
        result.notes.append(
            f"overhead slope ratio LEOTP/BBR = {s_leotp / s_bbr:.2f} (paper: ~0.2)"
        )
    return result


if __name__ == "__main__":
    print(run().table())
