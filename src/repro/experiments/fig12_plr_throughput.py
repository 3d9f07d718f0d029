"""Fig. 12 — throughput against per-hop loss rate.

Setup (paper Sec. V-B): a 5-hop chain at 20 Mbps per hop; per-hop loss
sweeps 0 -> 1 %.  Loss-based Cubic/Hybla/Westwood collapse below 5 Mbps
by 0.1 %; BBR and PCC lose 12 % and 23 % by 1 %; LEOTP loses ~1 %.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    run_chain,
    scaled_duration,
)
from repro.netsim.topology import uniform_chain_specs

PLRS = (0.0, 0.001, 0.0025, 0.005, 0.01)
BASELINES = ("cubic", "hybla", "westwood", "bbr", "pcc")


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(20.0, scale)
    repeats = 3 if scale >= 0.3 else 1  # average out loss-based sawtooth noise
    result = ExperimentResult(
        "Fig. 12", "Throughput (Mbps) vs per-hop loss rate, 5-hop chain"
    )
    for plr in PLRS:
        hops = uniform_chain_specs(5, rate_bps=20e6, delay_s=0.005, plr=plr)
        specs = {"leotp": PathSpec(hops=hops)} | {
            cc: PathSpec(protocol="tcp", hops=hops, cc_name=cc)
            for cc in BASELINES
        }
        for protocol, spec in specs.items():
            runs = [
                run_chain(spec, duration, seed=seed + rep)[0]
                for rep in range(repeats)
            ]
            result.add(
                plr_per_hop=plr, protocol=protocol,
                throughput_mbps=sum(m.throughput_mbps for m in runs) / repeats,
            )
    # Degradation summary at the top loss rate.
    for proto in ("leotp", "bbr", "pcc"):
        rows = result.filtered(protocol=proto)
        base = rows[0]["throughput_mbps"]
        worst = rows[-1]["throughput_mbps"]
        if base > 0:
            result.notes.append(
                f"{proto}: {100 * (1 - worst / base):.1f} % drop at 1 %/hop "
                "(paper: leotp 1 %, bbr 12 %, pcc 23 %)"
            )
    return result


if __name__ == "__main__":
    print(run().table())
