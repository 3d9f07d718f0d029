"""Chaos suite — LEOTP vs BBR under scripted faults.

Not a figure from the paper: a robustness matrix that stresses the
mechanisms the paper argues make LEOTP fit LEO networks (in-network
retransmission, near-stateless Midnodes, connectionless flows).  Four
scenarios run over the same 6-hop chain for both protocols:

* **blackout** — one mid-path link drops for 2 s (a handover outage,
  Sec. V-B), losing everything in flight on it;
* **flap** — the same link flaps down/up several times in succession;
* **crash** — a mid-path node power-cycles: a LEOTP Midnode loses its
  cache and all per-flow soft state (the "dummy intermediate node"
  claim, Sec. IV-A); the TCP run crashes the equivalent forwarder;
* **loss_burst** — a Gilbert–Elliott process drives correlated loss
  bursts on the link for several seconds.

Each row reports recovery metrics (time to first byte after the fault,
post/pre goodput ratio, time until goodput is back to 80 % of the
pre-fault level, retransmission amplification) and — for LEOTP — whether
every protocol invariant stayed green while the faults landed.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.common import (
    ExperimentResult,
    PathSpec,
    build_path,
    scaled_duration,
)
from repro.faults import (
    CorrelatedLoss,
    FaultSchedule,
    LinkDown,
    LinkFlap,
    NodeCrash,
    run_chaos,
)
from repro.netsim.topology import uniform_chain_specs

RATE_BPS = 20e6
DELAY_S = 0.008
N_HOPS = 6
MID_LINK = "hop3"        # the faulted mid-path link (both protocols)
LEOTP_CRASH_NODE = "leotp-mid2"
TCP_CRASH_NODE = "tcp-fwd2"
BASELINE_CC = "bbr"


def _schedule(scenario: str, fault_at: float, crash_node: str) -> FaultSchedule:
    s = FaultSchedule()
    if scenario == "blackout":
        s.add(LinkDown(at_s=fault_at, link=MID_LINK, duration_s=2.0))
    elif scenario == "flap":
        s.add(LinkFlap(at_s=fault_at, link=MID_LINK,
                       down_s=0.3, up_s=0.5, cycles=3))
    elif scenario == "crash":
        s.add(NodeCrash(at_s=fault_at, node=crash_node, restart_after_s=0.5))
    elif scenario == "loss_burst":
        s.add(CorrelatedLoss(at_s=fault_at, link=MID_LINK, duration_s=3.0,
                             p_good_bad=0.05, p_bad_good=0.2, loss_bad=0.6))
    else:  # pragma: no cover - registry typo guard
        raise ValueError(f"unknown scenario {scenario!r}")
    return s


SCENARIOS = ("blackout", "flap", "crash", "loss_burst")


def _row(scenario: str, result) -> dict:
    r = result.recovery
    row = {
        "scenario": scenario,
        "protocol": result.protocol,
        "pre_goodput_mbps": r.pre_goodput_bps / 1e6,
        "post_goodput_mbps": r.post_goodput_bps / 1e6,
        "goodput_ratio": r.goodput_ratio,
        "ttfb_after_fault_s": r.ttfb_after_fault_s,
        "recovery_s": r.time_to_recovery_s,
        "retx_amplification": r.retx_amplification,
        "invariants_ok": (
            result.invariants_ok if result.violations is not None else None
        ),
    }
    return row


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(15.0, scale)
    fault_at = duration / 3.0
    # Sized so the LEOTP flow finishes inside the run at full scale (the
    # terminal byte-exact audit needs a completed transfer) while leaving
    # several seconds of post-fault transfer to measure.
    total_bytes = int(RATE_BPS / 8 * duration * 0.55)
    result = ExperimentResult(
        "Chaos suite",
        "Recovery under blackout/flap/crash/loss bursts; "
        f"{N_HOPS}-hop chain, {RATE_BPS / 1e6:.0f} Mbps, fault at "
        f"t={fault_at:.1f}s",
    )
    hops = uniform_chain_specs(N_HOPS, rate_bps=RATE_BPS, delay_s=DELAY_S)
    flows = (
        (LEOTP_CRASH_NODE, PathSpec(hops=hops, total_bytes=total_bytes)),
        (TCP_CRASH_NODE,
         PathSpec(protocol="tcp", hops=hops, cc_name=BASELINE_CC)),
    )
    for scenario in SCENARIOS:
        for crash_node, spec in flows:
            chaos = run_chaos(
                _schedule(scenario, fault_at, crash_node),
                partial(build_path, spec=spec),
                duration_s=duration, seed=seed,
            )
            result.add(**_row(scenario, chaos))
    failed = [
        f"{row['scenario']}: invariants violated"
        for row in result.rows
        if row["invariants_ok"] is False
    ]
    for note in failed:
        result.notes.append(note)
    if not failed:
        result.notes.append("all LEOTP invariants green in every scenario")
    return result


if __name__ == "__main__":
    print(run().table())
