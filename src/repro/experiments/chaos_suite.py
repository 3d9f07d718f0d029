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

from repro.experiments.common import PathSpec, build_path
from repro.experiments.paper import Figure, Run
from repro.faults import (
    CorrelatedLoss,
    LinkDown,
    LinkFlap,
    NodeCrash,
    Timeline,
    run_chaos,
)
from repro.netsim.topology import uniform_chain_specs

RATE_BPS = 20e6
DELAY_S = 0.008
N_HOPS = 6
MID_HOP = 3              # the faulted mid-path hop (both protocols)
LEOTP_CRASH_NODE = "leotp-mid2"
TCP_CRASH_NODE = "tcp-fwd2"
BASELINE_CC = "bbr"


#: Each scenario's fault entries, given when it lands and the node a
#: crash hits.
SCENARIOS = {
    "blackout": lambda at_s, node: LinkDown(at_s, MID_HOP, duration_s=2.0),
    "flap": lambda at_s, node: LinkFlap(
        at_s, MID_HOP, down_s=0.3, up_s=0.5, cycles=3),
    "crash": lambda at_s, node: NodeCrash(at_s, node, restart_after_s=0.5),
    "loss_burst": lambda at_s, node: CorrelatedLoss(
        at_s, MID_HOP, duration_s=3.0,
        p_good_bad=0.05, p_bad_good=0.2, loss_bad=0.6),
}


def _chaos(run: Run, scenario: str, protocol: str):
    """One protocol's flow over the chain under one scenario's fault."""
    hops = uniform_chain_specs(N_HOPS, rate_bps=RATE_BPS, delay_s=DELAY_S)
    if protocol == "leotp":
        # Sized so the flow finishes inside the run at full scale (the
        # terminal byte-exact audit needs a completed transfer) while
        # leaving several seconds of post-fault transfer to measure.
        total_bytes = int(RATE_BPS / 8 * run.duration * 0.55)
        crash_node, spec = LEOTP_CRASH_NODE, PathSpec(
            hops=hops, total_bytes=total_bytes)
    else:
        crash_node, spec = TCP_CRASH_NODE, PathSpec(
            protocol="tcp", hops=hops, cc=BASELINE_CC)
    return run_chaos(
        Timeline(SCENARIOS[scenario](run.duration / 3.0, crash_node)),
        partial(build_path, spec=spec),
        duration_s=run.duration, seed=run.seed,
    )


def _row(run: Run, result, scenario: str, protocol: str) -> dict:
    r = result.recovery
    return {
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


def _notes(rows: list, run: Run, outs: list) -> list[str]:
    failed = [
        f"{row['scenario']}: invariants violated"
        for row in rows
        if row["invariants_ok"] is False
    ]
    return failed or ["all LEOTP invariants green in every scenario"]


run = Figure(
    "Chaos suite",
    lambda run: "Recovery under blackout/flap/crash/loss bursts; "
    f"{N_HOPS}-hop chain, {RATE_BPS / 1e6:.0f} Mbps, fault at "
    f"t={run.duration / 3.0:.1f}s",
    ("scenario",),
    base_s=15.0,
    grid=[(scenario, protocol) for scenario in SCENARIOS
          for protocol in ("leotp", BASELINE_CC)],
    cell=_chaos,
    row=_row,
    notes=_notes,
)
