"""Congestion-control bake-off under geometry-driven churn.

The comparison-platform experiment ROADMAP asks for: every congestion
control the registry knows — the paper's TCP baselines plus the LEO
contenders (OrbCC-style handover-aware rate control, the adaptive
learned policy) and LEOTP itself — run through one scenario matrix

    {handover cadence} x {offered load} x {loss model} x {CC}

over the same geometry-driven churn engine as the ``churn`` experiment.
One city pair's route over the 1600-satellite shell is sampled per time
slice; the *cadence* axis compresses a longer orbital window into the
same simulated horizon (2x the orbit time = 2x the handovers per sim
second), the *load* axis scales the Poisson arrival rate of the flow
pool, and the *loss* axis switches the chain between the clean
geometry-derived hop specs and a lossy variant with elevated GSL PLR.

Every cell multiplexes a :class:`FlowPool` over the pair's chain while
a :class:`PathDynamicsDriver` tracks the compressed schedule, the churn
adapter blacks out exactly the hops whose real edges changed, and — for
TCP cells — the event stream's churn *signal* hook delivers
``PathSwitch``/``GsReattach``/``RouteLost`` up-calls to every live
sender's congestion module (:meth:`TcpSender.notify_churn`).  Per cell
the row reports FCT percentiles, Jain fairness, and aggregate goodput
from the pool, and per-handover recovery latency measured on a
dedicated long-lived *monitor flow* riding the same chain — a
constant-demand reference transfer that sees every handover, so the
recovery columns compare congestion controllers instead of the pool's
arrival luck.

Deterministic per (scale, seed) and bit-identical under ``--jobs 2``:
geometry is seed-independent, event streams are totally ordered, churn
signals broadcast in sorted flow-id order, and every RNG draw comes
from named streams.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.churn import (
    DEFAULT_OUTAGE_S,
    TopologyEventStream,
    handover_stats,
    per_handover_reports,
)
from repro.constellation import NoRouteError
from repro.core.consumer import Consumer
from repro.experiments.churn_study import arm_pool_churn, pair_context
from repro.experiments.common import ExperimentResult, scaled_duration
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc import CCSpec, as_cc_spec
from repro.tcp.connection import FiniteStream, TcpReceiver, make_tcp_sender
from repro.workload import FlowPool, WorkloadSpec

#: The benched city pair (distinct handover geometry at both ends).
PAIR = ("BJ-PR", "Beijing", "Paris")

#: Cadence axis: orbit-time : sim-time compression.  40x packs twice the
#: orbital window — twice the handovers — into the same simulated run.
CADENCES = {"low": 20.0, "high": 40.0}

#: Load axis: Poisson arrival rate of the pool (flows/s).
LOADS = {"light": 1.5, "heavy": 4.0}

#: Loss axis: extra packet loss stacked on every GSL hop ("burst"
#: approximates the fade/blockage regime; "clean" is pure geometry).
LOSSES = {"clean": 0.0, "burst": 0.01}

#: CC axis.  "leotp" selects the ICN pool; everything else a TCP pool
#: running that registry algorithm.
CCS = ("leotp", "reno", "cubic", "bbr", "orbcc", "adaptive")

#: Monitor-flow demand: effectively unbounded, so the reference
#: transfer spans every handover in the cell.
MONITOR_BYTES = 10**9

#: Recommended metrics cadence (handover dips live at sub-second scale).
SAMPLER_INTERVAL_S = 0.2


def _lossy(hops, extra_plr: float):
    """The loss-model axis: stack ``extra_plr`` onto every GSL hop."""
    if extra_plr <= 0.0:
        return list(hops)
    out = []
    last = len(hops) - 1
    for i, hop in enumerate(hops):
        if i == 0 or i == last:
            out.append(replace(hop, plr=hop.plr + extra_plr))
        else:
            out.append(hop)
    return out


def _attach_monitor(sim, pool, spec):
    """One long-lived reference transfer riding the pool's chain.

    Per-handover recovery is measured on *this* flow's delivery
    timeline, not the pool aggregate: at light load the aggregate is
    dominated by arrival luck (whether any flow happens to be mid-burst
    when the handover lands), which buries the congestion controls'
    actual recovery behavior under workload noise.  A persistent bulk
    flow — same demand in every cell — sees every handover and isolates
    the controller's response.  Returns ``(recorder, sender_or_None)``.
    """
    recorder = FlowRecorder(sim, name="ccb:mon")
    if spec.name == "leotp":
        consumer = Consumer(
            sim, "mon-cons", "mon", pool.config,
            total_bytes=MONITOR_BYTES, recorder=recorder,
        )
        pool.attach_consumer("mon", consumer)
        return recorder, None
    receiver = TcpReceiver(
        sim, "mon-rcv", None, recorder=recorder, flow_id="mon"
    )
    sender = make_tcp_sender(
        sim, "mon-snd", "mon-rcv", None, spec,
        stream=FiniteStream(MONITOR_BYTES), flow_id="mon",
    )
    pool.attach_tcp("mon", sender, receiver)
    return recorder, sender


def run_cell(
    cc: Union[str, CCSpec],
    compressed,
    stream: TopologyEventStream,
    n_hops: int,
    hops,
    compression: float,
    rate_per_s: float,
    duration_s: float,
    seed: int,
) -> dict:
    """One bake-off cell: a FlowPool under churn; returns row columns."""
    spec = as_cc_spec(cc)
    sim = Simulator()
    rng = RngRegistry(seed)
    # One pool name for EVERY cell: the pool's RNG streams are keyed by
    # it, so a per-CC name would hand each controller a different
    # arrival/size sequence and the bake-off would compare workloads,
    # not congestion controls.  Same name = paired comparison.
    name = "ccb"
    workload = WorkloadSpec(
        arrival="poisson",
        rate_per_s=rate_per_s,
        n_flows=max(int(duration_s * rate_per_s), 6),
        mean_size_bytes=120_000,
        max_size_bytes=400_000,
    )
    recorder = FlowRecorder(sim, name=f"{name}:agg")
    pool = FlowPool(
        sim, rng, spec=workload, hops=hops,
        protocol="leotp" if spec.name == "leotp" else spec,
        name=name, recorder=recorder,
    )
    mon_rec, mon_sender = _attach_monitor(sim, pool, spec)
    def signal(kind: str) -> None:
        # The churn-signal hook: handover-aware CCs get their up-calls
        # (pool flows in sorted-id order, then the monitor — fixed order
        # keeps the cell bit-identical across runs).
        pool.notify_churn(kind)
        mon_sender.notify_churn(kind)

    injector = arm_pool_churn(
        sim, rng, pool, compressed, stream, n_hops, compression,
        signal=signal if mon_sender is not None else None,  # TCP cells
    )
    sim.run(until=duration_s)
    pool.finalize()
    s = pool.summary()

    times = [
        t for t in stream.handover_times()
        if t + DEFAULT_OUTAGE_S < duration_s
    ]
    # Recovery is judged on the monitor flow: a constant-demand
    # reference transfer present at every handover, immune to the
    # pool's arrival luck (see _attach_monitor).
    reports = per_handover_reports(
        mon_rec, times,
        outage_s=DEFAULT_OUTAGE_S, window_s=1.0,
        recovery_window_s=0.25, horizon_s=duration_s,
    )
    row = {
        "cc": spec.label(),
        "arrivals": int(s["arrivals"]),
        "completed": int(s["completed"]),
        "aborted": int(s["aborted"]),
        "fct_p50_s": s["fct_p50_s"],
        "fct_p90_s": s["fct_p90_s"],
        "fct_p99_s": s["fct_p99_s"],
        "jain_mean": s.get("jain_mean", 0.0),
        "jain_min": s.get("jain_min", 0.0),
        "goodput_mbps": recorder.total_bytes * 8 / duration_s / 1e6,
        "mon_goodput_mbps": mon_rec.total_bytes * 8 / duration_s / 1e6,
        "faults_applied": injector.faults_applied,
    }
    row.update(handover_stats(reports))
    return row


def run_ccbench(
    scale: float = 1.0,
    seed: int = 0,
    cc: Optional[Union[str, CCSpec]] = None,
) -> ExperimentResult:
    """The bake-off matrix: {cadence} x {load} x {loss} x {CC}.

    ``cc`` restricts the CC axis to one controller (the ``--cc`` CLI
    flag; params via ``--cc-param`` ride along on the spec) — handy for
    benching a third-party ``@register_cc`` plugin against the matrix.
    """
    duration_s = scaled_duration(12.0, scale, minimum_s=6.0)
    result = ExperimentResult(
        "CC bake-off",
        "Congestion control under geometry-driven churn: "
        "{cadence} x {load} x {loss} x {CC}",
    )
    ccs: tuple = CCS if cc is None else (as_cc_spec(cc),)
    total_handovers = 0
    for cad_label in sorted(CADENCES):
        compression = CADENCES[cad_label]
        try:
            compressed, stream, n_hops, hops = pair_context(
                *PAIR, duration_s, seed, compression
            )
        except NoRouteError as exc:
            result.notes.append(f"{cad_label}: no route ({exc})")
            continue
        handovers = stream.handover_times()
        total_handovers += len(handovers)
        for load_label in sorted(LOADS):
            for loss_label in sorted(LOSSES):
                cell_hops = _lossy(hops, LOSSES[loss_label])
                for cc_choice in ccs:
                    row = run_cell(
                        cc_choice, compressed, stream, n_hops, cell_hops,
                        compression, LOADS[load_label], duration_s, seed,
                    )
                    result.add(
                        cadence=cad_label,
                        load=load_label,
                        loss=loss_label,
                        handovers=len(handovers),
                        **row,
                    )
    result.notes.append(
        f"pair {PAIR[0]}, {total_handovers} handovers across "
        f"{len(CADENCES)} cadences ({duration_s:.0f} s cells; "
        f"compressions {sorted(CADENCES.values())})"
    )
    return result


run = run_ccbench

if __name__ == "__main__":  # pragma: no cover
    print(run().table())
