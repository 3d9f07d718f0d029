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

from repro.churn import TopologyEventStream
from repro.core.consumer import Consumer
from repro.experiments.churn_study import (
    arm_pool_churn,
    handover_columns,
    pair_context,
)
from repro.experiments.paper import Figure, Run
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc import CCSpec
from repro.tcp.connection import FiniteStream, TcpReceiver, TcpSender
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
CCS = tuple(CCSpec(name) for name in (
    "leotp", "reno", "cubic", "bbr", "orbcc", "adaptive"))

#: Monitor-flow demand: effectively unbounded, so the reference
#: transfer spans every handover in the cell.
MONITOR_BYTES = 10**9


def _lossy(hops, extra_plr: float):
    """The loss-model axis: stack ``extra_plr`` onto both GSL hops."""
    gsl = {0, len(hops) - 1} if extra_plr > 0.0 else set()
    return [replace(hop, plr=hop.plr + extra_plr) if i in gsl else hop
            for i, hop in enumerate(hops)]


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
    sender = TcpSender(
        sim, "mon-snd", "mon-rcv", None, spec,
        stream=FiniteStream(MONITOR_BYTES), flow_id="mon",
    )
    pool.attach_tcp("mon", sender, receiver)
    return recorder, sender


def run_cell(
    spec: CCSpec,
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
    # Recovery is judged on the monitor flow: a constant-demand
    # reference transfer present at every handover, immune to the
    # pool's arrival luck (see _attach_monitor).
    row.update(handover_columns(mon_rec, stream, duration_s))
    return row


def _cells(run: Run) -> list[tuple]:
    """(cadence, load, loss, its churn context, CC) points; a cadence's
    cells share its compressed schedule and event stream.  ``run.cc``
    (the ``--cc`` flag; params via ``--cc-param`` ride along on the
    spec) restricts the CC axis to one controller, e.g. to bench a
    tuned law against the matrix."""
    points = []
    for cadence in sorted(CADENCES):
        context = pair_context(
            *PAIR, run.duration, run.seed, CADENCES[cadence]
        )
        points += [
            (cadence, load, loss, context, cc)
            for load in sorted(LOADS) for loss in sorted(LOSSES)
            for cc in (CCS if run.cc is None else (run.cc,))
        ]
    return points


def _cell(run: Run, cadence, load, loss, context, cc: CCSpec) -> dict:
    compressed, stream, n_hops, hops = context
    return dict(
        handovers=len(stream.handover_times()),
        **run_cell(
            cc, compressed, stream, n_hops, _lossy(hops, LOSSES[loss]),
            CADENCES[cadence], LOADS[load], run.duration, run.seed,
        ),
    )


def _notes(rows: list, run: Run, outs: list) -> list[str]:
    per_cadence = {row["cadence"]: row["handovers"] for row in rows}
    return [
        f"pair {PAIR[0]}, {sum(per_cadence.values())} handovers across "
        f"{len(CADENCES)} cadences ({run.duration:.0f} s cells; "
        f"compressions {sorted(CADENCES.values())})"
    ]


#: The bake-off matrix: {cadence} x {load} x {loss} x {CC}.
run = Figure(
    "CC bake-off",
    "Congestion control under geometry-driven churn: "
    "{cadence} x {load} x {loss} x {CC}",
    ("cadence", "load", "loss"),
    base_s=12.0, floor_s=6.0,
    grid=_cells,
    cell=_cell,
    row=lambda run, row, *_: row,
    notes=_notes,
    # Handover dips live at sub-second scale.
    sampler_interval_s=0.2,
)
