"""Geometry-driven handover churn: recovery per handover at real cadences.

The chaos suite stresses hand-scripted faults on static chains; this
experiment makes *orbital mechanics* the fault generator.  Routes over
the 1600-satellite core shell are sampled per time slice for two
city pairs, a long orbital window is time-compressed so the full
handover census lands inside the simulated horizon, and the churn
engine turns the route diffs into typed topology events and a
:class:`FaultSchedule`.  The unmodified chaos harness then runs LEOTP,
split-TCP/BBR, and end-to-end BBR over chains whose delays track the
compressed schedule while the adapted faults black out exactly the hops
whose real edges changed — with the flow checked against the protocol
invariants and recovery measured *per handover*.

A second section multiplexes a small :class:`FlowPool` workload over
each pair's chain under the same churn, exercising mid-flow path
switches at flow-pool scale: in-flight Interests drain through
timeout/SHR retransmission across short switches, and route-loss gaps
longer than :data:`NO_ROUTE_ABORT_S` abort affected flows with a
recorded ``no_route`` reason instead of crashing the run.

Everything is deterministic per (scale, seed) and bit-identical under
``--jobs 2``: geometry is seed-independent, event streams are totally
ordered, and every RNG draw comes from named streams.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.churn import (
    DEFAULT_OUTAGE_S,
    TopologyEventStream,
    compress_schedule,
    events_from_schedule,
    faults_from_stream,
    handover_stats,
    per_handover_reports,
)
from repro.constellation import (
    PathDynamicsDriver,
    compute_path_schedule,
    representative_hop_count,
    starlink_hop_specs,
)
from repro.experiments.common import PathSpec, build_path
from repro.experiments.paper import Figure, Run
from repro.experiments.starlink import _router
from repro.faults import FaultInjector, run_chaos
from repro.obs import METRICS
from repro.simcore import RngRegistry, Simulator
from repro.tcp.cc import CCSpec
from repro.workload import FlowPool, WorkloadSpec

#: Intercontinental pairs with distinct handover geometry (two
#: ground-station attachments each; four stations total).
PAIRS = {
    "BJ-PR": ("Beijing", "Paris"),
    "NY-LD": ("New York", "London"),
}

#: Orbital sampling step (matches the starlink experiments).
ORBIT_STEP_S = 2.0

#: Churn kinds forwarded to congestion modules as signals.
SIGNAL_KINDS = ("PathSwitch", "GsReattach", "RouteLost", "RouteRestored")

#: Orbit-time : sim-time compression.  A pair on this shell sees a route
#: change every ~30-40 s of orbit time; compressing 20x packs the full
#: handover census of a 4-minute orbital window into a 12 s run (the
#: same methodological move as the paper's accelerated 15 s handover
#: interval in Sec. V-C).
COMPRESSION = 20.0

#: A route-loss gap longer than this aborts the pool's live flows with
#: reason "no_route" (shorter gaps are ridden out by retransmission).
NO_ROUTE_ABORT_S = 0.5

_PROTOCOLS = ("leotp", "split-bbr", "bbr", "leotp-pool")


def pair_context(slug: str, city_a: str, city_b: str,
                 duration_s: float, seed: int, compression: float):
    """Compressed schedule, event stream, chain shape for one pair."""
    orbit = compute_path_schedule(
        _router(True), city_a, city_b,
        duration_s * compression, ORBIT_STEP_S, on_gap="hold",
    )
    compressed = compress_schedule(orbit, compression)
    stream = events_from_schedule(compressed, pair=slug)
    n_hops = max(representative_hop_count(compressed), 2)
    hops = starlink_hop_specs(n_hops, isls_enabled=True, seed=seed)
    return compressed, stream, n_hops, hops


def handover_columns(recorder, stream: TopologyEventStream,
                     horizon_s: float) -> dict:
    """Recovery columns over the handovers whose outage ends before
    ``horizon_s``, measured on ``recorder``'s delivery timeline."""
    times = [t for t in stream.handover_times()
             if t + DEFAULT_OUTAGE_S < horizon_s]
    return handover_stats(per_handover_reports(
        recorder, times,
        outage_s=DEFAULT_OUTAGE_S, window_s=1.0,
        recovery_window_s=0.25, horizon_s=horizon_s,
    ))


def _single_flow_row(run: Run, protocol: str, context) -> dict:
    """Run one monitored flow under the pair's churn; return row columns.
    ``run.cc`` swaps the congestion control of the TCP rows (BBR)."""
    compressed, stream, n_hops, hops = context
    cc_spec = run.cc or CCSpec("bbr")
    if protocol == "leotp":
        # Sized to finish inside the run at the 10 Mbps GSL bottleneck
        # even with handover dips, so the byte-exact check audits a
        # complete flow.
        spec = PathSpec(hops=hops,
                        total_bytes=int(10e6 / 8 * run.duration * 0.35))
    else:
        spec = PathSpec(
            protocol="split_tcp" if protocol == "split-bbr" else "tcp",
            hops=hops, cc=cc_spec,
        )

    def build(sim: Simulator, rng: RngRegistry):
        path = build_path(sim, rng, spec)
        PathDynamicsDriver(
            sim, compressed, path.links,
            update_interval_s=ORBIT_STEP_S / COMPRESSION,
            flush_on_change=False,
        )
        stream.arm_markers(sim)
        return path

    res = run_chaos(
        faults_from_stream(stream, n_hops), build,
        duration_s=run.duration, seed=run.seed,
    )

    # A finite transfer that completes mid-run stops delivering; without
    # clamping, every later handover would read as "unrecovered".  Only
    # handovers inside the flow's delivery lifetime are measured.
    horizon = run.duration
    if res.completed and res.path.recorder.end_time is not None:
        horizon = min(horizon, res.path.recorder.end_time)
    delivered = res.path.recorder.total_bytes
    # Keep the paper's row names for the default; a --cc override shows
    # the substituted controller in the protocol column.
    label = protocol
    if protocol != "leotp" and cc_spec.label() != "bbr":
        label = protocol.replace("bbr", cc_spec.label())
    row = {
        "protocol": label,
        "goodput_mbps": delivered * 8 / run.duration / 1e6,
        "completed": res.completed,
        "invariant_violations": len(res.violations or ()),
        "invariants_ok": res.invariants_ok,
        "faults_applied": res.faults_applied,
    }
    row.update(handover_columns(res.path.recorder, stream, horizon))
    return row


def arm_pool_churn(
    sim: Simulator,
    rng: RngRegistry,
    pool: FlowPool,
    compressed,
    stream: TopologyEventStream,
    n_hops: int,
    compression: float,
    signal: Optional[Callable[[str], None]] = None,
) -> FaultInjector:
    """Put a :class:`FlowPool`'s chain under one pair's churn.

    The chain's delays track ``compressed``, the adapted faults black
    out the hops whose real edges changed, and ``signal(kind)`` (if
    given) receives the :data:`SIGNAL_KINDS` up-calls.  The scheduling
    order — driver, markers, signal, injector, aborts — is part of the
    contract: same-timestamp events tie-break on insertion order.
    Returns the armed injector.
    """
    PathDynamicsDriver(
        sim, compressed, pool.links,
        update_interval_s=ORBIT_STEP_S / compression, flush_on_change=False,
    )
    stream.arm_markers(sim)
    if signal is not None:
        stream.arm_signal(sim, signal, kinds=SIGNAL_KINDS)
    injector = FaultInjector(sim, rng)
    for i, link in enumerate(pool.links):
        injector.register_link(f"{pool.name}:hop{i}", link)
    injector.arm(
        faults_from_stream(stream, n_hops, link_prefix=f"{pool.name}:")
    )
    # A transient routing gap must not crash the run: gaps longer than
    # the abort threshold fail the affected flows with a recorded
    # reason; shorter ones drain through TR/SHR retransmission.
    for event in stream.of_kind("RouteLost"):
        if event.duration_s > NO_ROUTE_ABORT_S:
            sim.schedule_at(
                event.at_s + NO_ROUTE_ABORT_S, pool.abort_live, "no_route"
            )
    if METRICS.enabled:
        pool.attach_samplers()
    return injector


def _pool_row(run: Run, slug: str, context) -> dict:
    """A FlowPool workload over the pair's chain under the same churn."""
    compressed, stream, n_hops, hops = context
    sim = Simulator()
    rng = RngRegistry(run.seed)
    spec = WorkloadSpec(
        arrival="poisson",
        rate_per_s=2.0,
        n_flows=max(int(run.duration), 6),
        mean_size_bytes=40_000,
        max_size_bytes=200_000,
    )
    pool = FlowPool(
        sim, rng, spec=spec, hops=hops, protocol="leotp",
        name=slug.lower().replace("-", ""),
    )
    injector = arm_pool_churn(
        sim, rng, pool, compressed, stream, n_hops, COMPRESSION
    )
    sim.run(until=run.duration)
    pool.finalize()
    s = pool.summary()
    return {
        "protocol": "leotp-pool",
        "arrivals": int(s["arrivals"]),
        "pool_completed": int(s["completed"]),
        "pool_aborted": int(s["aborted"]),
        "aborted_no_route": int(s.get("aborted_no_route", 0.0)),
        "budget_breaches": int(s["budget_breaches"]),
        "faults_applied": injector.faults_applied,
    }


def _pairs(run: Run) -> list[tuple]:
    """(pair, protocol, its churn context) points; a pair's rows share
    its compressed schedule and event stream."""
    points = []
    for slug in sorted(PAIRS):
        context = pair_context(
            slug, *PAIRS[slug], run.duration, run.seed, COMPRESSION
        )
        points += [(slug, protocol, context) for protocol in _PROTOCOLS]
    return points


def _row(run: Run, row: dict, slug: str, protocol: str, context) -> dict:
    compressed, stream, n_hops, hops = context
    counts = stream.counts()
    return dict(
        hops=n_hops,
        handovers=len(stream.handover_times()),
        links_removed=counts.get("LinkRemoved", 0),
        gs_reattach=counts.get("GsReattach", 0),
        route_losses=counts.get("RouteLost", 0),
        **row,
    )


def _notes(rows: list, run: Run, outs: list) -> list[str]:
    handovers = sum({row["pair"]: row["handovers"] for row in rows}.values())
    return [
        f"{handovers} geometry-driven handovers across "
        f"{len(PAIRS)} city pairs over {run.duration * COMPRESSION:.0f} s "
        f"of orbit time (compressed {COMPRESSION:.0f}x into "
        f"{run.duration:.0f} s runs)"
    ]


#: LEOTP vs split-TCP vs end-to-end TCP under geometry churn.
run = Figure(
    "Churn",
    "Per-handover recovery under geometry-driven topology churn "
    "(1600-sat shell, time-compressed routes)",
    ("pair",),
    base_s=24.0, floor_s=8.0,
    grid=_pairs,
    cell=lambda run, slug, protocol, context: (
        _pool_row(run, slug, context) if protocol == "leotp-pool"
        else _single_flow_row(run, protocol, context)
    ),
    row=_row,
    notes=_notes,
    # Handover dips live at sub-second scale.
    sampler_interval_s=0.2,
)
