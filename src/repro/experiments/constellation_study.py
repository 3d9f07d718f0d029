"""Beyond the paper: how the constellation design shapes LEOTP's numbers.

The paper evaluates one shell (the 1600-satellite, 1150 km Starlink core).
The constellation model here is parametric, so we also run the modern
low-altitude Starlink shell and a Kuiper-like design and report what
changes: hop counts, propagation delay, route churn, and LEOTP vs BBR
performance on the same Beijing-Paris route.
"""

from __future__ import annotations

from repro.constellation import (
    ConstellationRouter,
    RoutingConfig,
    WalkerConstellation,
    compute_path_schedule,
    top_cities,
)
from repro.experiments.paper import Figure, Run
from repro.experiments.starlink import run_starlink_flow

SHELLS = {
    # name: (planes, sats/plane, altitude m, inclination deg)
    "starlink-core-1150km": (32, 50, 1_150_000.0, 53.0),
    "starlink-550km": (72, 22, 550_000.0, 53.0),
    "kuiper-630km": (34, 34, 630_000.0, 51.9),
}
CITY_A, CITY_B = "Beijing", "Paris"


def _shells(run: Run) -> list[tuple]:
    """(shell, protocol, shell model, route schedule) points; the two
    protocols of a shell share its route schedule."""
    points = []
    for name, (planes, spp, alt, incl) in SHELLS.items():
        shell = WalkerConstellation(
            num_planes=planes, sats_per_plane=spp,
            altitude_m=alt, inclination_deg=incl,
        )
        router = ConstellationRouter(shell, top_cities(100), RoutingConfig())
        schedule = compute_path_schedule(
            router, CITY_A, CITY_B, run.duration, 2.0)
        points += [(name, protocol, shell, schedule)
                   for protocol in ("leotp", "bbr")]
    return points


run = Figure(
    "Constellation study",
    f"{CITY_A}->{CITY_B} with ISLs across constellation designs",
    ("shell", "protocol"),
    base_s=40.0, floor_s=10.0,
    grid=_shells,
    cell=lambda run, name, protocol, shell, schedule: run_starlink_flow(
        protocol, schedule, run.duration, seed=run.seed),
    row=lambda run, out, name, protocol, shell, schedule: dict(
        satellites=shell.num_satellites,
        hops=out[1]["hop_count"],
        prop_delay_ms=out[1]["mean_prop_delay_ms"],
        route_changes=len(schedule.change_times()),
        throughput_mbps=out[0].throughput_mbps,
        owd_mean_ms=out[0].owd_mean_ms,
    ),
    notes=lambda *_: [
        "lower shells shorten per-hop delay but add hops and churn; "
        "LEOTP's hop-local control is insensitive to both, BBR is not"
    ],
)
