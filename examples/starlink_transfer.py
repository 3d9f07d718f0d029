"""Transcontinental transfer over the emulated Starlink constellation.

Computes time-varying routes from Beijing to New York over the 1600-
satellite core shell (with inter-satellite links), drives a chain whose
delays follow the orbital motion, and compares LEOTP against TCP BBR on
the identical network — the paper's headline Fig. 17 scenario.  Run with::

    python examples/starlink_transfer.py
"""

from repro.constellation import (
    ConstellationRouter,
    compute_path_schedule,
    representative_hop_count,
    route_entries,
    starlink_core_shell,
    starlink_hop_specs,
    top_cities,
)
from repro.core import build_leotp_path
from repro.faults import Timeline, TimelineDriver
from repro.simcore import RngRegistry, Simulator
from repro.tcp import build_e2e_tcp_path
from repro.tcp.cc import CCSpec

DURATION_S = 45.0
CITY_A, CITY_B = "Beijing", "New York"


def main() -> None:
    print(f"Computing {CITY_A} -> {CITY_B} routes over the Starlink core shell...")
    router = ConstellationRouter(starlink_core_shell(), top_cities(100))
    schedule = compute_path_schedule(router, CITY_A, CITY_B, DURATION_S, step_s=2.0)
    n_hops = representative_hop_count(schedule)
    print(f"  typical hop count:     {n_hops}")
    print(f"  mean propagation delay {schedule.mean_delay_s * 1000:.1f} ms")
    print(f"  route changes:         {len(schedule.change_times())} "
          f"in {DURATION_S:.0f} s\n")

    hops = starlink_hop_specs(n_hops, isls_enabled=True)
    # Hop delays follow the route, sampled every 2 s; a route change
    # flushes the hops whose satellites left it.
    timeline = Timeline(route_entries(schedule, n_hops, update_interval_s=2.0))

    for protocol in ("leotp", "bbr"):
        sim = Simulator()
        rng = RngRegistry(root_seed=3)
        if protocol == "leotp":
            path = build_leotp_path(sim, rng, hops)
        else:
            path = build_e2e_tcp_path(sim, rng, hops, CCSpec("bbr"))
        TimelineDriver(sim, path, timeline)
        sim.run(until=DURATION_S)
        rec = path.recorder
        queueing = rec.owd_mean() * 1000 - schedule.mean_delay_s * 1000
        print(f"{protocol.upper():6s} throughput {rec.throughput_bps(10, DURATION_S) / 1e6:6.2f} Mbps"
              f" | mean OWD {rec.owd_mean() * 1000:6.1f} ms"
              f" | queueing {queueing:6.1f} ms"
              f" | p99 OWD {rec.owd_percentile(99) * 1000:6.1f} ms")


if __name__ == "__main__":
    main()
