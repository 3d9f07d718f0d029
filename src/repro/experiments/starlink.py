"""Shared runner for the emulated-Starlink experiments (Figs. 16-18, Table II).

Reproduces the paper's Sec. V-C methodology: routes over the 1600-satellite
core shell are computed per time slice; a chain whose per-hop delays track
the route carries the transport protocols; the GSL uplink is a 10 Mbps
bottleneck with a handover "V" curve and +-0.5 Mbps bias; GSLs lose 1 % of
packets and ISLs 0.1 %.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.constellation import (
    ConstellationRouter,
    PathDynamicsDriver,
    PathSchedule,
    RoutingConfig,
    compute_path_schedule,
    representative_hop_count,
    starlink_core_shell,
    starlink_hop_specs,
    top_cities,
)
from repro.core import LeotpConfig
from repro.experiments.common import FlowMetrics, PathSpec, run_chain


@lru_cache(maxsize=8)
def _router(isls_enabled: bool) -> ConstellationRouter:
    return ConstellationRouter(
        starlink_core_shell(),
        top_cities(100),
        RoutingConfig(isls_enabled=isls_enabled),
    )


@lru_cache(maxsize=64)
def path_schedule(
    city_a: str, city_b: str, isls_enabled: bool, duration_s: float,
    step_s: float = 2.0,
) -> PathSchedule:
    return compute_path_schedule(
        _router(isls_enabled), city_a, city_b, duration_s, step_s
    )


def run_starlink_flow(
    protocol: str,
    schedule: PathSchedule,
    duration_s: float,
    seed: int = 0,
    isls_enabled: bool = True,
    coverage: float = 1.0,
    config: Optional[LeotpConfig] = None,
) -> tuple[FlowMetrics, dict]:
    """Run one transfer along ``schedule``'s route (its first city is the
    producer/sender) over a chain of emulated Starlink hops.

    ``protocol`` is ``"leotp"`` or a TCP congestion-control name.
    Returns flow metrics plus context (hop count, propagation delay).
    """
    n_hops = max(representative_hop_count(schedule), 2)
    hops = starlink_hop_specs(n_hops, isls_enabled=isls_enabled, seed=seed)
    if protocol == "leotp":
        spec = PathSpec(hops=hops, config=config, coverage=coverage)
    else:
        spec = PathSpec(protocol="tcp", hops=hops, cc=protocol)
    metrics, _ = run_chain(
        spec, duration_s, seed=seed,
        attach=lambda sim, path: PathDynamicsDriver(
            sim, schedule, path.links, update_interval_s=2.0
        ),
    )
    context = {
        "hop_count": n_hops,
        "mean_prop_delay_ms": schedule.mean_delay_s * 1000,
    }
    return metrics, context


CITY_PAIRS = {
    "BJ-SH": ("Beijing", "Shanghai"),
    "BJ-HK": ("Beijing", "Hong Kong"),
    "BJ-PR": ("Beijing", "Paris"),
    "BJ-NY": ("Beijing", "New York"),
}
