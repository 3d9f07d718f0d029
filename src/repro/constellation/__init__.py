"""LEO constellation model: orbits, Walker shell, ground stations, routing."""

from repro.constellation.emulation import (
    StarlinkLinkParams,
    representative_hop_count,
    route_entries,
    starlink_hop_specs,
)
from repro.constellation.geometry import (
    EARTH_RADIUS_M,
    SPEED_OF_LIGHT_M_S,
    elevation_angle_deg,
    geodetic_to_ecef,
    great_circle_distance_m,
    max_gsl_range_m,
    propagation_delay_s,
)
from repro.constellation.groundstations import GroundStation, station_by_name, top_cities
from repro.constellation.orbit import CircularOrbit, mean_motion_rad_s, orbital_period_s
from repro.constellation.routing import (
    ConstellationRouter,
    NoRouteError,
    PathSchedule,
    PathSnapshot,
    RoutingConfig,
    compute_path_schedule,
)
from repro.constellation.walker import SatelliteId, WalkerConstellation, starlink_core_shell

__all__ = [
    "CircularOrbit",
    "ConstellationRouter",
    "EARTH_RADIUS_M",
    "GroundStation",
    "NoRouteError",
    "PathSchedule",
    "PathSnapshot",
    "RoutingConfig",
    "SPEED_OF_LIGHT_M_S",
    "SatelliteId",
    "StarlinkLinkParams",
    "WalkerConstellation",
    "compute_path_schedule",
    "elevation_angle_deg",
    "geodetic_to_ecef",
    "great_circle_distance_m",
    "max_gsl_range_m",
    "mean_motion_rad_s",
    "orbital_period_s",
    "propagation_delay_s",
    "representative_hop_count",
    "route_entries",
    "starlink_core_shell",
    "starlink_hop_specs",
    "station_by_name",
    "top_cities",
]
