"""Tests for the LEO constellation model: geometry, orbits, routing."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.constellation import (
    ConstellationRouter,
    EARTH_RADIUS_M,
    NoRouteError,
    RoutingConfig,
    SPEED_OF_LIGHT_M_S,
    SatelliteId,
    WalkerConstellation,
    compute_path_schedule,
    elevation_angle_deg,
    geodetic_to_ecef,
    great_circle_distance_m,
    max_gsl_range_m,
    orbital_period_s,
    propagation_delay_s,
    representative_hop_count,
    route_entries,
    starlink_core_shell,
    starlink_hop_specs,
    station_by_name,
    top_cities,
)
from repro.constellation.orbit import CircularOrbit
from repro.faults import Timeline, TimelineDriver
from repro.netsim.link import DuplexLink
from repro.netsim.node import SinkNode
from repro.simcore import Simulator


class TestGeometry:
    def test_ecef_equator(self):
        pos = geodetic_to_ecef(0.0, 0.0, 0.0)
        assert pos[0] == pytest.approx(EARTH_RADIUS_M)
        assert abs(pos[1]) < 1e-6 and abs(pos[2]) < 1e-6

    def test_ecef_north_pole(self):
        pos = geodetic_to_ecef(90.0, 0.0, 0.0)
        assert pos[2] == pytest.approx(EARTH_RADIUS_M)

    def test_ecef_altitude(self):
        pos = geodetic_to_ecef(0.0, 90.0, 1000.0)
        assert np.linalg.norm(pos) == pytest.approx(EARTH_RADIUS_M + 1000.0)

    def test_propagation_delay(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([SPEED_OF_LIGHT_M_S, 0.0, 0.0])
        assert propagation_delay_s(a, b) == pytest.approx(1.0)

    def test_elevation_straight_up(self):
        ground = geodetic_to_ecef(0.0, 0.0)
        sat = geodetic_to_ecef(0.0, 0.0, 1_150_000.0)
        assert elevation_angle_deg(ground, sat) == pytest.approx(90.0)

    def test_elevation_below_horizon(self):
        ground = geodetic_to_ecef(0.0, 0.0)
        sat = geodetic_to_ecef(0.0, 180.0, 1_150_000.0)  # other side of Earth
        assert elevation_angle_deg(ground, sat) < 0

    def test_great_circle_quarter(self):
        d = great_circle_distance_m(0.0, 0.0, 0.0, 90.0)
        assert d == pytest.approx(math.pi / 2 * EARTH_RADIUS_M, rel=1e-6)

    def test_max_gsl_range_zenith_bound(self):
        # At a 90-degree mask only the zenith pass is visible.
        assert max_gsl_range_m(1_150_000.0, 90.0) == pytest.approx(1_150_000.0)

    def test_max_gsl_range_grows_with_lower_mask(self):
        assert max_gsl_range_m(1_150_000.0, 25.0) > max_gsl_range_m(1_150_000.0, 40.0)


class TestOrbit:
    def test_leo_period_about_109_minutes(self):
        period = orbital_period_s(1_150_000.0)
        assert 100 * 60 < period < 115 * 60

    def test_circular_orbit_radius_constant(self):
        orbit = CircularOrbit(1_150_000.0, 53.0, raan_rad=0.3, phase_rad=1.0)
        for t in [0.0, 100.0, 2000.0]:
            r = np.linalg.norm(orbit.position_ecef(t))
            assert r == pytest.approx(EARTH_RADIUS_M + 1_150_000.0, rel=1e-9)

    def test_position_changes_over_time(self):
        orbit = CircularOrbit(1_150_000.0, 53.0, 0.0, 0.0)
        assert not np.allclose(orbit.position_ecef(0.0), orbit.position_ecef(60.0))

    def test_inclination_bounds_latitude(self):
        orbit = CircularOrbit(1_150_000.0, 53.0, 0.0, 0.0)
        period = orbital_period_s(1_150_000.0)
        max_z = max(
            abs(orbit.position_ecef(t)[2]) for t in np.linspace(0, period, 200)
        )
        r = EARTH_RADIUS_M + 1_150_000.0
        max_lat = math.degrees(math.asin(max_z / r))
        assert max_lat == pytest.approx(53.0, abs=1.0)

    def test_period_validation(self):
        with pytest.raises(ValueError):
            orbital_period_s(0.0)


class TestWalker:
    def test_starlink_core_shell_dimensions(self):
        shell = starlink_core_shell()
        assert shell.num_satellites == 1600
        assert shell.num_planes == 32
        assert shell.sats_per_plane == 50
        assert shell.altitude_m == 1_150_000.0
        assert shell.inclination_deg == 53.0

    def test_positions_shape(self):
        shell = WalkerConstellation(num_planes=4, sats_per_plane=5)
        assert shell.positions_ecef(0.0).shape == (20, 3)

    def test_id_index_roundtrip(self):
        shell = WalkerConstellation(num_planes=4, sats_per_plane=5)
        for idx in range(shell.num_satellites):
            assert shell.index_of(shell.id_of(idx)) == idx

    def test_index_bounds(self):
        shell = WalkerConstellation(num_planes=2, sats_per_plane=2)
        with pytest.raises(ValueError):
            shell.id_of(4)
        with pytest.raises(ValueError):
            shell.index_of(SatelliteId(2, 0))

    def test_four_isl_neighbors(self):
        shell = WalkerConstellation(num_planes=4, sats_per_plane=5)
        neighbors = shell.isl_neighbors(7)
        assert len(neighbors) == 4
        assert len(set(neighbors)) == 4
        assert 7 not in neighbors

    def test_isl_neighbors_wrap_around(self):
        shell = WalkerConstellation(num_planes=4, sats_per_plane=5)
        neighbors = shell.isl_neighbors(0)  # plane 0, slot 0
        assert shell.index_of(SatelliteId(0, 1)) in neighbors
        assert shell.index_of(SatelliteId(0, 4)) in neighbors  # slot wrap
        assert shell.index_of(SatelliteId(3, 0)) in neighbors  # plane wrap

    def test_satellites_evenly_spread(self):
        shell = WalkerConstellation(num_planes=8, sats_per_plane=8)
        pos = shell.positions_ecef(0.0)
        # No two satellites should coincide.
        dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 100_000  # at least 100 km apart


class TestGroundStations:
    def test_returns_100_cities(self):
        cities = top_cities(100)
        assert len(cities) == 100
        names = {c.name for c in cities}
        for required in ["Beijing", "Shanghai", "Hong Kong", "Paris", "New York"]:
            assert required in names

    def test_sorted_by_population(self):
        cities = top_cities(10)
        pops = [c.population_m for c in cities]
        assert pops == sorted(pops, reverse=True)

    def test_lookup_by_name(self):
        beijing = station_by_name("beijing")
        assert beijing.lat_deg == pytest.approx(39.90, abs=0.2)

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            station_by_name("Atlantis")

    def test_n_validation(self):
        with pytest.raises(ValueError):
            top_cities(0)

    def test_coordinates_valid(self):
        for c in top_cities(100):
            assert -90 <= c.lat_deg <= 90
            assert -180 <= c.lon_deg <= 180


@pytest.fixture(scope="module")
def router():
    return ConstellationRouter(starlink_core_shell(), top_cities(100))


@pytest.fixture(scope="module")
def bent_pipe_router():
    return ConstellationRouter(
        starlink_core_shell(), top_cities(100), RoutingConfig(isls_enabled=False)
    )


class TestRouting:
    def test_route_endpoints(self, router):
        snap = router.route_at(0.0, "Beijing", "New York")
        assert snap.nodes[0] == "gs:Beijing"
        assert snap.nodes[-1] == "gs:New York"

    def test_route_alternates_through_satellites(self, router):
        snap = router.route_at(0.0, "Beijing", "Paris")
        for node in snap.nodes[1:-1]:
            assert node.startswith("sat-")

    def test_first_last_hops_are_gsl(self, router):
        snap = router.route_at(0.0, "Beijing", "New York")
        assert snap.hop_is_gsl[0] and snap.hop_is_gsl[-1]
        assert not any(snap.hop_is_gsl[1:-1])

    def test_longer_distance_more_hops(self, router):
        hk = router.route_at(0.0, "Beijing", "Hong Kong")
        ny = router.route_at(0.0, "Beijing", "New York")
        assert ny.hop_count > hk.hop_count

    def test_delay_exceeds_great_circle_bound(self, router):
        snap = router.route_at(0.0, "Beijing", "New York")
        bj, ny = station_by_name("Beijing"), station_by_name("New York")
        floor = great_circle_distance_m(
            bj.lat_deg, bj.lon_deg, ny.lat_deg, ny.lon_deg
        ) / SPEED_OF_LIGHT_M_S
        assert snap.total_delay_s >= floor * 0.9

    def test_bent_pipe_uses_only_gsls(self, bent_pipe_router):
        snap = bent_pipe_router.route_at(0.0, "Beijing", "Shanghai")
        assert all(snap.hop_is_gsl)

    def test_no_route_raises(self):
        # A one-satellite "constellation" cannot connect antipodal cities.
        tiny = WalkerConstellation(num_planes=1, sats_per_plane=1)
        router = ConstellationRouter(tiny, top_cities(100))
        with pytest.raises(NoRouteError):
            router.route_at(0.0, "Beijing", "New York")


class TestPathSchedule:
    def test_schedule_sampling(self, router):
        sched = compute_path_schedule(router, "Beijing", "Hong Kong", 10.0, 2.0)
        assert len(sched.snapshots) == 5
        assert sched.mean_hop_count >= 2

    def test_at_picks_last_snapshot_in_force(self, router):
        sched = compute_path_schedule(router, "Beijing", "Hong Kong", 10.0, 2.0)
        assert sched.at(3.0).time == 2.0
        assert sched.at(0.0).time == 0.0

    def test_route_changes_over_orbit_motion(self, router):
        sched = compute_path_schedule(
            router, "Beijing", "Hong Kong", 300.0, 30.0
        )
        assert len(sched.change_times()) >= 1

    def test_validation(self, router):
        with pytest.raises(ValueError):
            compute_path_schedule(router, "Beijing", "Paris", 0.0)
        with pytest.raises(ValueError):
            compute_path_schedule(
                router, "Beijing", "Paris", 10.0, on_gap="ignore"
            )

    def test_single_slice_schedule(self, router):
        sched = compute_path_schedule(router, "Beijing", "Paris", 2.0, 5.0)
        assert len(sched.snapshots) == 1
        assert sched.change_times() == []
        assert sched.at(0.0) is sched.at(100.0)  # held indefinitely
        assert sched.mean_hop_count == sched.snapshots[0].hop_count

    def test_at_slice_boundary_off_by_one(self, router):
        sched = compute_path_schedule(router, "Beijing", "Hong Kong", 10.0, 2.0)
        # Exactly on a boundary the NEW slice is in force; just before
        # it, the old one still is; before t0, the first is clamped.
        assert sched.at(2.0).time == 2.0
        assert sched.at(2.0 - 1e-9).time == 0.0
        assert sched.at(-5.0).time == 0.0

    def test_route_flap_between_adjacent_slices(self, router):
        # Hunt a window where the route changes and changes back (flap);
        # fall back to asserting change bookkeeping stays consistent.
        sched = compute_path_schedule(router, "Beijing", "Paris", 600.0, 15.0)
        changes = sched.change_times()
        assert changes, "600 s of orbit must move the route at least once"
        # At every change time the in-force route genuinely differs from
        # the slice before it (flap detection keys off node sequences).
        for t in changes:
            assert sched.at(t - 1e-6).nodes != sched.at(t).nodes

    def test_unreachable_pair_raises_even_with_hold(self):
        tiny = WalkerConstellation(num_planes=1, sats_per_plane=1)
        router = ConstellationRouter(tiny, top_cities(100))
        with pytest.raises(NoRouteError):
            compute_path_schedule(router, "Beijing", "New York", 10.0, 2.0)
        # "hold" tolerates transient gaps but not a pair that is never
        # reachable in any slice.
        with pytest.raises(NoRouteError, match="any slice"):
            compute_path_schedule(
                router, "Beijing", "New York", 10.0, 2.0, on_gap="hold"
            )

    def test_hold_records_gaps_and_holds_route(self):
        # One satellite still serves nearby city pairs intermittently:
        # route slices exist when it is visible to both, gaps otherwise.
        tiny = WalkerConstellation(num_planes=1, sats_per_plane=1)
        router = ConstellationRouter(tiny, top_cities(100))
        period = orbital_period_s(tiny.altitude_m)
        with pytest.raises(NoRouteError):
            compute_path_schedule(
                router, "Beijing", "Shanghai", period, 30.0
            )
        sched = compute_path_schedule(
            router, "Beijing", "Shanghai", period, 30.0, on_gap="hold"
        )
        assert sched.snapshots and sched.gaps
        for start, end in sched.gaps:
            assert end > start >= 0.0
            # The held route during the gap is the last one before it.
            pre_gap = [s for s in sched.snapshots if s.time < start]
            if pre_gap:
                assert sched.at((start + end) / 2) == pre_gap[-1]
        covered = sum(end - start for start, end in sched.gaps)
        assert covered + 30.0 * len(sched.snapshots) == pytest.approx(
            30.0 * round(period / 30.0 + 0.5), rel=0.1
        )


class TestEmulationBridge:
    def test_starlink_hop_specs_bottleneck_first(self):
        specs = starlink_hop_specs(5)
        assert specs[0].profile is not None  # V-curve GSL uplink
        assert specs[0].plr == 0.01
        assert specs[1].plr == 0.001  # ISL
        assert specs[-1].plr == 0.01  # GSL downlink

    def test_bent_pipe_specs_all_gsl_loss(self):
        specs = starlink_hop_specs(4, isls_enabled=False)
        assert all(s.plr == 0.01 for s in specs)

    def test_minimum_hops(self):
        with pytest.raises(ValueError):
            starlink_hop_specs(1)

    def test_representative_hop_count(self, router):
        sched = compute_path_schedule(router, "Beijing", "Hong Kong", 10.0, 2.0)
        counts = [s.hop_count for s in sched.snapshots]
        assert representative_hop_count(sched) in counts

    def _driven(self, sched, interval_s, until_s):
        """A 4-hop chain under ``sched``'s route timeline, run to ``until_s``."""
        sim = Simulator()
        links = [
            DuplexLink(sim, SinkNode(sim, f"a{i}"), SinkNode(sim, f"b{i}"))
            for i in range(4)
        ]
        driver = TimelineDriver(
            sim, SimpleNamespace(links=links),
            Timeline(route_entries(sched, 4, interval_s)),
        )
        sim.run(until=until_s)
        return links, driver

    def test_driver_applies_delays(self, router):
        sched = compute_path_schedule(router, "Beijing", "Paris", 30.0, 5.0)
        links, _ = self._driven(sched, 5.0, 0.0)
        expected = sched.at(0.0).total_delay_s / 4
        assert links[0].ab.delay_s == pytest.approx(expected)
        links, _ = self._driven(sched, 5.0, 21.0)
        expected_late = sched.at(20.0).total_delay_s / 4
        assert links[0].ab.delay_s == pytest.approx(expected_late)
        assert links[3].ba.delay_s == pytest.approx(expected_late)

    def test_driver_counts_handovers(self, router):
        sched = compute_path_schedule(router, "Beijing", "Paris", 300.0, 30.0)
        if not sched.change_times():
            pytest.skip("no route change in this window")
        links, driver = self._driven(sched, 30.0, 300.0)
        # A route change flushes an interior hop: a zero-length outage.
        assert driver.faults_applied >= 1
        flushes = [t for t, action in driver.log if "DOWN" in action]
        assert set(flushes) <= set(sched.change_times())
