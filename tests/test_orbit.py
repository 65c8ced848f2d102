"""Pass geometry against closed-form anchors.

Derived values were computed independently from the stated formulas with
plain calculator arithmetic before implementation and frozen here.
"""
import math

import pytest

from satqkd.constants import R_EARTH_KM
from satqkd.orbit import (
    GeometryError,
    GroundStation,
    OrbitSpec,
    coverage_and_availability,
    max_ground_distance,
    sso_inclination,
    synth_pass,
)


def closed_form_slant_range(altitude_km: float, elevation_deg: float) -> float:
    """Independent oracle: L(e) = -R sin(e) + sqrt(R^2 sin^2(e) + h^2 + 2Rh)."""
    s = R_EARTH_KM * math.sin(math.radians(elevation_deg))
    return -s + math.sqrt(s * s + altitude_km**2 + 2 * R_EARTH_KM * altitude_km)


class TestSsoInclination:
    def test_reference_altitude(self):
        """567 km gives 97.66 degrees."""
        assert sso_inclination(567.0) == pytest.approx(97.66, abs=0.05)

    def test_boundary_altitude(self):
        """cos(i) = -1 exactly at h = 12352 - R_earth."""
        assert sso_inclination(12352.0 - R_EARTH_KM) == pytest.approx(180.0, abs=1e-9)

    def test_low_altitude(self):
        """Independent evaluation: 400 km -> 97.0310 degrees."""
        assert sso_inclination(400.0) == pytest.approx(97.03103, abs=1e-4)

    def test_no_solution_above_boundary(self):
        with pytest.raises(GeometryError, match="sun-synchronous"):
            sso_inclination(12352.0 - R_EARTH_KM + 1.0)


class TestMaxGroundDistance:
    def test_reference_case(self):
        """574 km and 20 degrees give 2325 km within 1 percent."""
        assert max_ground_distance(574.0, 20.0) == pytest.approx(2325.0, rel=0.01)

    def test_vanishing_altitude(self):
        """arccos(cos(e)) = e for h -> 0."""
        assert max_ground_distance(1e-9, 35.0) == pytest.approx(0.0, abs=1e-6)

    def test_independent_evaluation(self):
        """Frozen oracle value for (600 km, 10 degrees)."""
        assert max_ground_distance(600.0, 10.0) == pytest.approx(3523.1913, abs=1e-3)

    def test_monotone_in_altitude_and_elevation(self):
        altitudes = [300.0, 500.0, 800.0, 1200.0, 2000.0]
        for eps in (5.0, 20.0, 45.0):
            values = [max_ground_distance(h, eps) for h in altitudes]
            assert all(b > a for a, b in zip(values, values[1:]))
        for h in altitudes:
            values = [max_ground_distance(h, e) for e in (0.0, 10.0, 30.0, 60.0, 80.0)]
            assert all(b < a for a, b in zip(values, values[1:]))


class TestCoverage:
    def test_high_altitude_asymptote(self):
        _, fraction = coverage_and_availability(1e12)
        assert fraction == pytest.approx(0.5, abs=1e-6)

    def test_reference_fraction(self):
        """574 km -> availability 0.041282."""
        _, fraction = coverage_and_availability(574.0)
        assert fraction == pytest.approx(0.041282, abs=1e-5)

    def test_reference_area(self):
        """574 km -> 2.1104e7 km^2 covered."""
        area, _ = coverage_and_availability(574.0)
        assert area == pytest.approx(2.11038e7, rel=1e-4)

    def test_fraction_in_open_interval(self):
        for h in (100.0, 574.0, 2000.0, 36000.0):
            _, fraction = coverage_and_availability(h)
            assert 0.0 < fraction < 0.5


class TestSynthPass:
    def test_zenith_pass_culmination_range(self):
        """At a 90 degree peak the culmination range equals the altitude."""
        pg = synth_pass(OrbitSpec(574.0), GroundStation(20.0, 90.0))
        culmination = min(pg.samples, key=lambda s: abs(s.t_s))
        assert culmination.t_s == 0.0
        assert culmination.slant_range_km == pytest.approx(574.0, abs=1e-9)
        assert culmination.elevation_deg == pytest.approx(90.0, abs=1e-6)

    def test_symmetry(self):
        pg = synth_pass(OrbitSpec(567.0), GroundStation(20.0, 80.0))
        by_time = {s.t_s: s for s in pg.samples}
        for s in pg.samples:
            mirror = by_time[-s.t_s]
            assert s.elevation_deg == pytest.approx(mirror.elevation_deg, abs=1e-12)
            assert s.slant_range_km == pytest.approx(mirror.slant_range_km, abs=1e-12)

    def test_range_at_cut_matches_closed_form(self):
        """Slant range at the 20 degree cut: 1341.375 km for h = 574 km."""
        pg = synth_pass(OrbitSpec(574.0), GroundStation(20.0, 80.0), sample_dt_s=0.05)
        edge = pg.samples[0]
        assert edge.elevation_deg >= 20.0
        expected = closed_form_slant_range(574.0, edge.elevation_deg)
        assert edge.slant_range_km == pytest.approx(expected, rel=1e-9)
        assert closed_form_slant_range(574.0, 20.0) == pytest.approx(1341.375, abs=1e-2)

    def test_duration_corridor(self):
        """Reference pass (h=567, peak 80) spends 250..450 s above 20 deg."""
        pg = synth_pass(OrbitSpec(567.0), GroundStation(20.0, 80.0))
        assert 250.0 <= pg.duration_s <= 450.0

    def test_range_minimized_at_culmination(self):
        pg = synth_pass(OrbitSpec(567.0), GroundStation(20.0, 80.0))
        n = len(pg.samples) // 2
        ranges = pg.samples.slant_range_km.tolist()
        assert min(ranges) == ranges[n]
        right = ranges[n:]
        assert all(b > a for a, b in zip(right, right[1:]))
        left = ranges[: n + 1]
        assert all(b < a for a, b in zip(left, left[1:]))

    def test_range_bounds(self):
        orbit = OrbitSpec(567.0)
        station = GroundStation(20.0, 80.0)
        pg = synth_pass(orbit, station)
        upper = closed_form_slant_range(567.0, station.min_elevation_deg)
        for s in pg.samples:
            assert 567.0 <= s.slant_range_km <= upper + 1e-9
            assert station.min_elevation_deg <= s.elevation_deg <= station.max_elevation_deg + 1e-9

    def test_invalid_station_rejected(self):
        with pytest.raises(GeometryError):
            GroundStation(min_elevation_deg=50.0, max_elevation_deg=30.0)
        with pytest.raises(GeometryError):
            GroundStation(min_elevation_deg=0.0, max_elevation_deg=80.0)

    def test_sample_step_must_be_positive(self):
        with pytest.raises(GeometryError):
            synth_pass(OrbitSpec(567.0), GroundStation(20.0, 80.0), sample_dt_s=0.0)


def test_orbit_spec_validation():
    with pytest.raises(GeometryError):
        OrbitSpec(-1.0)
