"""Analytic circular-orbit geometry for single ground-station passes.

Model: non-rotating spherical Earth of radius R_EARTH_KM, circular orbit.
A pass is set by the altitude and the station's elevation window alone; the
orbit's inclination only decides which passes occur, not their shape. Earth
rotation shifts the pass shape by under a percent at LEO time scales, which
is below the accuracy needed for desk-scale link analysis, so it is ignored
here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MU_EARTH_KM3_S2, R_EARTH_KM


class GeometryError(ValueError):
    """Raised for physically impossible orbit/pass requests."""


@dataclass(frozen=True)
class OrbitSpec:
    """Circular orbit at altitude_km above the Earth radius R_EARTH_KM.

    The orbit plane does not enter the pass model, which places every pass
    by its peak elevation, so no inclination is kept; sso_inclination gives
    the sun-synchronous one for an altitude.
    """

    altitude_km: float

    def __post_init__(self) -> None:
        if not self.altitude_km > 0:
            raise GeometryError(f"orbit.altitude_km must be > 0, got {self.altitude_km}")

    @property
    def radius_km(self) -> float:
        return R_EARTH_KM + self.altitude_km


@dataclass(frozen=True)
class GroundStation:
    """Elevation window of a station pass: post-processing cut and peak."""

    min_elevation_deg: float
    max_elevation_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.min_elevation_deg < self.max_elevation_deg <= 90.0:
            raise GeometryError(
                "station elevations must satisfy 0 < min_elevation_deg < "
                f"max_elevation_deg <= 90, got ({self.min_elevation_deg}, "
                f"{self.max_elevation_deg})"
            )


@dataclass(frozen=True)
class PassGeometry:
    """Time series of elevation and slant range for one pass.

    samples is a record array with the fields t_s (offset from
    culmination), elevation_deg and slant_range_km, one row per time step.
    min_elevation_deg is the station cut the samples were clipped to (0.0
    for a pass built by hand).
    """

    samples: np.recarray
    sample_dt_s: float
    min_elevation_deg: float = 0.0

    @property
    def duration_s(self) -> float:
        if not len(self.samples):
            return 0.0
        return float(self.samples.t_s[-1] - self.samples.t_s[0])


def sso_inclination(altitude_km: float) -> float:
    """Approximate inclination of a circular sun-synchronous orbit.

    Uses cos(i) = -((R_e + h) / 12352 km)^(7/2).

    Args:
        altitude_km: Orbit altitude in km.

    Returns:
        Inclination in degrees (retrograde, > 90).

    Raises:
        GeometryError: If the altitude admits no sun-synchronous solution.
    """
    if not altitude_km > 0:
        raise GeometryError(f"altitude_km must be > 0, got {altitude_km}")
    cos_i = -(((R_EARTH_KM + altitude_km) / 12352.0) ** 3.5)
    if cos_i < -1.0:
        raise GeometryError(
            f"no sun-synchronous solution for altitude {altitude_km} km"
        )
    return math.degrees(math.acos(cos_i))


def max_ground_distance(altitude_km: float, eps_min_deg: float) -> float:
    """Maximum ground distance between two stations that can simultaneously
    see a satellite at the given altitude above elevation eps_min.

    D_max = 2 R_e [arccos((R_e / (R_e + h)) cos(eps)) - eps]

    Args:
        altitude_km: Satellite altitude in km.
        eps_min_deg: Minimum usable elevation angle in degrees.

    Returns:
        Great-circle distance in km.
    """
    if not altitude_km > 0:
        raise GeometryError(f"altitude_km must be > 0, got {altitude_km}")
    if not 0.0 <= eps_min_deg < 90.0:
        raise GeometryError(f"eps_min_deg must be in [0, 90), got {eps_min_deg}")
    eps = math.radians(eps_min_deg)
    psi = math.acos(R_EARTH_KM / (R_EARTH_KM + altitude_km) * math.cos(eps)) - eps
    return 2.0 * R_EARTH_KM * psi


def coverage_and_availability(altitude_km: float) -> tuple[float, float]:
    """Instantaneously covered ground area and the globally averaged
    fraction of time a ground point has the satellite above its horizon.

    A_cov = 2 pi R_e^2 h / (R_e + h);  <F_avail> = h / (2 (R_e + h)).

    Returns:
        (area_km2, availability_fraction); the fraction lies in (0, 0.5).
    """
    if not altitude_km > 0:
        raise GeometryError(f"altitude_km must be > 0, got {altitude_km}")
    ratio = altitude_km / (R_EARTH_KM + altitude_km)
    area = 2.0 * math.pi * R_EARTH_KM**2 * ratio
    return area, 0.5 * ratio


def _central_angle_at_elevation(radius_km: float, elevation_deg: float) -> float:
    """Earth central angle between sub-satellite point and station when the
    satellite appears at the given elevation."""
    eps = math.radians(elevation_deg)
    return math.acos(R_EARTH_KM / radius_km * math.cos(eps)) - eps


def _elevation_from_central_angle(radius_km: float, psi: np.ndarray) -> np.ndarray:
    """Invert the pass geometry: elevation in degrees for central angle psi."""
    elevation = np.degrees(np.arctan2(np.cos(psi) - R_EARTH_KM / radius_km, np.sin(psi)))
    return np.where(psi <= 0.0, 90.0, elevation)


def slant_range_km(radius_km: float, psi):
    """Line-of-sight distance for central angle psi (law of cosines)."""
    return np.sqrt(
        R_EARTH_KM**2 + radius_km**2 - 2.0 * R_EARTH_KM * radius_km * np.cos(psi)
    )


def synth_pass(orbit: OrbitSpec, station: GroundStation, sample_dt_s: float = 1.0) -> PassGeometry:
    """Synthesize the elevation/range time series of one pass.

    The orbital rate is w = sqrt(mu / (R_e + h)^3). The minimum central
    angle psi_min follows from the requested peak elevation, and the
    central angle evolves as cos(psi(t)) = cos(psi_min) cos(w t). Samples
    are emitted on a symmetric grid around culmination (t = 0) and clipped
    to elevation >= station.min_elevation_deg.

    Args:
        orbit: Circular orbit definition.
        station: Elevation window (cut and peak).
        sample_dt_s: Time step of the series, seconds.

    Returns:
        PassGeometry whose samples record array is ordered by time.
    """
    if not sample_dt_s > 0:
        raise GeometryError(f"sample_dt_s must be > 0, got {sample_dt_s}")
    r_sat = orbit.radius_km
    omega = math.sqrt(MU_EARTH_KM3_S2 / r_sat**3)
    psi_min = _central_angle_at_elevation(r_sat, station.max_elevation_deg)
    psi_cut = _central_angle_at_elevation(r_sat, station.min_elevation_deg)
    # Half-duration of the visible arc above the cut.
    cos_ratio = math.cos(psi_cut) / math.cos(psi_min)
    t_half = math.acos(min(1.0, cos_ratio)) / omega
    n_half = int(math.floor(t_half / sample_dt_s + 1e-12))

    t = np.arange(-n_half, n_half + 1) * sample_dt_s
    psi = np.arccos(np.minimum(1.0, math.cos(psi_min) * np.cos(omega * t)))
    samples = np.rec.fromarrays(
        [t, _elevation_from_central_angle(r_sat, psi), slant_range_km(r_sat, psi)],
        names=["t_s", "elevation_deg", "slant_range_km"],
    )
    return PassGeometry(samples=samples, sample_dt_s=sample_dt_s,
                        min_elevation_deg=station.min_elevation_deg)
