"""Dynamic optical link budget for a satellite-to-ground downlink.

compute_breakdowns returns one record array row per pass sample. All
breakdown terms use the loss sign convention: positive dB values
attenuate, antenna gains enter as negative losses. The total is then the
plain sum of the named terms and eta = 10^(-total_db/10).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import C_LIGHT_M_S, H_PLANCK_J_S
from .orbit import PassGeometry

# Far-field coupling efficiency of a Gaussian beam truncated at alpha = 1.12,
# the ratio that maximizes on-axis antenna gain and the only one modelled.
# Calibrated so that the 85 mm / M^2 = 1.2 terminal reproduces its quoted
# 102.2 / 107.5 dB gains.
TRUNCATION_GAIN_FACTOR = 0.81

# Signed dB terms of a breakdown row; total_db is their sum.
TERM_FIELDS = (
    "tx_gain_db",
    "free_space_loss_db",
    "atmospheric_loss_db",
    "pointing_loss_db",
    "rx_area_gain_db",
    "rx_path_loss_db",
    "coupling_loss_db",
)


class LinkBudgetError(ValueError):
    """Raised for invalid hardware specs or unsupported link regimes."""


@dataclass(frozen=True)
class TransmitterSpec:
    """Satellite laser terminal parameters; the beam is truncated at the
    optimal ratio alpha = 1.12 (see TRUNCATION_GAIN_FACTOR)."""

    aperture_diam_m: float
    wavelength_nm: float
    m_squared: float = 1.2
    pointing_loss_db: float = 3.0

    def __post_init__(self) -> None:
        if not self.aperture_diam_m > 0:
            raise LinkBudgetError(f"transmitter.aperture_diam_m must be > 0, got {self.aperture_diam_m}")
        if not self.wavelength_nm > 0:
            raise LinkBudgetError(f"transmitter.wavelength_nm must be > 0, got {self.wavelength_nm}")
        if not self.m_squared >= 1.0:
            raise LinkBudgetError(f"transmitter.m_squared must be >= 1, got {self.m_squared}")
        if not self.pointing_loss_db >= 0:
            raise LinkBudgetError(f"transmitter.pointing_loss_db must be >= 0, got {self.pointing_loss_db}")

    @property
    def aperture_area_m2(self) -> float:
        return math.pi / 4.0 * self.aperture_diam_m**2


@dataclass(frozen=True)
class ReceiverSpec:
    """Ground telescope and signal-coupling parameters.

    coupling_mode is "fiber_with_AO" (single-mode fibre behind adaptive
    optics, fixed coupling loss) or "free_space" (large-area detector,
    coupling loss normally zero).
    """

    primary_diam_m: float
    obscuration_diam_m: float
    coupling_mode: str
    coupling_loss_db: float
    path_loss_db: float = 1.0
    fov_half_angle_urad: float = 6.25
    filter_bandwidth_nm: float = 5.0

    def __post_init__(self) -> None:
        if not self.primary_diam_m > 0:
            raise LinkBudgetError(f"receiver.primary_diam_m must be > 0, got {self.primary_diam_m}")
        if not 0 <= self.obscuration_diam_m < self.primary_diam_m:
            raise LinkBudgetError(
                "receiver.obscuration_diam_m must be in [0, primary_diam_m), got "
                f"{self.obscuration_diam_m}"
            )
        if self.coupling_mode not in ("fiber_with_AO", "free_space"):
            raise LinkBudgetError(
                f"receiver.coupling_mode must be 'fiber_with_AO' or 'free_space', got {self.coupling_mode!r}"
            )
        if not self.coupling_loss_db >= 0:
            raise LinkBudgetError(f"receiver.coupling_loss_db must be >= 0, got {self.coupling_loss_db}")
        if not self.path_loss_db >= 0:
            raise LinkBudgetError(f"receiver.path_loss_db must be >= 0, got {self.path_loss_db}")
        if not self.fov_half_angle_urad > 0:
            raise LinkBudgetError(f"receiver.fov_half_angle_urad must be > 0, got {self.fov_half_angle_urad}")
        if not self.filter_bandwidth_nm > 0:
            raise LinkBudgetError(f"receiver.filter_bandwidth_nm must be > 0, got {self.filter_bandwidth_nm}")

    @property
    def collecting_area_m2(self) -> float:
        return math.pi / 4.0 * (self.primary_diam_m**2 - self.obscuration_diam_m**2)


@dataclass(frozen=True)
class AtmosphereModel:
    """Zenith losses and night-sky radiance by wavelength.

    zenith_loss_db maps wavelength_nm -> one-way loss at zenith.
    sky_radiance_w_m2_sr_nm maps wavelength_nm -> diffuse radiance.
    elevation_table optionally overrides the airmass scaling with measured
    (elevation_deg, loss_db) rows, linearly interpolated.
    """

    zenith_loss_db: dict[float, float]
    sky_radiance_w_m2_sr_nm: dict[float, float]
    elevation_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        for wl, loss in self.zenith_loss_db.items():
            if not loss >= 0:
                raise LinkBudgetError(f"atmosphere.zenith_loss_db[{wl}] must be >= 0, got {loss}")
        for wl, rad in self.sky_radiance_w_m2_sr_nm.items():
            if not rad >= 0:
                raise LinkBudgetError(f"atmosphere.sky_radiance_w_m2_sr_nm[{wl}] must be >= 0, got {rad}")

    def zenith_loss_for(self, wavelength_nm: float) -> float:
        try:
            return self.zenith_loss_db[wavelength_nm]
        except KeyError:
            raise LinkBudgetError(
                f"atmosphere.zenith_loss_db has no entry for wavelength {wavelength_nm} nm"
            ) from None

    def radiance_for(self, wavelength_nm: float) -> float:
        try:
            return self.sky_radiance_w_m2_sr_nm[wavelength_nm]
        except KeyError:
            raise LinkBudgetError(
                f"atmosphere.sky_radiance_w_m2_sr_nm has no entry for wavelength {wavelength_nm} nm"
            ) from None

    def loss_at(self, elevation_deg, wavelength_nm: float):
        """Atmospheric loss in dB at each elevation; a table is clamped at its ends."""
        if self.elevation_table is not None:
            elevations, losses = zip(*self.elevation_table)
            return np.interp(elevation_deg, elevations, losses)
        return atmospheric_loss(elevation_deg, self.zenith_loss_for(wavelength_nm))


def tx_antenna_gain(tx: TransmitterSpec) -> float:
    """Transmit antenna gain in dB.

    G = g * (pi D / lambda)^2 / (M^2)^2 with g = 0.81, the gain factor of a
    beam truncated at alpha = 1.12.
    """
    lam_m = tx.wavelength_nm * 1e-9
    gain = TRUNCATION_GAIN_FACTOR * (math.pi * tx.aperture_diam_m / lam_m) ** 2 / tx.m_squared**2
    return 10.0 * math.log10(gain)


def ideal_tx_antenna_gain(aperture_diam_m: float, wavelength_nm: float) -> float:
    """Diffraction-limited gain (pi D / lambda)^2 in dB, no truncation or M^2."""
    lam_m = wavelength_nm * 1e-9
    return 10.0 * math.log10((math.pi * aperture_diam_m / lam_m) ** 2)


def free_space_loss(slant_range_km, wavelength_nm: float):
    """Free-space (Friis) loss 20 log10(4 pi L / lambda) in dB, per range."""
    slant_range_km = np.asarray(slant_range_km, dtype=float)
    bad = slant_range_km[~(slant_range_km > 0)]
    if bad.size:
        raise LinkBudgetError(f"slant_range_km must be > 0, got {bad[0]}")
    lam_m = wavelength_nm * 1e-9
    return 20.0 * np.log10(4.0 * math.pi * slant_range_km * 1e3 / lam_m)


def atmospheric_loss(elevation_deg, zenith_loss_db: float):
    """Plane-parallel airmass scaling of the zenith loss: zenith / sin(elev)."""
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    bad = elevation_deg[~((elevation_deg > 0.0) & (elevation_deg <= 90.0))]
    if bad.size:
        raise LinkBudgetError(f"elevation_deg must be in (0, 90], got {bad[0]}")
    if not zenith_loss_db >= 0:
        raise LinkBudgetError(f"zenith_loss_db must be >= 0, got {zenith_loss_db}")
    return zenith_loss_db / np.sin(np.radians(elevation_deg))


def rx_area_gain(rx: ReceiverSpec, wavelength_nm: float) -> float:
    """Receiver antenna gain 4 pi A_rx / lambda^2 in dB (annular aperture)."""
    lam_m = wavelength_nm * 1e-9
    return 10.0 * math.log10(4.0 * math.pi * rx.collecting_area_m2 / lam_m**2)


def compute_breakdowns(
    pass_geometry: PassGeometry,
    tx: TransmitterSpec,
    rx: ReceiverSpec,
    atm: AtmosphereModel,
) -> np.recarray:
    """Full dB breakdown of every pass sample, in sample order.

    Returns a record array with the TERM_FIELDS, total_db and eta. The
    geometric part is eta_geom = G_tx * A_rx / (4 pi L^2); atmospheric,
    pointing, receiver path and coupling losses are then added in dB.
    """
    samples = pass_geometry.samples
    terms = [
        -tx_antenna_gain(tx),
        free_space_loss(samples.slant_range_km, tx.wavelength_nm),
        atm.loss_at(samples.elevation_deg, tx.wavelength_nm),
        tx.pointing_loss_db,
        -rx_area_gain(rx, tx.wavelength_nm),
        rx.path_loss_db,
        rx.coupling_loss_db,
    ]
    columns = [np.broadcast_to(term, samples.shape) for term in terms]
    total = sum(columns)
    eta = 10.0 ** (-total / 10.0)
    near = eta > 1.0
    if near.any():
        raise LinkBudgetError(
            f"near-field regime unsupported: assembled eta = {eta[near][0]:.3g} > 1 at "
            f"range {samples.slant_range_km[near][0]} km"
        )
    return np.rec.fromarrays(columns + [total, eta], names=[*TERM_FIELDS, "total_db", "eta"])


def collection_upper_bound(tx: TransmitterSpec, rx: ReceiverSpec, slant_range_km: float) -> float:
    """Far-field collection bound A_tx * A_rx / (L^2 lambda^2)."""
    lam_m = tx.wavelength_nm * 1e-9
    return tx.aperture_area_m2 * rx.collecting_area_m2 / ((slant_range_km * 1e3) ** 2 * lam_m**2)


# Etendue coupling factor of a single-mode receiver, matched beam profile.
FIBER_COUPLING_FACTOR = 1.12


def background_click_rate(rx: ReceiverSpec, atm: AtmosphereModel, wavelength_nm: float,
                          detector_efficiency: float) -> float:
    """Radiometric estimate of sky-background clicks per second.

    Fibre coupling collects one spatial mode (etendue ~ lambda^2); free-space
    coupling collects the field-stop solid angle over the full aperture,
    attenuated by the receiver path loss. Note this is a first-principles
    estimate; measured system click rates belong in DetectorSpec.
    """
    if not 0 < detector_efficiency <= 1:
        raise LinkBudgetError(f"detector_efficiency must be in (0, 1], got {detector_efficiency}")
    radiance = atm.radiance_for(wavelength_nm)
    lam_m = wavelength_nm * 1e-9
    if rx.coupling_mode == "fiber_with_AO":
        power_w = FIBER_COUPLING_FACTOR * radiance * lam_m**2 * rx.filter_bandwidth_nm
    else:
        theta = rx.fov_half_angle_urad * 1e-6
        power_w = (
            radiance
            * rx.collecting_area_m2
            * math.pi
            * theta**2
            * rx.filter_bandwidth_nm
            * 10.0 ** (-rx.path_loss_db / 10.0)
        )
    photon_energy_j = H_PLANCK_J_S * C_LIGHT_M_S / lam_m
    return power_w / photon_energy_j * detector_efficiency


def load_elevation_loss_table(path: str | Path) -> tuple[tuple[float, float], ...]:
    """Read a two-column (elevation_deg, loss_db) override table.

    Blank lines and lines starting with '#' are skipped. Every cell must be
    a finite number, and rows must cover a strictly increasing elevation
    grid; a bad row is named by path and line.
    """
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(Path(path).read_text(errors="replace").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise LinkBudgetError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
        try:
            row = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise LinkBudgetError(f"{path}:{lineno}: non-numeric cell in {stripped!r}") from None
        if not all(map(math.isfinite, row)):
            raise LinkBudgetError(f"{path}:{lineno}: cells must be finite, got {stripped!r}")
        rows.append(row)
    if len(rows) < 2:
        raise LinkBudgetError(f"{path}: need at least two rows, got {len(rows)}")
    elevations = [r[0] for r in rows]
    if any(b <= a for a, b in zip(elevations, elevations[1:])):
        raise LinkBudgetError(f"{path}: elevation column must be strictly increasing")
    return tuple(rows)

