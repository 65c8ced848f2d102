"""Declarative scenario files driving the pipeline.

A scenario is one JSON document with the sections orbit, station,
transmitter, receiver, atmosphere, detector, source, security and
optimizer, plus the encoding and decoy-count selectors. Loading is
fail-closed: unknown fields are rejected and every module-level invariant
is re-validated, with errors naming the offending field.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .channel import DetectorSpec, SourceSpec
from .finitekey import SecurityParams
from .linkbudget import (
    AtmosphereModel,
    ReceiverSpec,
    TransmitterSpec,
    load_elevation_loss_table,
)
from .optimizer import HardwareStack, OptimizerConfig
from .orbit import GroundStation, OrbitSpec, PassGeometry, synth_pass

ENCODINGS = ("polarisation", "time_bin")
# Misalignment defaults by encoding: time-bin arrival separation keeps the
# Z basis nearly error free, the interferometric X basis does not benefit.
DEFAULT_MISALIGNMENT = {
    "polarisation": {"misalignment_z": 0.01, "misalignment_x": 0.01},
    "time_bin": {"misalignment_z": 0.001, "misalignment_x": 0.01},
}
TIME_BIN_SLOTS_PER_QUBIT = 3


class ScenarioError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


_REQUIRED = object()


def _require(section: dict, field: str, where: str):
    if field not in section:
        raise ScenarioError(f"missing field {where}.{field}")
    return section[field]


def _number(section: dict, field: str, where: str, default=_REQUIRED, integer: bool = False):
    """The finite JSON number at where.field, or default when the field is
    absent. Bools, strings, NaN and infinities are rejected; integer fields
    also reject non-integral values instead of truncating them."""
    if default is not _REQUIRED and field not in section:
        return default
    value = _require(section, field, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{where}.{field} must be a finite number, got {value!r}")
    if integer:
        if value != int(value):
            raise ScenarioError(f"{where}.{field} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _check_known(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown field {where}.{sorted(unknown)[0]}")


def _wavelength_map(raw: dict, where: str) -> dict[float, float]:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object")
    out = {}
    for key in raw:
        try:
            wavelength = float(key)
        except ValueError:
            raise ScenarioError(f"non-numeric entry in {where}: {key!r}") from None
        out[wavelength] = _number(raw, key, where)
    return out


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: every section as its module-level spec type."""

    name: str
    encoding: str
    n_decoys: int
    sample_dt_s: float
    orbit: OrbitSpec
    station: GroundStation
    transmitter: TransmitterSpec
    receiver: ReceiverSpec
    atmosphere: AtmosphereModel
    detector: DetectorSpec
    source: SourceSpec
    security: SecurityParams
    optimizer: OptimizerConfig
    raw: dict

    def hardware(self) -> HardwareStack:
        return HardwareStack(
            transmitter=self.transmitter,
            receiver=self.receiver,
            atmosphere=self.atmosphere,
            detector=self.detector,
            source=self.source,
        )

    def synth_pass(self) -> PassGeometry:
        return synth_pass(self.orbit, self.station, self.sample_dt_s)

    def digest(self) -> str:
        """Content hash, stable under field reordering; it also covers the
        bytes of a referenced elevation table."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        h = hashlib.sha256(canonical.encode())
        table_path = self.raw["atmosphere"].get("elevation_table_path")
        if table_path is not None:
            h.update(Path(table_path).read_bytes())
        return h.hexdigest()


TOP_LEVEL_FIELDS = {
    "name", "encoding", "n_decoys", "sample_dt_s", "orbit", "station", "transmitter",
    "receiver", "atmosphere", "detector", "source", "security", "optimizer",
}


def _wrap(section: str, exc: Exception) -> ScenarioError:
    return ScenarioError(f"{section}: {exc}")


def _build(cls, raw: dict, where: str, numbers: tuple[str, ...], defaults: dict | None = None,
           integers: tuple[str, ...] = (), allowed: tuple[str, ...] = (), **values):
    """cls built from one scenario section.

    numbers names the required numeric fields and defaults the optional
    ones; allowed names further fields the caller reads itself, passing the
    results in values. Unknown fields are rejected, and invariant errors
    raised by cls are prefixed with the section name.
    """
    defaults = defaults or {}
    _check_known(raw, {*numbers, *defaults, *allowed}, where)
    for name in numbers:
        values[name] = _number(raw, name, where, integer=name in integers)
    for name, default in defaults.items():
        values[name] = _number(raw, name, where, default=default, integer=name in integers)
    try:
        return cls(**values)
    except ValueError as exc:
        raise _wrap(where, exc) from None


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_known(doc, TOP_LEVEL_FIELDS, "scenario")

    name = str(_require(doc, "name", "scenario"))
    encoding = _require(doc, "encoding", "scenario")
    if encoding not in ENCODINGS:
        raise ScenarioError(f"scenario.encoding must be one of {ENCODINGS}, got {encoding!r}")
    n_decoys = _number(doc, "n_decoys", "scenario", integer=True)
    if n_decoys not in (1, 2):
        raise ScenarioError(f"scenario.n_decoys must be 1 or 2, got {n_decoys!r}")
    sample_dt_s = _number(doc, "sample_dt_s", "scenario", default=1.0)
    if sample_dt_s <= 0:
        raise ScenarioError(f"scenario.sample_dt_s must be > 0, got {sample_dt_s}")

    sections = {}
    for key in ("orbit", "station", "transmitter", "receiver", "atmosphere",
                "detector", "source", "security", "optimizer"):
        section = _require(doc, key, "scenario")
        if not isinstance(section, dict):
            raise ScenarioError(f"scenario.{key} must be an object")
        sections[key] = section

    orbit = _build(OrbitSpec, sections["orbit"], "orbit", ("altitude_km", "inclination_deg"))
    station = _build(
        GroundStation, sections["station"], "station", ("min_elevation_deg", "max_elevation_deg")
    )
    transmitter = _build(
        TransmitterSpec, sections["transmitter"], "transmitter",
        ("aperture_diam_m", "wavelength_nm", "truncation_ratio", "m_squared", "pointing_loss_db"),
    )
    r = sections["receiver"]
    receiver = _build(
        ReceiverSpec, r, "receiver",
        (
            "primary_diam_m", "obscuration_diam_m", "coupling_loss_db", "path_loss_db",
            "fov_half_angle_urad", "filter_bandwidth_nm",
        ),
        allowed=("coupling_mode",),
        coupling_mode=str(_require(r, "coupling_mode", "receiver")),
    )

    a = sections["atmosphere"]
    _check_known(
        a, {"zenith_loss_db", "sky_radiance_w_m2_sr_nm", "elevation_table_path"}, "atmosphere"
    )
    elevation_table = None
    if "elevation_table_path" in a and a["elevation_table_path"] is not None:
        elevation_table = load_elevation_loss_table(a["elevation_table_path"])
    try:
        atmosphere = AtmosphereModel(
            zenith_loss_db=_wavelength_map(
                _require(a, "zenith_loss_db", "atmosphere"), "atmosphere.zenith_loss_db"
            ),
            sky_radiance_w_m2_sr_nm=_wavelength_map(
                _require(a, "sky_radiance_w_m2_sr_nm", "atmosphere"),
                "atmosphere.sky_radiance_w_m2_sr_nm",
            ),
            elevation_table=elevation_table,
        )
    except ValueError as exc:
        raise _wrap("atmosphere", exc) from None
    if elevation_table is None and transmitter.wavelength_nm not in atmosphere.zenith_loss_db:
        raise ScenarioError(
            "atmosphere.zenith_loss_db lacks the transmitter wavelength "
            f"{transmitter.wavelength_nm} nm"
        )

    d = sections["detector"]
    detector = _build(
        DetectorSpec, d, "detector",
        ("efficiency", "dark_count_rate_hz", "dead_time_ns", "background_rate_hz"),
        defaults={"n_detectors": 4},
        integers=("n_detectors",),
        allowed=("gate_width_ns",),
        gate_width_ns=(
            None if d.get("gate_width_ns") is None else _number(d, "gate_width_ns", "detector")
        ),
    )

    src = sections["source"]
    pulse_rate = _number(src, "pulse_rate_hz", "source")
    # Optional slot-rate accounting: a time-bin qubit occupies several pulse
    # slots, so holding the slot rate fixed divides the qubit rate.
    if bool(src.get("hold_slot_rate", False)):
        if encoding != "time_bin":
            raise ScenarioError("source.hold_slot_rate only applies to time_bin encoding")
        pulse_rate /= TIME_BIN_SLOTS_PER_QUBIT
    vacuum_included = bool(src.get("vacuum_included", n_decoys == 2))
    if vacuum_included != (n_decoys == 2):
        raise ScenarioError(
            f"source.vacuum_included must be {n_decoys == 2} for n_decoys={n_decoys}"
        )
    source = _build(
        SourceSpec, src, "source",
        ("signal_intensity", "decoy_intensity", "p_mu", "p_nu", "p_z_alice", "p_z_bob"),
        defaults=DEFAULT_MISALIGNMENT[encoding],
        allowed=("pulse_rate_hz", "vacuum_included", "hold_slot_rate"),
        pulse_rate_hz=pulse_rate,
        vacuum_included=vacuum_included,
    )
    security = _build(SecurityParams, sections["security"], "security", ("eps_sec", "eps_corr", "f_ec"))
    optimizer = _build(
        OptimizerConfig, sections["optimizer"], "optimizer", (),
        defaults={"coarse_grid_steps": 8, "refine_iterations": 2, "rel_tolerance": 1e-3},
        integers=("coarse_grid_steps", "refine_iterations"),
    )

    return Scenario(
        name=name,
        encoding=encoding,
        n_decoys=n_decoys,
        sample_dt_s=sample_dt_s,
        orbit=orbit,
        station=station,
        transmitter=transmitter,
        receiver=receiver,
        atmosphere=atmosphere,
        detector=detector,
        source=source,
        security=security,
        optimizer=optimizer,
        raw=doc,
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(doc)


def bundled_scenario_names() -> list[str]:
    files = resources.files("satqkd").joinpath("scenarios")
    return sorted(p.name.removesuffix(".json") for p in files.iterdir() if p.name.endswith(".json"))


def load_bundled_scenario(name: str) -> Scenario:
    ref = resources.files("satqkd").joinpath("scenarios").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {', '.join(bundled_scenario_names())}"
        )
    return scenario_from_dict(json.loads(ref.read_text()))
