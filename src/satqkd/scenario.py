"""Declarative scenario files driving the pipeline.

A scenario is one JSON document with the sections orbit, station,
transmitter, receiver, atmosphere, detector, source, security and
optimizer, plus the encoding and decoy-count selectors. Each section is
read against its spec dataclass, which is the only statement of the
section's fields: a field without a default is required, the others take
the dataclass default, and the declared type picks the JSON reader
(finite number, integer, boolean or string). Loading is fail-closed:
unknown fields and wrong JSON types are rejected and every module-level
invariant is re-validated, with errors naming the offending field.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import typing
from dataclasses import MISSING, dataclass, fields
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
# Time-bin arrival separation keeps the Z basis nearly error free; the
# interferometric X basis does not benefit and keeps the SourceSpec default.
TIME_BIN_MISALIGNMENT_Z = 0.001
TIME_BIN_SLOTS_PER_QUBIT = 3


class ScenarioError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


def _number(value, name: str) -> float:
    """A finite JSON number; bools, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """An integral JSON number; non-integral values are rejected, not truncated."""
    if _number(value, name) != int(value):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _optional_number(value, name: str) -> float | None:
    return None if value is None else _number(value, name)


def _flag(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be true or false, got {value!r}")
    return value


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    return value


def _wavelength_map(value, name: str) -> dict[float, float]:
    out = {}
    for key, entry in _object(value, name).items():
        try:
            wavelength = float(key)
        except ValueError:
            wavelength = math.nan
        if not 0.0 < wavelength < math.inf:
            raise ScenarioError(f"{name} keys must be positive finite wavelengths, got {key!r}")
        out[wavelength] = _number(entry, f"{name}.{key}")
    return out


# The JSON reader of each field type the spec dataclasses declare.
_READERS = {
    float: _number,
    int: _integer,
    bool: _flag,
    str: _text,
    float | None: _optional_number,
    dict[float, float]: _wavelength_map,
}

_REQUIRED = object()


def _take(section: dict, field: str, where: str, reader, default=_REQUIRED):
    """reader applied to the field popped from section, or default when the
    field is absent."""
    if field not in section:
        if default is _REQUIRED:
            raise ScenarioError(f"missing field {where}.{field}")
        return default
    return reader(section.pop(field), f"{where}.{field}")


@functools.cache
def _schema(cls) -> tuple:
    """(name, reader, required) for each field of the dataclass cls; the
    reader is None for a type no JSON field holds."""
    types = typing.get_type_hints(cls)
    return tuple((f.name, _READERS.get(types[f.name]), f.default is MISSING) for f in fields(cls))


def _build(cls, raw: dict, where: str, /, **values):
    """cls built from one scenario section.

    Every field of cls that the caller did not pass in values is read from
    raw with the reader of its declared type: it is required when cls gives
    it no default and takes that default otherwise. Whatever is left in raw
    is rejected as unknown, and invariant errors raised by cls are prefixed
    with the section name.
    """
    raw = dict(raw)
    for name, reader, required in _schema(cls):
        if name not in values and (required or name in raw):
            values[name] = _take(raw, name, where, reader)
    if raw:
        raise ScenarioError(f"unknown field {where}.{sorted(raw)[0]}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Validated scenario: every section as its module-level spec type."""

    name: str
    encoding: str
    n_decoys: int
    sample_dt_s: float = 1.0
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

    def __post_init__(self) -> None:
        if not self.sample_dt_s > 0:
            raise ScenarioError(f"scenario.sample_dt_s must be > 0, got {self.sample_dt_s}")

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


def scenario_from_dict(doc: dict) -> Scenario:
    top = dict(_object(doc, "scenario document"))

    def section(key: str) -> dict:
        return dict(_take(top, key, "scenario", _object))

    encoding = _take(top, "encoding", "scenario", _text)
    if encoding not in ENCODINGS:
        raise ScenarioError(f"scenario.encoding must be one of {ENCODINGS}, got {encoding!r}")
    n_decoys = _take(top, "n_decoys", "scenario", _integer)
    if n_decoys not in (1, 2):
        raise ScenarioError(f"scenario.n_decoys must be 1 or 2, got {n_decoys!r}")

    orbit = _build(OrbitSpec, section("orbit"), "orbit")
    station = _build(GroundStation, section("station"), "station")
    transmitter = _build(TransmitterSpec, section("transmitter"), "transmitter")
    receiver = _build(ReceiverSpec, section("receiver"), "receiver")

    a = section("atmosphere")
    table_path = a.pop("elevation_table_path", None)
    atmosphere = _build(
        AtmosphereModel, a, "atmosphere",
        elevation_table=None if table_path is None else load_elevation_loss_table(
            _text(table_path, "atmosphere.elevation_table_path")
        ),
    )
    if atmosphere.elevation_table is None and transmitter.wavelength_nm not in atmosphere.zenith_loss_db:
        raise ScenarioError(
            "atmosphere.zenith_loss_db lacks the transmitter wavelength "
            f"{transmitter.wavelength_nm} nm"
        )

    detector = _build(DetectorSpec, section("detector"), "detector")

    src = section("source")
    pulse_rate = _take(src, "pulse_rate_hz", "source", _number)
    # Optional slot-rate accounting: a time-bin qubit occupies several pulse
    # slots, so holding the slot rate fixed divides the qubit rate.
    if _take(src, "hold_slot_rate", "source", _flag, default=False):
        if encoding != "time_bin":
            raise ScenarioError("source.hold_slot_rate only applies to time_bin encoding")
        pulse_rate /= TIME_BIN_SLOTS_PER_QUBIT
    vacuum_included = _take(src, "vacuum_included", "source", _flag, default=n_decoys == 2)
    if vacuum_included != (n_decoys == 2):
        raise ScenarioError(
            f"source.vacuum_included must be {n_decoys == 2} for n_decoys={n_decoys}"
        )
    if encoding == "time_bin":
        src.setdefault("misalignment_z", TIME_BIN_MISALIGNMENT_Z)
    source = _build(
        SourceSpec, src, "source", pulse_rate_hz=pulse_rate, vacuum_included=vacuum_included
    )
    # skl and optimize search one Z-basis probability and apply it on both sides.
    if source.p_z_bob != source.p_z_alice:
        raise ScenarioError(
            f"source.p_z_bob must equal source.p_z_alice = {source.p_z_alice}, "
            f"got {source.p_z_bob}"
        )

    return _build(
        Scenario, top, "scenario", encoding=encoding, n_decoys=n_decoys, orbit=orbit,
        station=station, transmitter=transmitter, receiver=receiver, atmosphere=atmosphere,
        detector=detector, source=source, raw=doc,
        security=_build(SecurityParams, section("security"), "security"),
        optimizer=_build(OptimizerConfig, section("optimizer"), "optimizer"),
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: a key given twice in one object is an error,
    not a silent overwrite by the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ScenarioError(f"duplicate JSON key {key!r}")
        doc[key] = value
    return doc


def load_scenario(path: str | Path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    return scenario_from_dict(json.loads(ref.read_text(), object_pairs_hook=_unique_keys))
