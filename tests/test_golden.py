"""Golden figures of the 9 bundled scenarios.

For each scenario: the optimized parameter vector and its key length, the
key length at the scenario's own source parameters, the pass sample count,
and at a few pass samples the asymptotic rate, the pass columns and the
link budget's total_db and eta. Refactors must reproduce them to a relative
1e-9. Regenerate with `PYTHONPATH=src python tests/test_golden.py` only
when a change is meant to move these figures: it keeps every stored value
the new one lies within that tolerance of, so the file records only what
moved, and prints each moved field.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from satqkd.finitekey import asymptotic_skr
from satqkd.linkbudget import compute_breakdowns
from satqkd.optimizer import ParamVector, evaluate_params, optimize_pass
from satqkd.scenario import bundled_scenario_names, load_bundled_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_bundled.json")
REL = 1e-9
SAMPLE_FRACTIONS = (0.0, 0.15, 0.3, 0.5)


def _own_params(scenario) -> ParamVector:
    src = scenario.source
    return ParamVector(
        mu=src.signal_intensity, nu=src.decoy_intensity, p_mu=src.p_mu, p_nu=src.p_nu,
        p_z=src.p_z_alice, min_elevation_deg=scenario.station.min_elevation_deg,
    )


def snapshot(scenario, params: ParamVector, result) -> dict:
    pass_geometry = scenario.synth_pass()
    breakdowns = compute_breakdowns(
        pass_geometry, scenario.transmitter, scenario.receiver, scenario.atmosphere
    )
    samples = pass_geometry.samples
    last = len(samples) - 1
    indices = sorted({round(f * last) for f in SAMPLE_FRACTIONS})
    keys = {i: repr(float(samples[i].t_s)) for i in indices}
    own = evaluate_params(
        pass_geometry, scenario.hardware(), scenario.security, scenario.n_decoys,
        _own_params(scenario),
    )
    return {
        "optimized_params": asdict(params),
        "optimized_skl_bits": result.skl_bits,
        "own_skl_bits": own.skl_bits,
        "asymptotic_skr": {
            keys[i]: asymptotic_skr(
                breakdowns[i].eta, scenario.source, scenario.detector, scenario.security
            )
            for i in indices
        },
        "n_samples": len(samples),
        "geometry": {
            keys[i]: {name: float(getattr(samples[i], name))
                      for name in ("t_s", "elevation_deg", "slant_range_km")}
            for i in indices
        },
        "budget": {
            keys[i]: {name: float(getattr(breakdowns[i], name)) for name in ("total_db", "eta")}
            for i in indices
        },
    }


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_scenario_matches_golden(name, bundled_results):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    got = snapshot(load_bundled_scenario(name), *bundled_results[name])
    assert got["optimized_params"] == pytest.approx(want["optimized_params"], rel=REL, abs=0)
    assert got["optimized_skl_bits"] == pytest.approx(want["optimized_skl_bits"], rel=REL, abs=0)
    assert got["own_skl_bits"] == pytest.approx(want["own_skl_bits"], rel=REL, abs=0)
    assert got["asymptotic_skr"] == pytest.approx(want["asymptotic_skr"], rel=REL, abs=0)
    assert got["n_samples"] == want["n_samples"]
    for table in ("geometry", "budget"):
        assert got[table].keys() == want[table].keys()
        for key, row in want[table].items():
            assert got[table][key] == pytest.approx(row, rel=REL, abs=0), (table, key)


def _keep_unmoved(old, new, moved: list[str], path: str = ""):
    """new, with each float of old kept where new lies within REL of it;
    integers and keys must match exactly. Appends a line to moved for each
    field that differs otherwise: its path, old and new value and change."""
    if isinstance(old, dict) and isinstance(new, dict):
        moved += [f"{path}/{key}: removed"[1:] for key in sorted(old.keys() - new.keys())]
        return {key: _keep_unmoved(old.get(key), value, moved, f"{path}/{key}")
                for key, value in new.items()}
    if type(old) is type(new) is float and abs(new - old) <= REL * abs(old):
        return old
    if new != old:
        numbers = all(type(x) in (int, float) for x in (old, new)) and old != 0
        change = f"{100 * (new / old - 1):+.3g}%" if numbers else "-"
        moved.append(f"{path[1:]}: {old!r} -> {new!r} ({change})")
    return new


if __name__ == "__main__":
    stored = json.loads(GOLDEN_PATH.read_text())
    golden = {}
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        params, result = optimize_pass(
            scenario.synth_pass(), scenario.hardware(), scenario.security,
            scenario.n_decoys, scenario.optimizer,
        )
        golden[name] = snapshot(scenario, params, result)
    moved: list[str] = []
    golden = _keep_unmoved(stored, golden, moved)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print("\n".join(moved) or "no field moved")
