#!/usr/bin/env python3
"""Write the key per pass that the default whole-pass search finds on a corpus.

    python3 tools/search_corpus.py OUT.json

The corpus is the 9 bundled scenarios, each on its own pass, plus 14
generated passes: the snspd_pol_2decoy, idqube_tb_2decoy, spcm_pol_2decoy
and spcm_tb_2decoy hardware on orbits of 400 and 900 km with peaks of 35 and
60 degrees, over the scenario's station cut and time step, less the two
idqube_tb_2decoy passes at 900 km, which give no key. Each pass runs the
untraced `optimize_pass` with its scenario's own optimizer config, and OUT.json
maps each pass name to its key length in bits, keys sorted. It imports satqkd
from the src/ tree of the checkout it sits in, so the files written by two
checkouts compare the search of each.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from satqkd.optimizer import optimize_pass  # noqa: E402
from satqkd.orbit import OrbitSpec, synth_pass  # noqa: E402
from satqkd.scenario import bundled_scenario_names, load_bundled_scenario  # noqa: E402

GENERATED_HARDWARE = ("snspd_pol_2decoy", "idqube_tb_2decoy", "spcm_pol_2decoy", "spcm_tb_2decoy")
ALTITUDES_KM = (400.0, 900.0)
PEAKS_DEG = (35.0, 60.0)
WITHOUT_KEY = {"idqube_tb_2decoy@900km/35deg", "idqube_tb_2decoy@900km/60deg"}


def corpus() -> dict:
    """Pass name -> (scenario, pass geometry)."""
    passes = {}
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        passes[name] = scenario, scenario.synth_pass()
    for name in GENERATED_HARDWARE:
        scenario = load_bundled_scenario(name)
        for altitude in ALTITUDES_KM:
            for peak in PEAKS_DEG:
                label = f"{name}@{altitude:g}km/{peak:g}deg"
                if label not in WITHOUT_KEY:
                    station = replace(scenario.station, max_elevation_deg=peak)
                    passes[label] = scenario, synth_pass(
                        OrbitSpec(altitude), station, scenario.sample_dt_s
                    )
    return passes


def key_per_pass() -> dict[str, int]:
    keys = {}
    for label, (scenario, pass_geometry) in corpus().items():
        _, result = optimize_pass(pass_geometry, scenario.hardware(), scenario.security,
                                  scenario.n_decoys, scenario.optimizer)
        keys[label] = result.skl_bits
    return keys


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: search_corpus.py OUT.json")
    Path(sys.argv[1]).write_text(json.dumps(key_per_pass(), indent=2, sort_keys=True) + "\n")
