#!/usr/bin/env python3
"""Write the key per pass that the default whole-pass search finds on a corpus.

    python3 tools/search_corpus.py OUT.json
    python3 tools/search_corpus.py --reference OUT.json

The corpus is the 9 bundled scenarios, each on its own pass, plus 14
generated passes: the snspd_pol_2decoy, idqube_tb_2decoy, spcm_pol_2decoy
and spcm_tb_2decoy hardware on orbits of 400 and 900 km with peaks of 35 and
60 degrees, over the scenario's station cut and time step, less the two
idqube_tb_2decoy passes at 900 km, which give no key. Each pass runs the
untraced `optimize_pass` with its scenario's own optimizer config, and OUT.json
maps each pass name to its key length in bits, keys sorted. It imports satqkd
from the src/ tree of the checkout it sits in, so the files written by two
checkouts compare the search of each.

With --reference, each pass runs the reference search instead: a
REFERENCE_STEPS grid with REFERENCE_PASSES refinement passes, refined from
each of the REFERENCE_STARTS best coarse rows, with the rel_tolerance
REFERENCE_TOLERANCE in place of the scenario's own, so the reference does
not move with the default search's tolerance. It is built from the
optimizer's own pieces, and its output is stored as
tests/search_reference.json, against which a test holds the default
search. It takes about a minute of one CPU, so run it only when a change
is meant to move that file.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from satqkd import optimizer  # noqa: E402
from satqkd.optimizer import ParamVector, evaluate_params, optimize_pass  # noqa: E402
from satqkd.orbit import OrbitSpec, synth_pass  # noqa: E402
from satqkd.scenario import bundled_scenario_names, load_bundled_scenario  # noqa: E402

GENERATED_HARDWARE = ("snspd_pol_2decoy", "idqube_tb_2decoy", "spcm_pol_2decoy", "spcm_tb_2decoy")
ALTITUDES_KM = (400.0, 900.0)
PEAKS_DEG = (35.0, 60.0)
WITHOUT_KEY = {"idqube_tb_2decoy@900km/35deg", "idqube_tb_2decoy@900km/60deg"}
REFERENCE_STEPS = 12
REFERENCE_PASSES = 4
REFERENCE_STARTS = 8
REFERENCE_TOLERANCE = 1e-3


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


def reference_search(scenario, pass_geometry):
    """Key length of the reference search on one pass: the best of the
    refinements from the REFERENCE_STARTS best coarse rows, refined in
    lockstep, the first maximum in rank order, evaluated as optimize_pass
    evaluates its point."""
    hardware, n_decoys = scenario.hardware(), scenario.n_decoys
    config = replace(scenario.optimizer, coarse_grid_steps=REFERENCE_STEPS,
                     refine_iterations=REFERENCE_PASSES, rel_tolerance=REFERENCE_TOLERANCE)
    channel = optimizer._PassChannel(pass_geometry, hardware, scenario.security, n_decoys)
    blocks = optimizer._coarse_blocks(config, n_decoys)
    p_z_values = np.linspace(*optimizer.P_Z_BOX, REFERENCE_STEPS)
    values, _ = optimizer._coarse_shard(channel, blocks, p_z_values)
    starts = []
    for row in np.argsort(-values, kind="stable")[:REFERENCE_STARTS].tolist():
        block, j = divmod(row, len(p_z_values))
        start = dict(zip(optimizer.PARAM_NAMES, (*blocks[block].tolist(), float(p_z_values[j]))))
        starts.append((start, float(values[row])))
    refined = optimizer._refine_starts(channel, starts, n_decoys, config)
    best_point, _ = max(refined, key=lambda result: result[1])
    final = [best_point[k] for k in optimizer.PARAM_NAMES]
    _, cut_idx = channel.objective(np.array([final[:4]]), np.array([final[4:]]))
    cut = max(float(channel.cuts[cut_idx[0]]), pass_geometry.min_elevation_deg)
    params = ParamVector(*final, min_elevation_deg=cut)
    return evaluate_params(pass_geometry, hardware, scenario.security, n_decoys, params)


def default_search(scenario, pass_geometry):
    """Key length of the untraced optimize_pass at the scenario's config."""
    return optimize_pass(pass_geometry, scenario.hardware(), scenario.security,
                         scenario.n_decoys, scenario.optimizer)[1]


def key_per_pass(search=default_search) -> dict[str, int]:
    """Pass name -> key length in bits of search(scenario, pass geometry)."""
    return {label: search(scenario, pass_geometry).skl_bits
            for label, (scenario, pass_geometry) in corpus().items()}


if __name__ == "__main__":
    args = sys.argv[1:]
    reference = args[:1] == ["--reference"]
    if len(args) != 1 + reference:
        sys.exit("usage: search_corpus.py [--reference] OUT.json")
    keys = key_per_pass(reference_search if reference else default_search)
    Path(args[-1]).write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
