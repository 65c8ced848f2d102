"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report. The expensive whole-pass optimizations are shared session fixtures.
"""
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from satqkd.channel import (
    DetectorSpec,
    SourceSpec,
    TallySet,
    expected_tallies_fixed_eta,
    monte_carlo_tallies,
)
from satqkd.cli import main
from satqkd.finitekey import (
    SecurityParams,
    asymptotic_skr,
    one_decoy_bounds,
    skl_from_tallies,
    two_decoy_bounds,
)
from satqkd.linkbudget import (
    TERM_FIELDS, TransmitterSpec, collection_upper_bound, compute_breakdowns, tx_antenna_gain,
)
from satqkd.optimizer import optimize_pass, sweep_max_elevation
from satqkd.orbit import OrbitSpec, coverage_and_availability, max_ground_distance, sso_inclination, synth_pass
from satqkd.relay import KeyStore, recover
from satqkd.scenario import load_bundled_scenario


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except AssertionError:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_geometry_anchors():
    with criterion(1, "geometry anchors (max ground distance, SSO inclination)"):
        assert max_ground_distance(574.0, 20.0) == pytest.approx(2325.0, rel=0.01)
        assert sso_inclination(567.0) == pytest.approx(97.66, abs=0.05)


def test_criterion_2_gain_anchors():
    with criterion(2, "transmit antenna gain anchors and wavelength difference"):
        g1550 = tx_antenna_gain(TransmitterSpec(aperture_diam_m=0.085, wavelength_nm=1550.0))
        g850 = tx_antenna_gain(TransmitterSpec(aperture_diam_m=0.085, wavelength_nm=850.0))
        assert g1550 == pytest.approx(102.2, abs=0.3)
        assert g850 == pytest.approx(107.5, abs=0.3)
        assert g850 - g1550 == pytest.approx(5.2, abs=0.05)


def test_criterion_3_budget_bound():
    with criterion(3, "collection bound and breakdown additivity on the reference pass"):
        scenario = load_bundled_scenario("snspd_pol_2decoy")
        pg = scenario.synth_pass()
        breakdowns = compute_breakdowns(
            pg, scenario.transmitter, scenario.receiver, scenario.atmosphere
        )
        for sample, brk in zip(pg.samples, breakdowns):
            bound = collection_upper_bound(
                scenario.transmitter, scenario.receiver, sample.slant_range_km
            )
            assert brk.eta <= bound
            assert abs(brk.total_db - sum(brk[name] for name in TERM_FIELDS)) < 1e-9


def test_criterion_4a_monte_carlo_bracketing(strong_link):
    with criterion(4, "(a) single-photon lower bound brackets tagged MC truth"):
        for source, estimator in (
            (strong_link.source_two, two_decoy_bounds),
            (strong_link.source_one, one_decoy_bounds),
        ):
            exceed = 0
            n_seeds = 20
            for seed in range(n_seeds):
                mc = monte_carlo_tallies(
                    seed, strong_link.pass_geometry, strong_link.breakdowns,
                    source, strong_link.detector, 20.0, thinning=1e4,
                )
                bounds = estimator(mc, source, strong_link.security)
                if bounds.s_z1_low > mc.truth["s_z1"]:
                    exceed += 1
            assert exceed / n_seeds <= 0.05, f"{estimator.__name__}: {exceed}/{n_seeds}"


def _convergence_setup():
    det = DetectorSpec(
        efficiency=0.8, dark_count_rate_hz=10.0, dead_time_ns=0.0,
        background_rate_hz=0.0,
    )
    source = SourceSpec(
        pulse_rate_hz=1e9, signal_intensity=0.5, decoy_intensity=0.05,
        p_mu=0.7, p_nu=0.2, p_z_alice=0.9, p_z_bob=0.9,
        misalignment_z=0.005, misalignment_x=0.005,
    )
    return det, source


def test_criterion_4b_convergence_to_asymptotic():
    with criterion(4, "(b) finite key rate converges to the asymptotic rate"):
        det, source = _convergence_setup()
        security = SecurityParams()
        eta = 1e-3
        r_inf = asymptotic_skr(eta, source, det, security)
        ratios = []
        for n in (1e12, 1e13, 1e14, 1e15):
            tallies = expected_tallies_fixed_eta(eta, n, source, det)
            result = skl_from_tallies(tallies, source, security)
            assert not result.aborted
            ratios.append(result.diagnostics["l_real"] / n / r_inf)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        # within 5 percent from N = 1e14 (design threshold for this channel)
        assert all(r >= 0.95 for r in ratios[2:]), ratios


def test_criterion_4c_monotonicity():
    with criterion(4, "(c) key length monotone in N, anti-monotone in QBER"):
        det, source = _convergence_setup()
        security = SecurityParams()
        base = expected_tallies_fixed_eta(1e-3, 1e11, source, det)
        lengths = []
        for factor in (1.0, 8.0, 64.0, 512.0):
            result = skl_from_tallies(base.scaled(factor), source, security)
            lengths.append(0.0 if result.aborted else result.diagnostics["l_real"])
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

        fields = (
            "n_z_mu", "n_z_nu", "n_z_vac", "n_x_mu", "n_x_nu", "n_x_vac",
            "m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac", "n_sent",
        )
        big = base.scaled(100.0)
        previous = math.inf
        for extra in (0.0, 0.01, 0.03):
            bumped = TallySet(**{
                name: getattr(big, name)
                + (extra * getattr(big, name.replace("m_", "n_")) if name.startswith("m_") else 0.0)
                for name in fields
            })
            result = skl_from_tallies(bumped, source, security)
            value = 0.0 if result.aborted else result.diagnostics["l_real"]
            assert value <= previous
            previous = value


def test_criterion_5_table_direction(bundled_results):
    with criterion(5, "bundled-scenario orderings and optimal minimum elevations"):
        skl = {name: result.skl_bits for name, (_, result) in bundled_results.items()}
        min_elev = {name: params.min_elevation_deg for name, (params, _) in bundled_results.items()}

        # detector ordering for polarisation, two decoys
        assert skl["spcm_pol_2decoy"] > skl["snspd_pol_2decoy"] > skl["idqube_pol_2decoy"] > 0

        # per-detector protocol ordering
        for det in ("snspd", "idqube", "spcm"):
            assert skl[f"{det}_tb_2decoy"] >= skl[f"{det}_pol_2decoy"] >= skl[f"{det}_pol_1decoy"]

        # boundary vs interior optimum of the post-processing cut
        for name in ("snspd_pol_2decoy", "snspd_pol_1decoy", "snspd_tb_2decoy",
                     "spcm_pol_2decoy", "spcm_pol_1decoy", "spcm_tb_2decoy"):
            assert min_elev[name] == 20.0, f"{name} should optimize to the 20 deg boundary"
        for name in ("idqube_pol_2decoy", "idqube_pol_1decoy", "idqube_tb_2decoy"):
            assert min_elev[name] > 35.0, f"{name} should prefer higher elevations"


def test_criterion_6_altitude_scaling():
    with criterion(6, "long-term average key rate strictly decreasing in altitude"):
        scenario = load_bundled_scenario("snspd_pol_2decoy")
        hardware = scenario.hardware()
        previous = math.inf
        for altitude in (400.0, 600.0, 800.0, 1000.0):
            orbit = OrbitSpec(altitude)
            pg = synth_pass(orbit, scenario.station, 1.0)
            _, result = optimize_pass(pg, hardware, scenario.security, 2, scenario.optimizer)
            _, availability = coverage_and_availability(altitude)
            metric = result.skl_bits * availability / pg.duration_s
            assert metric < previous, f"altitude {altitude}: {metric} !< {previous}"
            previous = metric


def test_criterion_7_max_elevation_sweep():
    with criterion(7, "SKL non-decreasing in peak elevation, minor 90 vs 80 gain"):
        scenario = load_bundled_scenario("snspd_pol_2decoy")
        rows = sweep_max_elevation(
            scenario.orbit, 20.0, [30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0],
            scenario.hardware(), scenario.security, 2, scenario.optimizer, 1.0,
        )
        values = [row["skl_bits"] for row in rows]
        assert all(b >= a for a, b in zip(values, values[1:])), values
        gap = (values[-1] - values[-2]) / values[-2]
        assert gap < 0.15, f"90 vs 80 degree gain {gap:.3f} should be minor"


def test_criterion_8_relay():
    with criterion(8, "XOR relay exactness, erasure, and 2n-for-n accounting"):
        rng = np.random.Generator(np.random.PCG64(1234))
        store = KeyStore()
        for trial in range(1000):
            n = int(rng.integers(1, 128))
            k_a = rng.bytes(n)
            k_b = rng.bytes(n)
            message = store.combine_and_broadcast(
                store.store_key("alice", k_a), store.store_key("bob", k_b)
            )
            assert recover(k_b, message) == k_a, f"trial {trial}"
            assert store.consumed_bits == 2 * store.delivered_bits
        assert store.residual_secret_bits() == 0


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI commands byte-identical across repeated runs"):
        fast = json.loads(
            json.dumps(load_bundled_scenario("snspd_pol_2decoy").raw)
        )
        fast["optimizer"] = {"coarse_grid_steps": 4, "refine_iterations": 1,
                             "rel_tolerance": 1e-3}
        fast["sample_dt_s"] = 5.0
        scenario_path = tmp_path / "fast.json"
        scenario_path.write_text(json.dumps(fast))

        commands = [
            ["pass", "--scenario", str(scenario_path)],
            ["budget", "--scenario", str(scenario_path)],
            ["skl", "--scenario", str(scenario_path), "--mu", "0.58", "--nu", "0.25",
             "--p-mu", "0.54", "--p-nu", "0.34", "--p-z", "0.88"],
            ["optimize", "--scenario", str(scenario_path)],
            ["sweep-elevation", "--scenario", str(scenario_path), "--max-elevations", "40,80"],
            ["mc-validate", "--scenario", str(scenario_path), "--seeds", "2",
             "--seed", "100", "--thinning", "1e6"],
            ["relay-demo", "--seed", "5"],
        ]
        for index, argv in enumerate(commands):
            snapshots = []
            for tag in ("a", "b"):
                out = tmp_path / f"run{index}{tag}"
                code = main(argv + ["--out", str(out)])
                assert code in (0, 3), f"{argv} exited {code}"
                snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert snapshots[0] == snapshots[1], f"command not reproducible: {argv[0]}"
