"""Shared fixtures: a strong-link desk-scale scenario for Monte Carlo work
and session-cached optimizations of the bundled scenarios."""
from __future__ import annotations

import pytest

from satqkd.channel import DetectorSpec, SourceSpec
from satqkd.finitekey import SecurityParams
from satqkd.linkbudget import AtmosphereModel, ReceiverSpec, TransmitterSpec, compute_breakdowns
from satqkd.optimizer import optimize_pass
from satqkd.orbit import GroundStation, OrbitSpec, synth_pass
from satqkd.scenario import bundled_scenario_names, load_bundled_scenario

BUNDLED = (
    "snspd_pol_2decoy", "snspd_pol_1decoy", "snspd_tb_2decoy",
    "idqube_pol_2decoy", "idqube_pol_1decoy", "idqube_tb_2decoy",
    "spcm_pol_2decoy", "spcm_pol_1decoy", "spcm_tb_2decoy",
)


class StrongLink:
    """Short, favourable pass: enough clicks at desk-scale pulse counts for
    meaningful Monte Carlo statistics."""

    def __init__(self) -> None:
        self.orbit = OrbitSpec(400.0)
        self.station = GroundStation(20.0, 80.0)
        self.pass_geometry = synth_pass(self.orbit, self.station, sample_dt_s=10.0)
        self.tx = TransmitterSpec(aperture_diam_m=0.3, wavelength_nm=1550.0, pointing_loss_db=0.5)
        self.rx = ReceiverSpec(
            primary_diam_m=1.5, obscuration_diam_m=0.3, coupling_mode="free_space",
            coupling_loss_db=0.0, path_loss_db=0.5,
        )
        self.atm = AtmosphereModel({1550.0: 0.4}, {1550.0: 0.01})
        self.detector = DetectorSpec(
            efficiency=0.8, dark_count_rate_hz=200.0, dead_time_ns=30.0,
            background_rate_hz=100.0,
        )
        self.breakdowns = compute_breakdowns(self.pass_geometry, self.tx, self.rx, self.atm)
        self.security = SecurityParams()
        self.source_two = SourceSpec(
            pulse_rate_hz=1e9, signal_intensity=0.6, decoy_intensity=0.2,
            p_mu=0.7, p_nu=0.2, p_z_alice=0.8, p_z_bob=0.8,
        )
        self.source_one = SourceSpec(
            pulse_rate_hz=1e9, signal_intensity=0.6, decoy_intensity=0.2,
            p_mu=0.7, p_nu=0.3, p_z_alice=0.8, p_z_bob=0.8, vacuum_included=False,
        )


@pytest.fixture(scope="session")
def strong_link() -> StrongLink:
    return StrongLink()


@pytest.fixture(scope="session")
def bundled_results():
    """Optimize every bundled scenario once; consumed by several criteria."""
    results = {}
    for name in BUNDLED:
        scenario = load_bundled_scenario(name)
        params, skl = optimize_pass(
            scenario.synth_pass(), scenario.hardware(), scenario.security,
            scenario.n_decoys, scenario.optimizer,
        )
        results[name] = (params, skl)
    return results


def test_bundled_list_is_complete():
    assert sorted(BUNDLED) == bundled_scenario_names()
