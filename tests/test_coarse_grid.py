"""The coarse grid: its row maxima and cut indices independent of the
chunk size, down to one block per chunk, and the one-photon yield and X
error rate of `channel.one_photon`. The chunked grid against an
independent per-block reference is test_optimizer's
test_chunked_coarse_grid_matches_per_block_reference."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from satqkd import optimizer
from satqkd.channel import one_photon
from satqkd.optimizer import P_Z_BOX, OptimizerConfig, _coarse_blocks, _coarse_shard
from satqkd.orbit import GroundStation, synth_pass
from satqkd.scenario import load_bundled_scenario

P_Z_GRID = np.linspace(*P_Z_BOX, OptimizerConfig().coarse_grid_steps)


@lru_cache(maxsize=None)
def _scenario(name):
    return load_bundled_scenario(name)


def _channel(name, pass_geometry=None):
    scenario = _scenario(name)
    return optimizer._PassChannel(
        pass_geometry or scenario.synth_pass(), scenario.hardware(),
        scenario.security, scenario.n_decoys,
    )


@pytest.mark.parametrize("name,n_blocks", [
    ("snspd_pol_1decoy", None), ("snspd_pol_2decoy", 240), ("idqube_pol_1decoy", None),
    ("peak_40_deg", None),
])
def test_coarse_shard_does_not_depend_on_chunk_size(monkeypatch, name, n_blocks):
    """The same value bits and cut indices for any CHUNK_BLOCKS, 1 being
    the per-block form: no state crosses a chunk boundary. The pass peaking
    at 40.5 degrees has the cuts 20 to 40, each keeping a sample."""
    if name == "peak_40_deg":
        scenario = _scenario("snspd_pol_2decoy")
        station = GroundStation(scenario.station.min_elevation_deg, 40.5)
        channel = _channel("snspd_pol_2decoy", synth_pass(scenario.orbit, station, 1.0))
        assert np.array_equal(channel.cuts, np.arange(20.0, 41.0))
        assert np.all(channel.cut_kept > 0)
    else:
        channel = _channel(name)
    blocks = _coarse_blocks(OptimizerConfig(), channel.n_decoys)[:n_blocks]
    results = []
    for chunk_blocks in (1, 7, 24, 240):
        monkeypatch.setattr(optimizer, "CHUNK_BLOCKS", chunk_blocks)
        results.append(_coarse_shard(channel, blocks, P_Z_GRID))
    for values, cut_idx in results[1:]:
        assert np.array_equal(values.view(np.int64), results[0][0].view(np.int64))
        assert np.array_equal(cut_idx, results[0][1])


def test_one_photon_error_is_half_where_the_yield_is_zero():
    """With no background and no transmission a one-photon pulse never
    clicks: its error rate is taken as 1/2, without a division by zero."""
    _, e1 = one_photon(np.array([0.0, 1e-3]), 0.0, 0.01)
    assert e1[0] == 0.5
    assert e1[1] == pytest.approx(0.01)


def test_one_photon_error_is_the_samplers():
    """A one-photon pulse clicks with probability y1 = 1 - (1 - Y0)(1 - eta)
    and errs on its photon only when the background did not fire: e1 =
    (Y0/2 + e_mis (1 - Y0) eta) / y1, 0.12 / 0.6 here, not the 0.125 / 0.6
    of _wcp's n = 1 term."""
    y1, e1 = one_photon(0.5, 0.2, 0.05)
    assert y1 == pytest.approx(0.6, rel=1e-12)
    assert e1 == pytest.approx(0.2, rel=1e-12)
