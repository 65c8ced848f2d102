"""Whole-pass optimizer: determinism, dominance, and physical orderings."""
import csv
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from satqkd.channel import presift_rows, sifted_rows
from satqkd.finitekey import skl_real_arrays
from satqkd import optimizer
from satqkd.linkbudget import compute_breakdowns
from satqkd.optimizer import (
    CHUNK_BLOCKS,
    CoarseSearchError,
    MIN_ELEVATION_GRID,
    P_Z_BOX,
    HardwareStack,
    OptimizerConfig,
    OptimizerError,
    ParamVector,
    _coarse_blocks,
    evaluate_params,
    optimize_pass,
    pointwise_asymptotic_profile,
    source_with_params,
    sweep_max_elevation,
)
from satqkd.orbit import synth_pass
from satqkd.scenario import load_bundled_scenario

FAST = OptimizerConfig(coarse_grid_steps=4, refine_iterations=1)


@pytest.fixture(scope="module")
def snspd():
    return load_bundled_scenario("snspd_pol_2decoy")


@pytest.fixture(scope="module")
def coarse_pass(snspd):
    # 5 s sampling keeps the unit tests quick; acceptance uses 1 s.
    return synth_pass(snspd.orbit, snspd.station, sample_dt_s=5.0)


class TestParamVector:
    def test_invariants_enforced(self):
        with pytest.raises(OptimizerError):
            ParamVector(mu=0.5, nu=0.6, p_mu=0.7, p_nu=0.2, p_z=0.9, min_elevation_deg=20.0)
        with pytest.raises(OptimizerError):
            ParamVector(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.4, p_z=0.9, min_elevation_deg=20.0)
        with pytest.raises(OptimizerError):
            ParamVector(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.2, p_z=0.9, min_elevation_deg=10.0)

    def test_source_projection(self, snspd):
        params = ParamVector(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.2, p_z=0.85, min_elevation_deg=25.0)
        source = source_with_params(snspd.source, params, 2)
        assert source.signal_intensity == 0.5
        assert source.p_z_alice == source.p_z_bob == 0.85
        assert source.vacuum_included
        one = source_with_params(snspd.source, replace(params, p_nu=1 - params.p_mu), 1)
        assert not one.vacuum_included


class TestOptimizePass:
    def test_deterministic(self, snspd, coarse_pass):
        a = optimize_pass(coarse_pass, snspd.hardware(), snspd.security, 2, FAST)
        b = optimize_pass(coarse_pass, snspd.hardware(), snspd.security, 2, FAST)
        assert a[0] == b[0]
        assert a[1].skl_bits == b[1].skl_bits

    def test_dominance_audit(self, snspd, coarse_pass, tmp_path):
        """The returned point beats every coarse-grid candidate in the trace."""
        trace = tmp_path / "trace.csv"
        params, result = optimize_pass(
            coarse_pass, snspd.hardware(), snspd.security, 2, FAST, trace_path=trace
        )
        with open(trace) as f:
            rows = list(csv.DictReader(f))
        coarse = [float(r["skl_real"]) for r in rows if r["stage"] == "coarse"]
        final = [float(r["skl_real"]) for r in rows if r["stage"] == "final"]
        assert len(final) == 1
        assert len(coarse) >= FAST.coarse_grid_steps**2
        assert final[0] >= max(coarse) - 1e-9
        assert result.skl_bits > 0

    def test_returned_vector_feasible(self, snspd, coarse_pass):
        params, _ = optimize_pass(coarse_pass, snspd.hardware(), snspd.security, 2, FAST)
        assert 0.0 < params.nu < params.mu <= 1.0
        assert params.p_mu + params.p_nu <= 1.0
        assert 20.0 <= params.min_elevation_deg <= 80.0

    def test_scalar_path_agrees_with_search_objective(self, snspd, coarse_pass):
        """evaluate_params (scalar tallies) reproduces the optimizer's value."""
        params, result = optimize_pass(coarse_pass, snspd.hardware(), snspd.security, 2, FAST)
        again = evaluate_params(coarse_pass, snspd.hardware(), snspd.security, 2, params)
        assert again.skl_bits == result.skl_bits

    def test_better_detector_never_hurts(self, snspd, coarse_pass):
        hardware = snspd.hardware()
        degraded = replace(hardware, detector=replace(hardware.detector, efficiency=0.45))
        _, good = optimize_pass(coarse_pass, hardware, snspd.security, 2, FAST)
        _, worse = optimize_pass(coarse_pass, degraded, snspd.security, 2, FAST)
        assert good.skl_bits >= worse.skl_bits

    def test_trace_cells_are_plain_numbers(self, snspd, coarse_pass, tmp_path):
        trace = tmp_path / "trace.csv"
        optimize_pass(coarse_pass, snspd.hardware(), snspd.security, 2, FAST, trace_path=trace)
        lines = trace.read_text().splitlines()
        assert lines[0].split(",")[1:] == [
            "mu", "nu", "p_mu", "p_nu", "p_z", "min_elevation_deg", "skl_real"
        ]
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 8
            for cell in cells[1:]:
                float(cell)

    def test_reported_cut_is_one_the_station_can_use(self, snspd):
        """With a 35 deg station cut every grid cut up to the lowest sample
        keeps the same samples; the reported cut is one of those at or above
        the station's, and the key length is the one all of them share."""
        station = replace(snspd.station, min_elevation_deg=35.0)
        pg = synth_pass(snspd.orbit, station, sample_dt_s=5.0)
        params, result = optimize_pass(pg, snspd.hardware(), snspd.security, 2, FAST)
        assert 35.0 <= params.min_elevation_deg <= pg.samples.elevation_deg.min()
        at_grid_floor = evaluate_params(
            pg, snspd.hardware(), snspd.security, 2, replace(params, min_elevation_deg=20.0)
        )
        assert result.skl_bits == at_grid_floor.skl_bits == 2492675

    def test_hopeless_scenario_flags_abort(self, snspd, coarse_pass):
        hardware = snspd.hardware()
        blind = replace(
            hardware,
            detector=replace(hardware.detector, dark_count_rate_hz=5e7, efficiency=0.01),
        )
        params, result = optimize_pass(coarse_pass, blind, snspd.security, 2, FAST)
        assert result.aborted
        assert result.skl_bits == 0


@pytest.mark.parametrize("name", ["snspd_pol_2decoy", "snspd_pol_1decoy"])
def test_chunked_coarse_grid_matches_per_block_reference(name, tmp_path):
    """Every coarse trace row equals a reference evaluated one block at a
    time with scalar intensities over the whole cut grid."""
    scenario = load_bundled_scenario(name)
    pass_geometry, hardware = scenario.synth_pass(), scenario.hardware()
    n_decoys, security = scenario.n_decoys, scenario.security
    blocks = _coarse_blocks(FAST, n_decoys)
    assert len(blocks) % CHUNK_BLOCKS != 0
    trace = tmp_path / "trace.csv"
    optimize_pass(pass_geometry, hardware, security, n_decoys, FAST, trace_path=trace)
    with open(trace) as f:
        coarse = [r for r in csv.DictReader(f) if r["stage"] == "coarse"]
    p_z = np.linspace(*P_Z_BOX, FAST.coarse_grid_steps)
    assert len(coarse) == len(blocks) * len(p_z)

    elevations = pass_geometry.samples.elevation_deg
    assert elevations.min() < MIN_ELEVATION_GRID[1]  # no grid cut lies below the pass
    order = np.argsort(elevations, kind="stable")
    breakdowns = compute_breakdowns(
        pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
    )
    eta = breakdowns.eta[order] * hardware.detector.efficiency
    pulses = hardware.source.pulse_rate_hz * pass_geometry.sample_dt_s
    cut_start = np.searchsorted(elevations[order], MIN_ELEVATION_GRID, side="left")
    rows = iter(coarse)
    for mu, nu, p_mu, p_nu in blocks.tolist():
        p_vac = 1.0 - p_mu - p_nu if n_decoys == 2 else 0.0
        clicks, err_z, err_x, f_dead = presift_rows(
            eta, mu, nu, p_mu, p_nu, p_vac, hardware.source, hardware.detector
        )
        per_sample = np.concatenate([clicks, err_z, err_x]) * (pulses * f_dead)
        suffix = np.cumsum(per_sample[:, ::-1], axis=1)[:, ::-1]
        cut = np.append(suffix, np.zeros((9, 1)), axis=1)[:, cut_start]
        t = sifted_rows(cut[0:3], cut[3:6], cut[6:9], p_z[:, None], p_z[:, None])
        l_real, _ = skl_real_arrays(t, mu, nu, p_mu, p_nu, p_vac, security, n_decoys)
        for j, p_z_j in enumerate(p_z.tolist()):
            row = next(rows)
            idx = int(np.argmax(l_real[j]))
            assert [float(row[k]) for k in ("mu", "nu", "p_mu", "p_nu", "p_z")] == [
                mu, nu, p_mu, p_nu, p_z_j
            ]
            assert float(row["min_elevation_deg"]) == MIN_ELEVATION_GRID[idx]
            assert float(row["skl_real"]) == pytest.approx(l_real[j, idx], rel=1e-12, abs=0)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedCoarseSearch:
    """The coarse grid runs in forked workers, one per available CPU."""

    @staticmethod
    def run(snspd, coarse_pass, trace):
        params, result = optimize_pass(
            coarse_pass, snspd.hardware(), snspd.security, 2, FAST, trace_path=trace
        )
        return repr((params, result)), trace.read_bytes()

    def test_output_bytes_do_not_depend_on_cpu_count(self, snspd, coarse_pass, tmp_path, monkeypatch):
        assert len(_coarse_blocks(FAST, 2)) > 3 * CHUNK_BLOCKS
        default = self.run(snspd, coarse_pass, tmp_path / "default.csv")
        _assert_no_child_left()

        def no_fork():
            raise AssertionError("one CPU must not fork")

        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            m.setattr(os, "fork", no_fork)
            one_cpu = self.run(snspd, coarse_pass, tmp_path / "one.csv")
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
            three_cpus = self.run(snspd, coarse_pass, tmp_path / "three.csv")
        assert one_cpu == default
        assert three_cpus == default
        _assert_no_child_left()

    @pytest.mark.parametrize("fault", ["raises", "exits_silently", "truncated"])
    def test_failed_worker_raises_internal_error(self, fault, snspd, coarse_pass, tmp_path, monkeypatch):
        """A worker that fails, sends nothing or sends part of its result
        fails the search with an error that is not a ValueError, so the
        CLI does not report it as invalid input."""
        parent = os.getpid()
        shard, dumps = optimizer._coarse_shard, pickle.dumps

        def faulty_shard(*args):
            if os.getpid() != parent:
                if fault == "raises":
                    raise RuntimeError("worker failure")
                if fault == "exits_silently":
                    os._exit(0)
            return shard(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(optimizer, "_coarse_shard", faulty_shard)
        if fault == "truncated":
            monkeypatch.setattr(pickle, "dumps", lambda *args: dumps(*args)[:-7])
        with pytest.raises(CoarseSearchError) as info:
            self.run(snspd, coarse_pass, tmp_path / "trace.csv")
        assert not isinstance(info.value, ValueError)
        _assert_no_child_left()

    def test_failure_in_calling_process_reaps_workers(self, snspd, coarse_pass, tmp_path, monkeypatch):
        """An interrupt in the calling process's own shard kills and reaps
        the workers still running."""
        parent = os.getpid()
        shard = optimizer._coarse_shard

        def fails_in_parent(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return shard(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(optimizer, "_coarse_shard", fails_in_parent)
        with pytest.raises(KeyboardInterrupt):
            self.run(snspd, coarse_pass, tmp_path / "trace.csv")
        _assert_no_child_left()


class TestPointwiseProfile:
    def test_profile_shape(self, snspd):
        pg = synth_pass(snspd.orbit, snspd.station, sample_dt_s=20.0)
        profile = pointwise_asymptotic_profile(
            pg, snspd.hardware(), snspd.security, 2, FAST
        )
        times = [t for t, _ in profile]
        rates = [r for _, r in profile]
        assert len(profile) == len(pg.samples)
        # peak at culmination
        assert max(range(len(rates)), key=rates.__getitem__) == times.index(0.0)
        # symmetric in time
        by_time = dict(profile)
        for t, r in profile:
            assert r == pytest.approx(by_time[-t], rel=1e-9)

    def test_pointwise_dominates_whole_pass(self, snspd):
        """The average of per-sample optima is at least the whole-pass
        fixed-parameter rate per pulse."""
        pg = synth_pass(snspd.orbit, snspd.station, sample_dt_s=20.0)
        profile = pointwise_asymptotic_profile(pg, snspd.hardware(), snspd.security, 2, FAST)
        params, result = optimize_pass(pg, snspd.hardware(), snspd.security, 2, FAST)
        n_sent = snspd.source.pulse_rate_hz * pg.sample_dt_s * len(pg.samples)
        assert sum(r for _, r in profile) / len(profile) >= result.skl_bits / n_sent


class TestSweep:
    def test_empty_pass_yields_zero(self, snspd):
        rows = sweep_max_elevation(
            snspd.orbit, 20.0, [15.0, 20.0], snspd.hardware(), snspd.security, 2, FAST,
            sample_dt_s=5.0,
        )
        assert all(row["skl_bits"] == 0.0 for row in rows)

    def test_higher_peak_is_better(self, snspd):
        rows = sweep_max_elevation(
            snspd.orbit, 20.0, [30.0, 80.0], snspd.hardware(), snspd.security, 2, FAST,
            sample_dt_s=5.0,
        )
        assert rows[0]["skl_bits"] < rows[1]["skl_bits"]


def test_optimizer_config_validation():
    with pytest.raises(OptimizerError):
        OptimizerConfig(coarse_grid_steps=1)
    with pytest.raises(OptimizerError):
        OptimizerConfig(rel_tolerance=0.0)
