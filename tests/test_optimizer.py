"""Whole-pass optimizer: determinism, dominance, and physical orderings."""
import csv
import os
import pickle
import signal
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satqkd.channel import presift_rows, sifted_rows
from satqkd.finitekey import skl_real_arrays
from satqkd import optimizer
from satqkd.linkbudget import compute_breakdowns
from satqkd.optimizer import (
    CHUNK_BLOCKS,
    P_Z_BOX,
    START_COUNT,
    HardwareStack,
    OptimizerConfig,
    OptimizerError,
    ParamVector,
    SearchWorkerError,
    _coarse_blocks,
    evaluate_params,
    optimize_pass,
    pointwise_asymptotic_profile,
    source_with_params,
    sweep_max_elevation,
)
from satqkd.orbit import GroundStation, OrbitSpec, synth_pass
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
        for cut in (-1.0, 95.0):
            with pytest.raises(OptimizerError):
                ParamVector(mu=0.5, nu=0.1, p_mu=0.7, p_nu=0.2, p_z=0.9, min_elevation_deg=cut)

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
        assert result.skl_bits == at_grid_floor.skl_bits == 2470756

    def test_hopeless_scenario_flags_abort(self, snspd, coarse_pass):
        hardware = snspd.hardware()
        blind = replace(
            hardware,
            detector=replace(hardware.detector, dark_count_rate_hz=5e7, efficiency=0.01),
        )
        params, result = optimize_pass(coarse_pass, blind, snspd.security, 2, FAST)
        assert result.aborted
        assert result.skl_bits == 0


@st.composite
def generated_passes(draw):
    """A pass of a 400-900 km orbit over a station cut of 1-85 degrees,
    peaking above the cut, sampled every 0.5-5 s."""
    cut = draw(st.floats(1.0, 85.0))
    station = GroundStation(cut, draw(st.floats(cut, 90.0, exclude_min=True)))
    return synth_pass(OrbitSpec(draw(st.floats(400.0, 900.0))), station, draw(st.floats(0.5, 5.0)))


class TestCutGrid:
    """The pass sets the elevation-cut grid."""

    @settings(deadline=None, max_examples=20)
    @given(generated_passes())
    def test_grid_spans_the_pass(self, snspd, pass_geometry):
        """Whole-degree cuts, the first keeping every sample and each
        keeping one; the reported cut lies within the pass."""
        channel = optimizer._PassChannel(pass_geometry, snspd.hardware(), snspd.security, 2)
        elevations = pass_geometry.samples.elevation_deg
        assert np.array_equal(channel.cuts, channel.cuts[0] + np.arange(len(channel.cuts)))
        assert channel.cuts[0] == np.floor(channel.cuts[0])
        assert channel.cut_kept[0] == len(elevations)
        assert channel.cut_kept.min() >= 1
        params, _ = optimize_pass(pass_geometry, snspd.hardware(), snspd.security, 2, FAST)
        assert channel.cuts[0] <= params.min_elevation_deg <= elevations.max()

    def test_low_station_keeps_its_low_samples(self, snspd):
        """A 10 degree station is cut below 20 degrees, for at least the
        3,445,347 bits that the tally path gives at a 10 degree cut with the
        parameters of the optimum over cuts of 20 degrees and up."""
        station = replace(snspd.station, min_elevation_deg=10.0)
        pg = synth_pass(snspd.orbit, station, snspd.sample_dt_s)
        params, result = optimize_pass(pg, snspd.hardware(), snspd.security, 2, snspd.optimizer)
        assert params.min_elevation_deg < 20.0
        assert result.skl_bits >= 3445347

    def test_high_station_is_cut_at_its_horizon(self, snspd):
        pg = synth_pass(snspd.orbit, GroundStation(85.0, 90.0), snspd.sample_dt_s)
        params, _ = optimize_pass(pg, snspd.hardware(), snspd.security, 2, FAST)
        assert params.min_elevation_deg >= 85.0

    def test_fractional_station_cut_is_reported_at_its_horizon(self, snspd):
        """A 35.5 degree station, whose lowest sample is at 35.79 degrees, is
        reported a cut of at least 35.5 degrees, with the key of the
        whole-degree cut below it."""
        pg = synth_pass(snspd.orbit, GroundStation(35.5, 80.0), 1.0)
        params, result = optimize_pass(pg, snspd.hardware(), snspd.security, 2, FAST)
        assert params.min_elevation_deg >= 35.5
        assert result.skl_bits == 2455466
        at_35 = evaluate_params(pg, snspd.hardware(), snspd.security, 2,
                                replace(params, min_elevation_deg=35.0))
        assert result.skl_bits == at_35.skl_bits

    @settings(deadline=None, max_examples=20)
    @given(generated_passes())
    def test_reported_cut_is_within_the_station_window(self, snspd, pass_geometry):
        """The reported cut lies between the station's cut and the highest
        sample. Every sample lies at or above the station's cut (see
        test_samples_lie_at_or_above_the_station_cut), so the lower of the
        two is the station's cut."""
        params, _ = optimize_pass(pass_geometry, snspd.hardware(), snspd.security, 2, FAST)
        elevations = pass_geometry.samples.elevation_deg
        station_cut = min(pass_geometry.min_elevation_deg, elevations.min())
        assert station_cut <= params.min_elevation_deg <= elevations.max()

    def test_cut_one_ulp_below_the_peak_is_reported_at_the_station_cut(self, snspd):
        """A peak one ulp above the station's cut comes back from the pass
        geometry 6e-14 degrees below it; the pass and the reported cut stay
        at the station's cut."""
        pg = synth_pass(OrbitSpec(567.0), GroundStation(43.0, 43.00000000000001), 1.0)
        assert pg.samples.elevation_deg.min() >= 43.0
        params, _ = optimize_pass(pg, snspd.hardware(), snspd.security, 2, FAST)
        assert params.min_elevation_deg >= 43.0

    @settings(deadline=None, max_examples=200)
    @given(generated_passes())
    def test_samples_lie_at_or_above_the_station_cut(self, pass_geometry):
        assert pass_geometry.samples.elevation_deg.min() >= pass_geometry.min_elevation_deg

    def test_pass_without_samples_rejected(self, snspd, coarse_pass):
        empty = replace(coarse_pass, samples=coarse_pass.samples[:0])
        with pytest.raises(OptimizerError, match="no samples"):
            optimize_pass(empty, snspd.hardware(), snspd.security, 2, FAST)


# snspd_tb_2decoy's X misalignment differs from its Z one, so its X error
# sums are computed on their own.
@pytest.mark.parametrize("name", ["snspd_pol_2decoy", "snspd_pol_1decoy", "snspd_tb_2decoy"])
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
    cuts = optimizer._PassChannel(pass_geometry, hardware, security, n_decoys).cuts
    assert elevations.min() < cuts[1]  # no grid cut lies below the pass
    order = np.argsort(elevations, kind="stable")
    breakdowns = compute_breakdowns(
        pass_geometry, hardware.transmitter, hardware.receiver, hardware.atmosphere
    )
    eta = breakdowns.eta[order] * hardware.detector.efficiency
    pulses = hardware.source.pulse_rate_hz * pass_geometry.sample_dt_s
    cut_start = np.searchsorted(elevations[order], cuts, side="left")
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
            assert float(row["min_elevation_deg"]) == cuts[idx]
            assert float(row["skl_real"]) == pytest.approx(l_real[j, idx], rel=1e-12, abs=0)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedCoarseSearch:
    """On more than one CPU, every start after the first is refined in a
    forked child of its own; the calling process refines the first."""

    @staticmethod
    def run(snspd, coarse_pass, trace):
        params, result = optimize_pass(
            coarse_pass, snspd.hardware(), snspd.security, 2, FAST, trace_path=trace
        )
        return repr((params, result)), trace.read_bytes()

    def test_output_bytes_do_not_depend_on_cpu_count(self, snspd, coarse_pass, tmp_path, monkeypatch):
        assert FAST.coarse_grid_steps >= START_COUNT
        default = self.run(snspd, coarse_pass, tmp_path / "default.csv")
        _assert_no_child_left()

        def no_fork():
            raise AssertionError("one CPU must not fork")

        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            m.setattr(os, "fork", no_fork)
            one_cpu = self.run(snspd, coarse_pass, tmp_path / "one.csv")
        assert one_cpu == default
        for cpus in ({0, 1}, {0, 1, 2}):
            with monkeypatch.context() as m:
                forks = TestTraceWriter.counted_forks(m, cpus)
                assert self.run(snspd, coarse_pass, tmp_path / "many.csv") == default
            assert len(forks) == START_COUNT - 1
        _assert_no_child_left()

    @pytest.mark.parametrize("fault", ["raises", "exits_silently", "truncated"])
    def test_failed_worker_raises_internal_error(self, fault, snspd, coarse_pass, tmp_path, monkeypatch):
        """A child that fails while refining its start, sends nothing or
        sends part of its result fails the search with an error that is not
        a ValueError, so the CLI does not report it as invalid input, and
        writes no trace."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        _inject_child_fault(monkeypatch, fault, lambda: True)
        trace = tmp_path / "trace.csv"
        with pytest.raises(SearchWorkerError) as info:
            self.run(snspd, coarse_pass, trace)
        assert not isinstance(info.value, ValueError)
        assert not trace.exists()
        _assert_no_child_left()

    def test_failure_in_calling_process_reaps_workers(self, snspd, coarse_pass, tmp_path, monkeypatch):
        """An interrupt while the calling process refines its own start
        kills and reaps the children still refining theirs."""
        parent, refine = os.getpid(), optimizer._refine

        def fails_in_parent(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return refine(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(optimizer, "_refine", fails_in_parent)
        with pytest.raises(KeyboardInterrupt):
            self.run(snspd, coarse_pass, tmp_path / "trace.csv")
        _assert_no_child_left()


def _inject_child_fault(monkeypatch, fault, faulty):
    """Make each forked child where faulty() holds fail: raise while it
    refines its start, exit without a result, or send a truncated pickle."""
    parent, refine, dumps = os.getpid(), optimizer._refine, pickle.dumps

    def faulty_refine(*args):
        if os.getpid() != parent and faulty():
            if fault == "raises":
                raise RuntimeError("worker failure")
            if fault == "exits_silently":
                os._exit(0)
        return refine(*args)

    def truncating_dumps(*args):
        payload = dumps(*args)
        return payload[:-7] if os.getpid() != parent and faulty() else payload

    monkeypatch.setattr(optimizer, "_refine", faulty_refine)
    if fault == "truncated":
        monkeypatch.setattr(pickle, "dumps", truncating_dumps)


class TestTraceWriter:
    """The calling process formats the trace once, whatever the CPU count;
    the start children only refine."""

    @staticmethod
    def counted_forks(monkeypatch, cpus=frozenset({0, 1})) -> list[int]:
        """The pids of the children forked from here on, with cpus usable."""
        forks: list[int] = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    @pytest.mark.parametrize("fault", ["raises", "exits_silently", "truncated"])
    def test_failed_writer_raises_internal_error(self, fault, snspd, coarse_pass, tmp_path, monkeypatch):
        """When only the last child joined fails, sends nothing or sends
        part of its result, after the trace rows are formatted and the
        other child's result is read, the call fails with an error that is
        not a ValueError and writes no trace."""
        forks = self.counted_forks(monkeypatch)
        # A child sees the pids of the children forked before it.
        _inject_child_fault(monkeypatch, fault, lambda: len(forks) == START_COUNT - 2)
        trace = tmp_path / "trace.csv"
        with pytest.raises(SearchWorkerError) as info:
            TestShardedCoarseSearch.run(snspd, coarse_pass, trace)
        assert not isinstance(info.value, ValueError)
        assert len(forks) == START_COUNT - 1
        assert f"worker {forks[-1]} " in str(info.value)
        assert not trace.exists()
        _assert_no_child_left()

    def test_interrupt_while_waiting_reaps_hanging_start(self, snspd, coarse_pass, tmp_path, monkeypatch):
        """An interrupt in the calling process while it waits for a child
        kills and reaps the child, here one that would not finish refining
        its start for a minute."""
        parent, refine = os.getpid(), optimizer._refine

        def hanging_refine(*args):
            if os.getpid() != parent:
                time.sleep(60)
            result = refine(*args)
            # The calling process has refined its own start and goes on to wait.
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            return result

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        forks = self.counted_forks(monkeypatch)
        monkeypatch.setattr(optimizer, "_refine", hanging_refine)
        handler = signal.signal(signal.SIGALRM, interrupt)
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt) as info:
                TestShardedCoarseSearch.run(snspd, coarse_pass, tmp_path / "trace.csv")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, handler)
        assert time.perf_counter() - start < 10.0
        assert "_join" in [entry.name for entry in info.traceback]
        assert len(forks) == START_COUNT - 1
        _assert_no_child_left()

    def test_untraced_call_formats_no_trace_rows(self, snspd, coarse_pass, tmp_path, monkeypatch):
        """A call without a trace formats no trace rows, in any process, and
        a traced call forks no more children than an untraced one."""

        def no_trace_text(*args):
            raise AssertionError("an untraced call must not format trace rows")

        forks = self.counted_forks(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_trace_text", no_trace_text)
            untraced = optimize_pass(coarse_pass, snspd.hardware(), snspd.security, 2, FAST)
        assert len(forks) == START_COUNT - 1
        traced = optimize_pass(
            coarse_pass, snspd.hardware(), snspd.security, 2, FAST, trace_path=tmp_path / "t.csv"
        )
        assert len(forks) == 2 * (START_COUNT - 1)
        assert repr(untraced) == repr(traced)
        _assert_no_child_left()

    def test_pass_does_not_wait_for_children_to_exit(self, snspd, coarse_pass, tmp_path, monkeypatch):
        """A child that has sent its whole result but lingers before it
        exits, here for 20 s, holds up neither the result nor the trace:
        the call reads the result and ends the child when the pass ends."""
        parent, exit_ = os.getpid(), os._exit

        def lingering_exit(status):
            if os.getpid() != parent:
                time.sleep(20)
            exit_(status)

        forks = self.counted_forks(monkeypatch)
        monkeypatch.setattr(os, "_exit", lingering_exit)
        start = time.perf_counter()
        TestShardedCoarseSearch.run(snspd, coarse_pass, tmp_path / "trace.csv")
        assert time.perf_counter() - start < 10.0
        assert len(forks) == START_COUNT - 1
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


def loop_coarse_blocks(config, n_decoys):
    """The coarse blocks as nested loops over the search coordinates (mu,
    nu, share, p_sum), mu outermost; a sum box of zero width is one value."""
    g = config.coarse_grid_steps
    lo, hi = optimizer.P_SUM_BOX[n_decoys]
    blocks = []
    for mu in np.linspace(*optimizer.MU_BOX, g):
        for nu in np.linspace(optimizer.NU_MIN, mu - optimizer.NU_MARGIN, g):
            for share in np.linspace(*optimizer.SHARE_BOX, g):
                for p_sum in (np.linspace(lo, hi, g) if hi > lo else [lo]):
                    p_mu = share * p_sum
                    blocks.append((mu, nu, p_mu, p_sum - p_mu))
    return np.array(blocks, dtype=float).reshape(-1, 4)


@pytest.mark.parametrize("n_decoys", [1, 2])
@pytest.mark.parametrize("steps", [2, 3, 4, 8, 11])
def test_coarse_blocks_match_loop_reference(steps, n_decoys):
    config = OptimizerConfig(coarse_grid_steps=steps)
    blocks = _coarse_blocks(config, n_decoys)
    want = loop_coarse_blocks(config, n_decoys)
    assert blocks.shape == want.shape
    assert blocks.tobytes() == want.tobytes()


def sequential_golden_max(f, lo, hi, abs_tol, guess=None, max_iter=80):
    """Golden-section search evaluating one point per call of f; the guess
    is ignored."""
    g = lambda x: float(f(np.array([x]))[0])  # noqa: E731
    if hi <= lo:
        return lo, g(lo)
    a, b = lo, hi
    x1 = b - optimizer._GOLDEN * (b - a)
    x2 = a + optimizer._GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(max_iter):
        if b - a <= abs_tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - optimizer._GOLDEN * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + optimizer._GOLDEN * (b - a)
            f2 = g(x2)
        if f1 > best_f:
            best_x, best_f = x1, f1
        if f2 > best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


@st.composite
def golden_guesses(draw, lo, hi, objective):
    """A guess for a search on [lo, hi]: none, or an abscissa inside the
    interval, outside it, at either end or on its first golden point, with
    its own value or any finite one."""
    kind = draw(st.sampled_from(["none", "inside", "outside", "lo", "hi", "golden"]))
    if kind == "none":
        return None
    x = {"inside": lambda: draw(st.floats(min(lo, hi), max(lo, hi))),
         "outside": lambda: draw(st.one_of(st.floats(-1e6, min(lo, hi)), st.floats(max(lo, hi), 1e6))),
         "lo": lambda: lo, "hi": lambda: hi,
         "golden": lambda: hi - optimizer._GOLDEN * (hi - lo)}[kind]()
    value = draw(st.one_of(st.just(float(objective(np.array([x]))[0])),
                           st.floats(allow_nan=False, allow_infinity=False)))
    return x, value


@st.composite
def golden_problems(draw):
    """An interval (possibly empty or reversed), a tolerance, a
    golden_guesses guess, an iteration cap and a vectorised objective with
    plateaus and ties: flat zero (most coarse points abort), a clipped
    parabola, a quantised sine or a step."""
    lo = draw(st.floats(-2.0, 2.0))
    hi = lo + draw(st.one_of(st.floats(-1.0, 0.0), st.floats(1e-6, 3.0)))
    abs_tol = 10.0 ** draw(st.floats(-9.0, 0.0))
    max_iter = draw(st.sampled_from([0, 1, 2, 3, 5, 80]))
    kind = draw(st.sampled_from(["zero", "parabola", "quantised", "step"]))
    c = draw(st.floats(-2.0, 2.0))
    k = draw(st.floats(0.5, 20.0))
    objectives = {
        "zero": lambda x: np.zeros_like(x),
        "parabola": lambda x: np.maximum(1.0 - k * (x - c) ** 2, 0.0),
        "quantised": lambda x: np.round(np.sin(k * x + c), 1),
        "step": lambda x: np.where(x > c, 1.0, 0.0),
    }
    guess = draw(golden_guesses(lo, hi, objectives[kind]))
    return lo, hi, abs_tol, guess, max_iter, objectives[kind]


@settings(deadline=None, max_examples=300)
@given(golden_problems())
def test_speculative_golden_max_matches_sequential(problem):
    lo, hi, abs_tol, guess, max_iter, objective = problem
    seen, calls = [], []

    def f(xs):
        assert xs.ndim == 1 and len(xs) >= 1
        calls.append(len(xs))
        seen.extend(xs.tolist())
        return objective(xs)

    reads = []
    want = sequential_golden_max(lambda xs: reads.extend(xs) or objective(xs),
                                 lo, hi, abs_tol, max_iter=max_iter)
    got = optimizer._golden_max(f, lo, hi, abs_tol, guess, max_iter)
    assert got == want
    assert [type(v) for v in got] == [float, float]
    assert len(seen) == len(set(seen))  # no point is evaluated twice
    assert all(lo <= x <= hi for x in seen) or hi <= lo
    if hi <= lo or max_iter == 0 or hi - lo <= abs_tol:
        assert len(seen) == (1 if hi <= lo else 2)  # no step: nothing evaluated ahead
    else:
        # One speculative point per step: the first call carries the two
        # interior points and one per step, a later one its own step's
        # point and one per step after it.
        steps = len(reads) - 2
        assert calls[0] <= 2 + steps
        assert all(n <= steps for n in calls[1:])


@settings(max_examples=300)
@given(st.dictionaries(st.floats(-1e6, 1e6), st.floats(), max_size=8))
@example({})
@example({0.0: 1.0, 1.0: 1.0, 2.0: 1.0})  # a plateau
@example({0.0: 0.0, 1.0: np.inf, 2.0: np.inf})
@example({0.0: 0.0, 5e-324: 5e-324, 1e-323: 5e-324})  # both products underflow to 0
def test_peak_prediction_is_total(known):
    """Any known values, with ties, plateaus, infinities, NaN or products
    that underflow, give a prediction without raising."""
    assert isinstance(optimizer._peak(known), float)


@pytest.mark.parametrize("peak", [0.05, 0.3, 0.5, 0.62, 0.9])
def test_speculative_golden_max_follows_an_interior_peak(peak):
    """Unimodal objectives whose peak lies inside the interval take both
    branches; the search lands where the sequential one does."""
    def objective(xs):
        return -np.abs(xs - peak) ** 1.5

    got = optimizer._golden_max(objective, 0.0, 1.0, 1e-9)
    assert got == sequential_golden_max(objective, 0.0, 1.0, 1e-9)
    assert got[0] == pytest.approx(peak, abs=1e-8)


def counted_golden_max(objective, lo, hi, abs_tol, guess):
    """_golden_max's result and its number of calls of objective."""
    calls = []
    got = optimizer._golden_max(lambda xs: calls.append(1) or objective(xs), lo, hi, abs_tol, guess)
    assert got == sequential_golden_max(objective, lo, hi, abs_tol)
    return got, len(calls)


@pytest.mark.parametrize("peak", [0.05, 0.3, 0.381966, 0.5, 0.618034, 0.77, 0.9])
def test_a_guess_at_the_peak_finishes_in_two_calls(peak):
    """A line search started at a parabola's peak, as `_refine` starts one
    at its current point, predicts nearly every step."""
    def objective(xs):
        return 1.0 - (xs - peak) ** 2

    (x, _), n_calls = counted_golden_max(objective, 0.0, 1.0, 1e-3, (peak, 1.0))
    assert x == pytest.approx(peak, abs=1e-3)
    assert n_calls <= 2


@pytest.mark.parametrize("guess_x", [None, 0.21, 0.5, 0.99])
@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_a_monotone_line_finishes_in_two_calls(slope, guess_x):
    """A key that grows toward one end of the box, as along p_sum toward the
    two-decoy edge, costs at most one wrong prediction wherever the search
    starts."""
    def objective(xs):
        return slope * xs

    guess = None if guess_x is None else (guess_x, slope * guess_x)
    (x, _), n_calls = counted_golden_max(objective, 0.21, 0.99, 0.78e-3, guess)
    assert x == pytest.approx(0.99 if slope > 0 else 0.21, abs=1e-3)
    assert n_calls <= 2


def kernel_rows(monkeypatch) -> list[int]:
    """Record the row count of every call the optimizer makes of the
    finite-key kernel from here on; returns the list they are appended to."""
    calls = []
    kernel = optimizer.skl_real_arrays
    monkeypatch.setattr(optimizer, "skl_real_arrays",
                        lambda t, mu, *args: calls.append(len(mu)) or kernel(t, mu, *args))
    return calls


def test_refinement_batches_kernel_calls(snspd, coarse_pass, monkeypatch):
    """A two-pass refinement reaches the same point in at most 23 kernel
    calls, under half of one call per golden-section step, and 200 rows."""
    channel = optimizer._PassChannel(coarse_pass, snspd.hardware(), snspd.security, 2)
    calls = kernel_rows(monkeypatch)

    def f(rows):
        return channel.objective(rows[:, :4], rows[:, 4:])[0]

    start = dict(zip(optimizer.PARAM_NAMES, (0.5, 0.1, 0.7, 0.15, 0.9)))
    value = float(f(np.array([[start[k] for k in optimizer.PARAM_NAMES]]))[0])
    assert value > 0
    config = OptimizerConfig(refine_iterations=2)
    calls.clear()
    batched = optimizer._refine(f, start, value, 2, config)
    n_batched, n_rows = len(calls), sum(calls)
    calls.clear()
    monkeypatch.setattr(optimizer, "_golden_max", sequential_golden_max)
    sequential = optimizer._refine(f, start, value, 2, config)
    assert batched == sequential
    assert batched[1] > value
    assert n_batched <= 23
    assert n_rows <= 200
    assert 2 * n_batched <= len(calls)


def test_serial_refinement_of_a_bundled_pass_is_pinned(snspd, monkeypatch):
    """The three starts of snspd_pol_2decoy, refined in one process, take
    at most 150 kernel calls and 1,100 rows, between the coarse grid's
    chunks and the final evaluation."""
    calls = kernel_rows(monkeypatch)
    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 1)
    optimize_pass(snspd.synth_pass(), snspd.hardware(), snspd.security, snspd.n_decoys,
                  snspd.optimizer)
    chunks = -(-len(_coarse_blocks(snspd.optimizer, snspd.n_decoys)) // CHUNK_BLOCKS)
    refinement = calls[chunks:-1]
    assert len(refinement) <= 150
    assert sum(refinement) <= 1100


def test_refinement_moves_along_the_two_decoy_edge():
    """An objective that peaks on p_mu + p_nu = 0.99 at share 0.8 and falls
    off steeply below that edge is followed along it from snspd_pol_2decoy's
    former optimum, where p_mu could move only once p_nu had fallen."""
    def f(rows):
        _, _, p_mu, p_nu, _ = rows.T
        total = p_mu + p_nu
        return 1.0 - (p_mu / total - 0.8) ** 2 - 100.0 * (0.99 - total)

    start = dict(zip(optimizer.PARAM_NAMES, (0.5, 0.1, 0.6286, 0.3614, 0.9)))
    value = float(f(np.array([[start[k] for k in optimizer.PARAM_NAMES]]))[0])
    point, best = optimizer._refine(f, start, value, 2, OptimizerConfig())
    assert best > value
    assert point["p_mu"] / (point["p_mu"] + point["p_nu"]) == pytest.approx(0.8, abs=0.01)
    assert point["p_mu"] + point["p_nu"] <= 0.99 + 1e-12


@st.composite
def coarse_values(draw):
    """Coarse values of a grid of 2-6 steps with 1-8 rows per (mu, nu)
    pair: any key lengths, or three levels, so that rows and nu indices tie."""
    steps, per_pair = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    level = draw(st.sampled_from([st.floats(0.0, 1e7), st.sampled_from([0.0, 1.0, 2.0])]))
    values = draw(st.lists(level, min_size=steps**2 * per_pair, max_size=steps**2 * per_pair))
    return np.array(values), steps, per_pair


@settings(deadline=None, max_examples=100)
@given(coarse_values())
# The first maximum is at nu index 3, which ties with nu indices 0-2 on a
# later mu; ties go to the lower row, not the lower nu index.
@example((np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0.0]), 4, 1))
def test_starts_are_distinct_nu_indices_in_grid_order(grid):
    """The starts lie on distinct nu indices, include the grid's first
    maximum and come in grid order."""
    values, steps, per_pair = grid
    starts = optimizer._starts(values, steps)
    assert len({row // per_pair % steps for row in starts}) == len(starts) == min(START_COUNT, steps)
    assert int(np.argmax(values)) in starts
    assert starts == sorted(starts)


def test_starts_on_an_all_zero_grid():
    """A pass without key starts at row 0, the first row of each nu index."""
    per_pair = 4**3
    assert optimizer._starts(np.zeros(4**4 * 4), 4) == [0, per_pair, 2 * per_pair][:START_COUNT]


@lru_cache(maxsize=None)
def bundled_channel(name):
    scenario = load_bundled_scenario(name)
    return optimizer._PassChannel(scenario.synth_pass(), scenario.hardware(),
                                  scenario.security, scenario.n_decoys)


@st.composite
def search_points(draw, n_decoys):
    """A search row (mu, nu, share, p_sum, p_z) inside the search boxes."""
    mu = draw(st.floats(*optimizer.MU_BOX))
    nu = draw(st.floats(optimizer.NU_MIN, mu - optimizer.NU_MARGIN))
    return [mu, nu, draw(st.floats(*optimizer.SHARE_BOX)),
            draw(st.floats(*optimizer.P_SUM_BOX[n_decoys])), draw(st.floats(*P_Z_BOX))]


@st.composite
def objective_batches(draw, n_decoys):
    """Parameter rows (mu, nu, p_mu, p_nu, p_z), 1-12 of them: mixed, or
    all of one (mu, nu, p_mu, p_nu) block, as in a p_z line search."""
    search = draw(st.lists(search_points(n_decoys), min_size=1, max_size=12))
    if draw(st.booleans()):
        search = [search[0][:4] + row[4:] for row in search]
    return optimizer._params(np.array(search))


@pytest.mark.parametrize("name", ["snspd_pol_2decoy", "snspd_tb_2decoy", "snspd_pol_1decoy"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_objective_rows_do_not_depend_on_their_batch(name, data):
    """Each row of a batch gets, bit for bit, the value and cut index it
    gets alone, and those of the row-per-block kernel path, which a batch
    of one block bypasses."""
    channel = bundled_channel(name)
    rows = data.draw(objective_batches(channel.n_decoys))
    values, cut_idx = channel.objective(rows[:, :4], rows[:, 4:])
    alone = [channel.objective(row[None, :4], row[None, 4:]) for row in rows]
    assert values.tobytes() == np.concatenate([value for value, _ in alone]).tobytes()
    assert cut_idx.tolist() == [int(idx[0]) for _, idx in alone]
    l_real = channel.skl_chunk(rows[:, :4], rows[:, 4:])
    assert cut_idx.tolist() == np.argmax(l_real, axis=1).tolist()
    assert values.tobytes() == l_real[np.arange(len(rows)), cut_idx].tobytes()


@lru_cache(maxsize=None)
def one_sided_channel(name):
    """The pass of a bundled scenario from culmination on: no two of its
    samples share a transmission."""
    scenario = load_bundled_scenario(name)
    pass_geometry = scenario.synth_pass()
    samples = pass_geometry.samples
    one_sided = replace(pass_geometry, samples=samples[samples.t_s >= 0])
    return optimizer._PassChannel(one_sided, scenario.hardware(), scenario.security, scenario.n_decoys)


@st.composite
def cut_sum_blocks(draw, n_decoys):
    """(mu, nu, p_mu, p_nu) blocks, 1-12 of them: mixed, or all of one
    (mu, nu), as in a share or p_sum line search."""
    search = draw(st.lists(search_points(n_decoys), min_size=1, max_size=12))
    if draw(st.booleans()):
        search = [search[0][:2] + row[2:] for row in search]
    return optimizer._params(np.array(search))[:, :4]


def reference_cut_sums(channel, blocks):
    """cut_sums presifting every sample and block on its own: the forward
    running sum over eta_sorted, gathered at each cut's last sample."""
    mu, nu, p_mu, p_nu = blocks.T
    p_vac = 1.0 - p_mu - p_nu if channel.n_decoys == 2 else 0.0 * p_mu
    clicks, err_z, err_x, f_dead = presift_rows(
        channel.eta_sorted, mu, nu, p_mu, p_nu, p_vac, channel.template, channel.detector
    )
    per_sample = np.concatenate([clicks, err_z, err_x]) * (channel.pulses_per_sample * f_dead)
    return np.cumsum(per_sample, axis=-1)[..., channel.cut_kept - 1]


# snspd_tb_2decoy's misalignments differ, spcm_pol_1decoy has one decoy, and
# the one-sided pass has no repeated transmission.
@pytest.mark.parametrize("name, one_sided", [
    ("snspd_pol_2decoy", False), ("snspd_tb_2decoy", False), ("spcm_pol_1decoy", False),
    ("snspd_pol_2decoy", True),
], ids=["snspd_pol_2decoy", "snspd_tb_2decoy", "spcm_pol_1decoy", "snspd_pol_2decoy_one_sided"])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_cut_sums_match_per_sample_reference(name, one_sided, data):
    """cut_sums presifts each distinct transmission once and shares the
    attenuation rows of one (mu, nu), with the bits of presifting every
    sample of every block."""
    channel = one_sided_channel(name) if one_sided else bundled_channel(name)
    blocks = data.draw(cut_sum_blocks(channel.n_decoys))
    got = channel.cut_sums(blocks)
    want = reference_cut_sums(channel, blocks)
    assert got.shape == want.shape == (9, len(blocks), len(channel.cuts))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_bundled_pass_repeats_transmissions():
    """The mirror-symmetric bundled pass presifts half its samples; the
    one-sided pass, all of them."""
    channel = bundled_channel("snspd_pol_2decoy")
    assert len(channel.eta_unique) == (len(channel.eta_sorted) + 1) // 2
    one_sided = one_sided_channel("snspd_pol_2decoy")
    assert len(one_sided.eta_unique) == len(one_sided.eta_sorted)


def plain_refine(f, point, value, n_decoys, config):
    """optimizer._refine without its skip rule: every coordinate is
    searched on every pass."""
    lo, hi = optimizer.P_SUM_BOX[n_decoys]
    p_sum = point["p_mu"] + point["p_nu"] if hi > lo else lo
    at = dict(point, share=point["p_mu"] / p_sum, p_sum=p_sum)

    def rows(dim, xs):
        search = np.tile([at[k] for k in optimizer.SEARCH_NAMES], (len(xs), 1))
        search[:, optimizer.SEARCH_NAMES.index(dim)] = xs
        return optimizer._params(search)

    for _ in range(config.refine_iterations):
        for dim in optimizer.SEARCH_NAMES:
            lo, hi = optimizer._box(dim, at, n_decoys)
            if hi <= lo:
                continue
            x, fx = optimizer._golden_max(lambda xs: f(rows(dim, xs)), lo, hi,
                                          config.rel_tolerance * optimizer.DIM_SPAN[dim])
            if fx > value:
                point = dict(zip(optimizer.PARAM_NAMES, rows(dim, [x])[0].tolist()))
                at[dim], value = x, fx
    return point, value


@st.composite
def refine_problems(draw):
    """A protocol, a start inside the search boxes, a config and a
    deterministic objective of the parameter rows: flat zero, a coupled
    parabola whose ascent moves the coordinates over several passes, or a
    quantised sine with plateaus and ties."""
    n_decoys = draw(st.sampled_from([1, 2]))
    start = optimizer._params(np.array([draw(search_points(n_decoys))]))[0]
    config = OptimizerConfig(refine_iterations=draw(st.integers(0, 5)),
                             rel_tolerance=draw(st.sampled_from([1e-3, 1e-2, 0.1])))
    kind = draw(st.sampled_from(["zero", "parabola", "quantised"]))
    c = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)))
    k = draw(st.floats(0.5, 20.0))
    b = draw(st.floats(-2.0, 2.0))
    objectives = {
        "zero": lambda rows: np.zeros(len(rows)),
        "parabola": lambda rows: -((rows - c) ** 2).sum(axis=1) + b * rows[:, 0] * rows[:, 1],
        "quantised": lambda rows: np.round(np.sin(k * rows + c).sum(axis=1) + b * rows[:, 4], 1),
    }
    f = objectives[kind]
    return f, dict(zip(optimizer.PARAM_NAMES, start.tolist())), float(f(start[None])[0]), n_decoys, config


@settings(deadline=None, max_examples=200)
@given(refine_problems())
def test_refine_skips_only_searches_that_repeat(problem):
    """Skipping the line search of a coordinate when no other one has moved
    since its last search returns what searching every coordinate on every
    pass returns."""
    assert optimizer._refine(*problem) == plain_refine(*problem)


@pytest.mark.parametrize("n_decoys, active", [(1, 4), (2, 5)])
def test_refine_without_a_gain_searches_each_coordinate_once(n_decoys, active, monkeypatch):
    """An objective that never beats the start costs one line search per
    coordinate with a box of nonzero width, over 4 passes."""
    searches = []
    golden_max = optimizer._golden_max
    monkeypatch.setattr(optimizer, "_golden_max",
                        lambda *args: searches.append(1) or golden_max(*args))
    start = dict(zip(optimizer.PARAM_NAMES, (0.5, 0.1, 0.6, 0.3 if n_decoys == 2 else 0.4, 0.9)))
    row = np.array([[start[k] for k in optimizer.PARAM_NAMES]])

    def peaked_at_start(rows):
        return -((rows - row) ** 2).sum(axis=1)

    config = OptimizerConfig(refine_iterations=4)
    assert optimizer._refine(peaked_at_start, start, 0.0, n_decoys, config) == (start, 0.0)
    assert len(searches) == active
