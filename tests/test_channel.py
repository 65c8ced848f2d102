"""Detection statistics: analytic pulse model plus Monte Carlo agreement."""
import dataclasses
import math

import numpy as np
import pytest

from satqkd.channel import (
    ChannelError,
    DetectorSpec,
    SourceSpec,
    background_yield,
    expected_tallies,
    expected_tallies_fixed_eta,
    monte_carlo_tallies,
    presift_rows,
    pulse_gain,
    pulse_qber,
)

TALLY_FIELDS = (
    "n_z_mu", "n_z_nu", "n_z_vac", "n_x_mu", "n_x_nu", "n_x_vac",
    "m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac",
)
TRUTH_FIELDS = ("s_z0", "s_z1", "s_x0", "s_x1", "m_z0", "m_z1", "m_x0", "m_x1")


def make_detector(**overrides) -> DetectorSpec:
    base = dict(
        efficiency=0.9, dark_count_rate_hz=90.0, dead_time_ns=30.0,
        background_rate_hz=8.0,
    )
    base.update(overrides)
    return DetectorSpec(**base)


class TestBackgroundYield:
    def test_silent_detector(self):
        det = make_detector(dark_count_rate_hz=0.0, background_rate_hz=0.0)
        assert background_yield(det, 1e9) == 0.0

    def test_reference_product(self):
        """4 detectors, 90 + 8 Hz, 1 ns gate -> 3.92e-7."""
        det = make_detector(n_detectors=4)
        assert background_yield(det, 1e9) == pytest.approx(3.92e-7, rel=1e-12)

    def test_gate_linearity(self):
        det1 = make_detector(gate_width_ns=1.0)
        det2 = make_detector(gate_width_ns=2.0)
        assert background_yield(det2, 1e9) == pytest.approx(
            2.0 * background_yield(det1, 1e9), rel=1e-12
        )

    def test_gateless_uses_pulse_period(self):
        det = make_detector(gate_width_ns=None)
        assert background_yield(det, 1e8) == pytest.approx(98.0 * 1e-8, rel=1e-12)

    def test_clamped_to_unity(self):
        det = make_detector(dark_count_rate_hz=1e12, gate_width_ns=10.0)
        assert background_yield(det, 1e9) == 1.0


class TestPulseModel:
    def test_vacuum_noiseless(self):
        assert pulse_gain(0.0, 1e-3, 0.0) == 0.0

    def test_gain_reference_value(self):
        """k=0.6, eta=1e-3, Y0=1e-6 -> 6.0082e-4."""
        assert pulse_gain(0.6, 1e-3, 1e-6) == pytest.approx(6.0082e-4, rel=1e-4)

    def test_gain_saturation(self):
        assert pulse_gain(1.0, 50.0, 1e-6) == pytest.approx(1.0, abs=1e-12)

    def test_qber_vacuum_limit(self):
        """Noise-dominated pulses err half the time."""
        assert pulse_qber(1e-12, 1e-12, 1e-6, 0.01) == pytest.approx(0.5, abs=1e-6)

    def test_qber_noiseless_limit(self):
        assert pulse_qber(0.6, 1e-3, 0.0, 0.01) == pytest.approx(0.01, rel=1e-12)

    def test_qber_reference_value(self):
        """k=0.6, eta=1e-3, Y0=1e-6, e_mis=0.01 -> 0.010816."""
        assert pulse_qber(0.6, 1e-3, 1e-6, 0.01) == pytest.approx(0.010816, abs=1e-5)

    def test_qber_undefined_for_zero_gain(self):
        with pytest.raises(ChannelError):
            pulse_qber(0.0, 1e-3, 0.0, 0.01)

    def test_gain_monotone_and_bounded(self):
        y0 = 1e-6
        for eta in (1e-5, 1e-4, 1e-3, 1e-2):
            gains = [float(pulse_gain(k, eta, y0)) for k in (0.1, 0.3, 0.6, 0.9)]
            assert all(b > a for a, b in zip(gains, gains[1:]))
            assert all(y0 <= g <= 1.0 for g in gains)
        for k in (0.1, 0.6):
            gains = [float(pulse_gain(k, eta, y0)) for eta in (1e-5, 1e-4, 1e-3, 1e-2)]
            assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_qber_window(self):
        """e_mis (1 - e^{-k eta}) / D_k <= e_k <= 1/2 for e_mis < 1/2."""
        y0, e_mis = 1e-6, 0.02
        for k in (0.1, 0.5, 0.9):
            for eta in (1e-5, 1e-3, 1e-1):
                e = float(pulse_qber(k, eta, y0, e_mis))
                d = float(pulse_gain(k, eta, y0))
                lower = e_mis * (1.0 - math.exp(-k * eta)) / d
                assert lower - 1e-15 <= e <= 0.5 + 1e-15

    def test_qber_decreasing_in_eta(self):
        y0, e_mis = 1e-6, 0.01
        values = [float(pulse_qber(0.6, eta, y0, e_mis)) for eta in (1e-6, 1e-5, 1e-4, 1e-3)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPresiftRows:
    """The broadcast rule of presift_rows: intensities of one shape against
    probabilities of another, each row the bits of its own scalar call."""

    @pytest.mark.parametrize("misalignment_x", [0.01, 0.03])
    def test_one_intensity_row_broadcasts_against_probability_rows(self, strong_link, misalignment_x):
        source = dataclasses.replace(strong_link.source_two, misalignment_x=misalignment_x)
        eta = strong_link.breakdowns.eta * strong_link.detector.efficiency
        p_mu = np.array([0.7, 0.5, 0.3, 0.61])
        p_nu = np.array([0.2, 0.35, 0.5, 0.3])
        rows = presift_rows(eta, np.array([0.6]), np.array([0.2]), p_mu, p_nu,
                            1.0 - p_mu - p_nu, source, strong_link.detector)
        assert [x.shape for x in rows] == [(3, 4, len(eta))] * 3 + [(4, len(eta))]
        for i in range(len(p_mu)):
            alone = presift_rows(eta, 0.6, 0.2, p_mu[i], p_nu[i], 1.0 - p_mu[i] - p_nu[i],
                                 source, strong_link.detector)
            for row, want in zip(rows, alone):
                assert np.array_equal(row[..., i, :].view(np.int64), want.view(np.int64))
        _, errors_z, errors_x, _ = rows
        if misalignment_x == source.misalignment_z:
            assert errors_x is errors_z
        else:
            assert errors_x is not errors_z
            assert np.all(errors_x[:2] > errors_z[:2])  # the larger misalignment errs more


class TestExpectedTallies:
    def test_cut_above_peak_is_empty(self, strong_link):
        t = expected_tallies(
            strong_link.pass_geometry, strong_link.breakdowns,
            strong_link.source_two, strong_link.detector, 85.0,
        )
        assert t.n_sent == 0.0
        assert all(getattr(t, f) == 0.0 for f in TALLY_FIELDS)

    def test_single_sample_hand_calculation(self, strong_link):
        """One-sample block equals rate*dt*p*sift*D*f within 1e-12 relative."""
        src = strong_link.source_two
        det = strong_link.detector
        eta = strong_link.breakdowns[0].eta * det.efficiency
        n = 12345.0
        t = expected_tallies_fixed_eta(strong_link.breakdowns[0].eta, n, src, det)
        y0 = background_yield(det, src.pulse_rate_hz)
        d_mu = 1.0 - (1.0 - y0) * math.exp(-0.6 * eta)
        d_nu = 1.0 - (1.0 - y0) * math.exp(-0.2 * eta)
        mean = 0.7 * d_mu + 0.2 * d_nu + 0.1 * y0
        f_dead = 1.0 / (1.0 + src.pulse_rate_hz * mean * det.dead_time_ns * 1e-9)
        expect_n_z_mu = n * 0.7 * 0.64 * d_mu * f_dead
        assert t.n_z_mu == pytest.approx(expect_n_z_mu, rel=1e-12)
        e_mu = (0.5 * y0 + 0.01 * (1.0 - math.exp(-0.6 * eta))) / d_mu
        assert t.m_z_mu == pytest.approx(expect_n_z_mu * e_mu, rel=1e-12)
        assert t.n_x_vac == pytest.approx(n * 0.1 * 0.04 * y0 * f_dead, rel=1e-12)

    def test_zero_dead_time_factor_is_unity(self, strong_link):
        src = strong_link.source_two
        live = make_detector(dead_time_ns=0.0, efficiency=0.8,
                             dark_count_rate_hz=200.0, background_rate_hz=100.0)
        dead = make_detector(dead_time_ns=30.0, efficiency=0.8,
                             dark_count_rate_hz=200.0, background_rate_hz=100.0)
        t_live = expected_tallies_fixed_eta(1e-2, 1e6, src, live)
        t_dead = expected_tallies_fixed_eta(1e-2, 1e6, src, dead)
        y0 = background_yield(live, src.pulse_rate_hz)
        eta = 1e-2 * 0.8
        d_mu = 1.0 - (1.0 - y0) * math.exp(-0.6 * eta)
        assert t_live.n_z_mu == pytest.approx(1e6 * 0.7 * 0.64 * d_mu, rel=1e-12)
        assert t_dead.n_z_mu < t_live.n_z_mu

    def test_lower_cut_never_decreases_tallies(self, strong_link):
        cuts = [60.0, 45.0, 30.0, 20.0]
        series = [
            expected_tallies(
                strong_link.pass_geometry, strong_link.breakdowns,
                strong_link.source_two, strong_link.detector, cut,
            )
            for cut in cuts
        ]
        for field in TALLY_FIELDS + ("n_sent",):
            values = [getattr(t, field) for t in series]
            assert all(b >= a for a, b in zip(values, values[1:])), field

    def test_breakdown_count_mismatch_rejected(self, strong_link):
        with pytest.raises(ChannelError):
            expected_tallies(
                strong_link.pass_geometry, strong_link.breakdowns[:-1],
                strong_link.source_two, strong_link.detector, 20.0,
            )


class TestMonteCarlo:
    def test_fixed_seed_is_reproducible(self, strong_link):
        kwargs = dict(
            pass_geometry=strong_link.pass_geometry, breakdowns=strong_link.breakdowns,
            source=strong_link.source_two, det=strong_link.detector,
            min_elevation_deg=20.0, thinning=1e5,
        )
        a = monte_carlo_tallies(42, **kwargs)
        b = monte_carlo_tallies(42, **kwargs)
        assert a == b
        c = monte_carlo_tallies(43, **kwargs)
        assert a != c

    def test_negative_seed_rejected(self, strong_link):
        with pytest.raises(ChannelError, match="seed"):
            monte_carlo_tallies(
                -1, strong_link.pass_geometry, strong_link.breakdowns,
                strong_link.source_two, strong_link.detector, 20.0, thinning=1e5,
            )

    def test_tallies_are_integers(self, strong_link):
        t = monte_carlo_tallies(
            7, strong_link.pass_geometry, strong_link.breakdowns,
            strong_link.source_two, strong_link.detector, 20.0, thinning=1e5,
        )
        for field in TALLY_FIELDS:
            value = getattr(t, field)
            assert value == int(value)
        assert tuple(t.truth) == TRUTH_FIELDS
        assert t.truth["s_z1"] >= 0

    def test_signal_only_source_has_no_decoy_counts(self, strong_link):
        src = SourceSpec(
            pulse_rate_hz=1e9, signal_intensity=0.6, decoy_intensity=0.2,
            p_mu=1.0 - 1e-12, p_nu=1e-12, p_z_alice=0.8, p_z_bob=0.8,
            vacuum_included=False,
        )
        t = monte_carlo_tallies(
            3, strong_link.pass_geometry, strong_link.breakdowns,
            src, strong_link.detector, 20.0, thinning=1e5,
        )
        assert t.n_z_nu + t.n_x_nu == 0.0
        assert t.n_z_vac + t.n_x_vac == 0.0
        assert t.n_z_mu > 0

    @pytest.mark.parametrize("protocol", ["two", "one"])
    def test_three_sigma_agreement(self, strong_link, protocol):
        """Sampled tallies stay inside the 3-sigma band of the expectation
        for ten fixed seeds (binomial variance approximated by the mean)."""
        source = strong_link.source_two if protocol == "two" else strong_link.source_one
        thinning = 2e4
        expected = expected_tallies(
            strong_link.pass_geometry, strong_link.breakdowns,
            source, strong_link.detector, 20.0,
        ).scaled(1.0 / thinning)
        fields = [f for f in TALLY_FIELDS if source.vacuum_included or not f.endswith("_vac")]
        for seed in range(100, 110):
            mc = monte_carlo_tallies(
                seed, strong_link.pass_geometry, strong_link.breakdowns,
                source, strong_link.detector, 20.0, thinning=thinning,
            )
            for field in fields:
                exp = getattr(expected, field)
                got = getattr(mc, field)
                sigma = math.sqrt(max(exp, 1.0))
                assert abs(got - exp) <= 3.0 * sigma, (
                    f"{field} seed {seed}: expected {exp:.1f}, got {got}"
                )

    def test_thinning_below_one_rejected(self, strong_link):
        with pytest.raises(ChannelError):
            monte_carlo_tallies(
                0, strong_link.pass_geometry, strong_link.breakdowns,
                strong_link.source_two, strong_link.detector, 20.0, thinning=0.5,
            )


def per_pulse_tallies(seed, pass_geometry, breakdowns, source, det, min_elevation_deg, thinning):
    """Reference sampler: a Poisson photon number drawn for every pulse, one
    sample at a time, then per photon number the same binomial background,
    signal, dead-time and error draws as monte_carlo_tallies. Returns the
    TALLY_FIELDS and TRUTH_FIELDS counts."""
    rng = np.random.Generator(np.random.PCG64(seed))
    y0 = background_yield(det, source.pulse_rate_hz)
    pulses_per_sample = int(round(source.pulse_rate_hz * pass_geometry.sample_dt_s / thinning))
    p_sift_z = source.p_z_alice * source.p_z_bob
    p_sift_x = (1.0 - source.p_z_alice) * (1.0 - source.p_z_bob)
    intensities = source.intensities()
    probabilities = source.probabilities()
    category_p = []
    for key in intensities:
        p = probabilities[key]
        category_p += [p * p_sift_z, p * p_sift_x, p * (1.0 - p_sift_z - p_sift_x)]
    counts = dict.fromkeys(TALLY_FIELDS + TRUTH_FIELDS, 0)
    eta_all = breakdowns.eta * det.efficiency
    f_dead_all = presift_rows(
        eta_all, source.signal_intensity, source.decoy_intensity,
        source.p_mu, source.p_nu, source.p_vac, source, det,
    )[3]
    for elevation, eta, f_dead in zip(pass_geometry.samples.elevation_deg, eta_all, f_dead_all):
        if elevation < min_elevation_deg:
            continue
        split = rng.multinomial(pulses_per_sample, category_p)
        for i, (key, k) in enumerate(intensities.items()):
            for basis, group in (("z", split[3 * i]), ("x", split[3 * i + 1])):
                e_mis = source.misalignment_z if basis == "z" else source.misalignment_x
                photon_counts = np.bincount(rng.poisson(k, group)) if k > 0 else [group]
                for n_photons, c_n in enumerate(photon_counts):
                    n_bg = rng.binomial(c_n, y0)
                    n_sig = rng.binomial(c_n - n_bg, 1.0 - (1.0 - eta) ** n_photons)
                    n_bg = rng.binomial(n_bg, f_dead)
                    n_sig = rng.binomial(n_sig, f_dead)
                    clicks = n_bg + n_sig
                    errors = rng.binomial(n_bg, 0.5) + rng.binomial(n_sig, e_mis)
                    counts[f"n_{basis}_{key}"] += clicks
                    counts[f"m_{basis}_{key}"] += errors
                    if n_photons <= 1:
                        counts[f"s_{basis}{n_photons}"] += clicks
                        counts[f"m_{basis}{n_photons}"] += errors
    return counts


class TestCountLevelSampler:
    """The count-level sampler against the per-pulse reference, and its
    error counts against the two error forms of the module docstring."""

    @staticmethod
    def short_pass(strong_link):
        every = slice(None, None, 5)
        geometry = dataclasses.replace(
            strong_link.pass_geometry, samples=strong_link.pass_geometry.samples[every]
        )
        return geometry, strong_link.breakdowns[every]

    @pytest.mark.parametrize("case", ["two", "one", "bright"])
    def test_matches_per_pulse_reference(self, strong_link, case):
        """Pooled over 40 seeds, every tally and truth field of the two
        samplers agrees within 5 sigma of the difference of two independent
        counts, each with variance at most its mean. "bright" has a signal
        intensity of 2.5 (most signal pulses carry n >= 2, the tail cell)
        and a noisy detector, so background clicks are frequent too."""
        source, det = strong_link.source_two, strong_link.detector
        if case == "one":
            source = strong_link.source_one
        elif case == "bright":
            source = dataclasses.replace(source, signal_intensity=2.5, decoy_intensity=0.3)
            det = dataclasses.replace(det, dark_count_rate_hz=2e6)
        geometry, breakdowns = self.short_pass(strong_link)
        args = (geometry, breakdowns, source, det, 20.0)
        count_level = dict.fromkeys(TALLY_FIELDS + TRUTH_FIELDS, 0.0)
        reference = dict.fromkeys(TALLY_FIELDS + TRUTH_FIELDS, 0)
        for seed in range(40):
            mc = monte_carlo_tallies(seed, *args, thinning=1e5)
            for name in TALLY_FIELDS:
                count_level[name] += getattr(mc, name)
            for name in TRUTH_FIELDS:
                count_level[name] += mc.truth[name]
            for name, value in per_pulse_tallies(1000 + seed, *args, thinning=1e5).items():
                reference[name] += value
        for name in TALLY_FIELDS + TRUTH_FIELDS:
            a, b = count_level[name], reference[name]
            assert abs(a - b) <= 5.0 * math.sqrt(max(a + b, 1.0)), f"{case} {name}: {a} vs {b}"
        if case == "bright":
            tail_clicks = sum(count_level[f"n_{b}_{k}"] for b in "zx" for k in ("mu", "nu", "vac"))
            tail_clicks -= sum(count_level[f"s_{b}{n}"] for b in "zx" for n in (0, 1))
            assert tail_clicks > 0.5 * count_level["n_z_mu"]
            assert count_level["n_z_vac"] > 100

    def test_error_counts_follow_the_one_minus_y0_form(self, strong_link):
        """At thinning 1 with Y0 = 0.1 and 5% misalignment, the sampler's
        pooled error counts sit within 5 sigma of Y0/2 + (1 - Y0) e_mis
        (1 - e^(-k eta)) per pulse (the analytic model with e_mis scaled by
        1 - Y0) and more than 5 sigma away from the analytic Y0/2 + e_mis
        (1 - e^(-k eta)) wherever a signal can err."""
        det = make_detector(efficiency=0.8, dark_count_rate_hz=1e8, background_rate_hz=0.0)
        y0 = background_yield(det, 1e9)
        assert y0 == pytest.approx(0.1)
        source = dataclasses.replace(strong_link.source_two, misalignment_z=0.05, misalignment_x=0.05)
        scaled = dataclasses.replace(
            source, misalignment_z=0.05 * (1.0 - y0), misalignment_x=0.05 * (1.0 - y0)
        )
        args = (strong_link.pass_geometry, strong_link.breakdowns)
        analytic = expected_tallies(*args, source, det, 20.0)
        sampler_form = expected_tallies(*args, scaled, det, 20.0)
        seeds = range(16)
        pooled = [monte_carlo_tallies(seed, *args, source, det, 20.0) for seed in seeds]
        for name in ("m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac"):
            got = sum(getattr(mc, name) for mc in pooled)
            mean = len(seeds) * getattr(sampler_form, name)
            sigma = math.sqrt(mean)
            assert abs(got - mean) <= 5.0 * sigma, f"{name}: {got} vs {mean}"
            if not name.endswith("_vac"):
                assert abs(len(seeds) * getattr(analytic, name) - mean) > 5.0 * sigma, name

    def test_intensity_probabilities_within_validation_tolerance(self, strong_link):
        """Without a vacuum, SourceSpec accepts p_mu + p_nu = 1 + 5e-10."""
        source = dataclasses.replace(strong_link.source_one, p_nu=0.3 + 5e-10)
        mc = monte_carlo_tallies(
            1, strong_link.pass_geometry, strong_link.breakdowns,
            source, strong_link.detector, 20.0, thinning=1e5,
        )
        assert mc.n_z_mu > 0 and mc.n_z_vac == 0

    def test_full_rate_pass_counts_every_pulse(self, strong_link):
        """Thinning 1 draws all 1e9 pulses/s of every kept sample."""
        mc = monte_carlo_tallies(
            5, strong_link.pass_geometry, strong_link.breakdowns,
            strong_link.source_two, strong_link.detector, 20.0,
        )
        kept = int((strong_link.pass_geometry.samples.elevation_deg >= 20.0).sum())
        assert mc.n_sent == 1e9 * strong_link.pass_geometry.sample_dt_s * kept
        assert mc.truth["s_z1"] > 0


class TestSourceValidation:
    def test_intensity_ordering_enforced(self):
        with pytest.raises(ChannelError, match="decoy_intensity"):
            SourceSpec(
                pulse_rate_hz=1e9, signal_intensity=0.2, decoy_intensity=0.5,
                p_mu=0.7, p_nu=0.2, p_z_alice=0.9, p_z_bob=0.9,
            )

    def test_two_decoy_needs_vacuum_probability(self):
        with pytest.raises(ChannelError, match="p_mu"):
            SourceSpec(
                pulse_rate_hz=1e9, signal_intensity=0.6, decoy_intensity=0.2,
                p_mu=0.8, p_nu=0.2, p_z_alice=0.9, p_z_bob=0.9,
            )

    def test_one_decoy_needs_unit_probability(self):
        with pytest.raises(ChannelError, match="p_mu"):
            SourceSpec(
                pulse_rate_hz=1e9, signal_intensity=0.6, decoy_intensity=0.2,
                p_mu=0.7, p_nu=0.2, p_z_alice=0.9, p_z_bob=0.9,
                vacuum_included=False,
            )
