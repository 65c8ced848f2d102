"""Finite-key engine: primitive anchors, estimator validity via the
photon-number-tagged Monte Carlo oracle, and key-length behaviour."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.channel import (
    TALLY_FIELDS,
    DetectorSpec,
    SourceSpec,
    TallySet,
    expected_tallies_fixed_eta,
    monte_carlo_tallies,
)
from satqkd.finitekey import (
    DecoyBounds,
    EPSILON_BUDGET,
    FiniteKeyError,
    SecurityParams,
    asymptotic_skr,
    binary_entropy,
    emission_tau,
    estimate_bounds,
    hoeffding_delta,
    one_decoy_bounds,
    secure_key_length,
    skl_from_tallies,
    skl_real_arrays,
    _estimate_arrays,
    two_decoy_bounds,
)


class TestPrimitives:
    def test_entropy_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_entropy_reference_value(self):
        """h(0.11) = 0.499916."""
        assert binary_entropy(0.11) == pytest.approx(0.499916, abs=1e-5)

    def test_entropy_domain(self):
        with pytest.raises(FiniteKeyError):
            binary_entropy(-0.01)
        with pytest.raises(FiniteKeyError):
            binary_entropy(1.01)

    def test_hoeffding_zero(self):
        assert hoeffding_delta(0.0, 1e-10) == 0.0

    def test_hoeffding_reference_value(self):
        """n=1e6, eps=1e-10 -> 3393.07."""
        assert hoeffding_delta(1e6, 1e-10) == pytest.approx(3393.07, abs=0.01)

    def test_hoeffding_sqrt_scaling(self):
        assert hoeffding_delta(4e6, 1e-10) == pytest.approx(
            2.0 * hoeffding_delta(1e6, 1e-10), rel=1e-12
        )

    def test_tau_single_intensity(self):
        """mu=0.6 alone: tau_1 = 0.6 e^{-0.6} = 0.329287."""
        assert emission_tau([0.6], [1.0], 1) == pytest.approx(0.329287, abs=1e-5)

    def test_tau_vacuum_only(self):
        assert emission_tau([0.0], [1.0], 0) == 1.0

    def test_tau_mixture_sums_below_one(self):
        for mu, nu, p_mu, p_nu in ((0.6, 0.2, 0.7, 0.2), (0.9, 0.1, 0.5, 0.3)):
            t0 = emission_tau([mu, nu, 0.0], [p_mu, p_nu, 1 - p_mu - p_nu], 0)
            t1 = emission_tau([mu, nu, 0.0], [p_mu, p_nu, 1 - p_mu - p_nu], 1)
            assert 0.0 < t0 and 0.0 < t1 and t0 + t1 <= 1.0

    def test_tau_probability_check(self):
        with pytest.raises(FiniteKeyError):
            emission_tau([0.6, 0.2], [0.7, 0.2], 1)


def asymptotic_tallies(eta: float, n_pulses: float, source: SourceSpec) -> TallySet:
    """Noise-free (Y0 = 0, e_mis = 0) expected tallies at fixed eta."""
    sift_z = source.p_z_alice * source.p_z_bob
    sift_x = (1.0 - source.p_z_alice) * (1.0 - source.p_z_bob)
    values = {"n_sent": float(n_pulses)}
    for key, k in source.intensities().items():
        p_k = source.probabilities()[key]
        gain = 1.0 - math.exp(-k * eta)
        values[f"n_z_{key}"] = n_pulses * p_k * sift_z * gain
        values[f"n_x_{key}"] = n_pulses * p_k * sift_x * gain
        values[f"m_z_{key}"] = 0.0
        values[f"m_x_{key}"] = 0.0
    return TallySet(**values)


def make_source(n_decoys: int = 2, **overrides) -> SourceSpec:
    base = dict(
        pulse_rate_hz=1e9, signal_intensity=0.6, decoy_intensity=0.2,
        p_mu=0.7, p_nu=0.2 if n_decoys == 2 else 0.3,
        p_z_alice=0.8, p_z_bob=0.8, vacuum_included=n_decoys == 2,
    )
    base.update(overrides)
    return SourceSpec(**base)


class TestTwoDecoyBounds:
    def test_zero_error_infinite_block(self):
        """With no noise and negligible fluctuations the single-photon bound
        matches an independent evaluation of the estimator on exact Poisson
        yields to 1e-6, and stays below the true single-photon count."""
        mu, nu, p_mu, p_nu = 0.5, 0.1, 0.7, 0.2
        eta, n = 1e-3, 1e30
        source = make_source(
            2, signal_intensity=mu, decoy_intensity=nu, p_mu=p_mu, p_nu=p_nu,
            p_z_alice=0.9, p_z_bob=0.9, misalignment_z=0.0, misalignment_x=0.0,
        )
        tallies = asymptotic_tallies(eta, n, source)
        bounds = two_decoy_bounds(tallies, source, SecurityParams())
        assert not bounds.aborted

        # Independent oracle: rescaled counts n_tilde_k = N_z e^k (1-e^{-k eta});
        # with zero vacuum-intensity detections both estimator branches agree.
        n_z = n * 0.81
        tau1 = p_mu * mu * math.exp(-mu) + p_nu * nu * math.exp(-nu)
        n_t_nu = n_z * math.exp(nu) * (1.0 - math.exp(-nu * eta))
        n_t_mu = n_z * math.exp(mu) * (1.0 - math.exp(-mu * eta))
        oracle = tau1 * mu * (n_t_nu - (nu**2 / mu**2) * n_t_mu) / (nu * (mu - nu))
        assert bounds.s_z1_low == pytest.approx(oracle, rel=1e-6)

        true_s_z1 = n_z * tau1 * eta
        assert bounds.s_z1_low <= true_s_z1 * (1.0 + 1e-9)
        assert bounds.s_z1_low >= 0.9 * true_s_z1

    @staticmethod
    def hand_forms(t: TallySet, mu, nu, p_mu, p_nu, p_vac, eps_sec) -> dict:
        """Both two-decoy estimator forms in plain float arithmetic: the
        (mu, nu) pair form and the vacuum form of s_Z0, s_Z1 and v_X1."""
        eps1 = eps_sec / EPSILON_BUDGET[2]
        tau0 = p_mu * math.exp(-mu) + p_nu * math.exp(-nu) + p_vac
        tau1 = p_mu * mu * math.exp(-mu) + p_nu * nu * math.exp(-nu)
        n = {k: getattr(t, f"n_z_{k}") for k in ("mu", "nu", "vac")}
        m = {k: getattr(t, f"m_z_{k}") for k in ("mu", "nu", "vac")}
        m_x = {k: getattr(t, f"m_x_{k}") for k in ("mu", "nu", "vac")}
        dn = math.sqrt(sum(n.values()) / 2.0 * math.log(1.0 / eps1))
        dm = math.sqrt(sum(m.values()) / 2.0 * math.log(1.0 / eps1))
        dm_x = math.sqrt(sum(m_x.values()) / 2.0 * math.log(1.0 / eps1))
        n_mu_up = math.exp(mu) / p_mu * (n["mu"] + dn)
        n_nu_low = max(math.exp(nu) / p_nu * (n["nu"] - dn), 0.0)
        s0_up = 2.0 * (tau0 * min(math.exp(mu) / p_mu * (m["mu"] + dm),
                                  math.exp(nu) / p_nu * (m["nu"] + dm)) + dn)
        s0_pair = max(tau0 * (mu * n_nu_low - nu * n_mu_up) / (mu - nu), 0.0)
        s0_vac = tau0 * max((n["vac"] - dn) / p_vac, 0.0)
        s0 = max(s0_pair, s0_vac)
        s1_pair = tau1 * mu * (
            n_nu_low - nu**2 / mu**2 * n_mu_up - (mu**2 - nu**2) / mu**2 * s0_up / tau0
        ) / (nu * (mu - nu))
        s1_vac = tau1 * mu * (
            n_nu_low - (n["vac"] + dn) / p_vac - nu**2 / mu**2 * (n_mu_up - s0 / tau0)
        ) / (nu * (mu - nu))
        m_x_mu_up = math.exp(mu) / p_mu * (m_x["mu"] + dm_x)
        m_x_nu_up = math.exp(nu) / p_nu * (m_x["nu"] + dm_x)
        m_x_nu_low = max(math.exp(nu) / p_nu * (m_x["nu"] - dm_x), 0.0)
        m_x_vac_low = max((m_x["vac"] - dm_x) / p_vac, 0.0)
        return {
            "s0": (s0_pair, s0_vac),
            "s1": (s1_pair, s1_vac),
            "v": (tau1 * (m_x_mu_up - m_x_nu_low) / (mu - nu), tau1 * (m_x_nu_up - m_x_vac_low) / nu),
        }

    @pytest.mark.parametrize("p_vac, dark_hz, n_pulses, s1_binding", [
        (0.1, 1e4, 1e11, "vacuum"),
        (0.01, 1e3, 1e10, "pair"),
    ])
    def test_pair_and_vacuum_forms_oracle(self, p_vac, dark_hz, n_pulses, s1_binding):
        """two_decoy_bounds keeps the sharper of the pair and vacuum forms:
        max for s_Z0 and s_Z1, min for v_X1, each checked against plain
        arithmetic, on one block where each form binds s_Z1."""
        mu, nu, p_nu = 0.6, 0.2, 0.2
        p_mu = 1.0 - p_nu - p_vac
        source = make_source(2, p_mu=p_mu, p_nu=p_nu)
        det = DetectorSpec(
            efficiency=0.8, dark_count_rate_hz=dark_hz, dead_time_ns=30.0, background_rate_hz=10.0
        )
        tallies = expected_tallies_fixed_eta(1e-3, n_pulses, source, det)
        bounds = two_decoy_bounds(tallies, source, SecurityParams())
        forms = self.hand_forms(tallies, mu, nu, p_mu, p_nu, p_vac, SecurityParams().eps_sec)
        s1_pair, s1_vac = forms["s1"]
        assert (s1_vac > s1_pair) == (s1_binding == "vacuum")
        assert bounds.s_z0_low == pytest.approx(max(forms["s0"]), rel=1e-12, abs=1e-9)
        assert bounds.s_z1_low == pytest.approx(max(s1_pair, s1_vac), rel=1e-12)
        assert bounds.v_x1_up == pytest.approx(min(forms["v"]), rel=1e-12)

    def test_all_zero_counts_abort(self):
        source = make_source(2)
        bounds = two_decoy_bounds(TallySet(), source, SecurityParams())
        assert bounds.aborted
        result = secure_key_length(bounds, TallySet(), SecurityParams(), 2)
        assert result.aborted and result.skl_bits == 0

    def test_requires_vacuum_intensity(self):
        with pytest.raises(FiniteKeyError):
            two_decoy_bounds(TallySet(), make_source(1), SecurityParams())

    def test_physical_clamps(self, strong_link):
        tallies = expected_tallies_fixed_eta(1e-2, 1e7, strong_link.source_two, strong_link.detector)
        bounds = two_decoy_bounds(tallies, strong_link.source_two, strong_link.security)
        assert 0.0 <= bounds.s_z0_low
        assert bounds.s_z0_low + bounds.s_z1_low <= tallies.n_z_total + 1e-6
        assert 0.0 <= bounds.phi_z_up <= 0.5


class TestOneDecoyBounds:
    def test_error_free_vacuum_bound_is_two_delta(self):
        """No errors at all: the vacuum upper bound collapses to 2 delta."""
        source = make_source(1, misalignment_z=0.0, misalignment_x=0.0)
        tallies = asymptotic_tallies(1e-3, 1e12, source)
        bounds = one_decoy_bounds(tallies, source, SecurityParams())
        eps1 = SecurityParams().eps_sec / EPSILON_BUDGET[1]
        expected = 2.0 * hoeffding_delta(tallies.n_z_total, eps1)
        assert bounds.s_z0_up == pytest.approx(expected, rel=1e-12)

    def test_requires_no_vacuum_intensity(self):
        with pytest.raises(FiniteKeyError):
            one_decoy_bounds(TallySet(), make_source(2), SecurityParams())

    def test_all_zero_counts_abort(self):
        bounds = one_decoy_bounds(TallySet(), make_source(1), SecurityParams())
        assert bounds.aborted


class TestMonteCarloBracketing:
    """The analytical bounds must bracket the Monte Carlo ground truth (the
    sampler tags every detection with its pulse's photon number)."""

    @pytest.mark.parametrize("protocol", ["two", "one"])
    def test_bounds_bracket_truth(self, strong_link, protocol):
        source = strong_link.source_two if protocol == "two" else strong_link.source_one
        estimator = two_decoy_bounds if protocol == "two" else one_decoy_bounds
        fails_z1 = fails_z0 = fails_v = 0
        seeds = range(20)
        for seed in seeds:
            mc = monte_carlo_tallies(
                seed, strong_link.pass_geometry, strong_link.breakdowns,
                source, strong_link.detector, 20.0, thinning=1e4,
            )
            bounds = estimator(mc, source, strong_link.security)
            truth = mc.truth
            assert bounds.s_z1_low > 0, "test should operate in the usable regime"
            if bounds.s_z1_low > truth.s_z1:
                fails_z1 += 1
            if bounds.s_z0_low > truth.s_z0:
                fails_z0 += 1
            if not bounds.aborted and bounds.v_x1_up < truth.m_x1:
                fails_v += 1
        assert fails_z1 <= 1, f"s_z1 lower bound exceeded truth {fails_z1}/20 times"
        assert fails_z0 <= 1, f"s_z0 lower bound exceeded truth {fails_z0}/20 times"
        assert fails_v <= 1, f"v_x1 upper bound fell below truth {fails_v}/20 times"


def hand_bounds() -> tuple[DecoyBounds, TallySet]:
    bounds = DecoyBounds(
        s_z0_low=1000.0, s_z1_low=50000.0, phi_z_up=0.03, tau0=0.6, tau1=0.3,
        s_x1_low=2000.0, v_x1_up=60.0, aborted=False,
    )
    tallies = TallySet(n_z_mu=90000.0, n_z_nu=10000.0, m_z_mu=1800.0, m_z_nu=200.0)
    return bounds, tallies


class TestSecureKeyLength:
    def test_spreadsheet_oracle(self):
        """Independent arithmetic of the key formula, checked to the bit.

        l = s0 + s1 (1 - h(phi)) - f n h(Q) - 6 log2(21/eps_s) - log2(2/eps_c)
        """
        bounds, tallies = hand_bounds()
        security = SecurityParams(eps_sec=1e-9, eps_corr=1e-15, f_ec=1.16)
        result = secure_key_length(bounds, tallies, security, n_decoys=2)

        def h2(x):
            return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

        lam = 1.16 * 100000.0 * h2(0.02)
        expected = (
            1000.0 + 50000.0 * (1.0 - h2(0.03)) - lam
            - 6.0 * math.log2(21.0 / 1e-9) - math.log2(2.0 / 1e-15)
        )
        assert not result.aborted
        assert result.skl_bits == int(math.floor(expected))
        assert result.lambda_ec_bits == pytest.approx(lam, rel=1e-12)

    def test_zero_bounds_abort(self):
        bounds, tallies = hand_bounds()
        zero = DecoyBounds(
            s_z0_low=0.0, s_z1_low=0.0, phi_z_up=0.5, tau0=0.6, tau1=0.3,
            s_x1_low=0.0, v_x1_up=0.0, aborted=True,
        )
        result = secure_key_length(zero, tallies, SecurityParams(), 2)
        assert result.aborted and result.skl_bits == 0

    def test_relaxing_eps_sec_strictly_increases_length(self):
        bounds, tallies = hand_bounds()
        tight = secure_key_length(bounds, tallies, SecurityParams(eps_sec=1e-12), 2)
        loose = secure_key_length(bounds, tallies, SecurityParams(eps_sec=1e-6), 2)
        assert loose.diagnostics["l_real"] > tight.diagnostics["l_real"]

    def test_invalid_decoy_count(self):
        bounds, tallies = hand_bounds()
        with pytest.raises(FiniteKeyError):
            secure_key_length(bounds, tallies, SecurityParams(), 3)


class TestKeyLengthBehaviour:
    def make_block(self, n_pulses: float, detector: DetectorSpec | None = None) -> tuple:
        det = detector or DetectorSpec(
            efficiency=0.8, dark_count_rate_hz=100.0, dead_time_ns=30.0,
            background_rate_hz=10.0,
        )
        source = make_source(
            2, signal_intensity=0.5, decoy_intensity=0.1, p_mu=0.7, p_nu=0.2,
            p_z_alice=0.9, p_z_bob=0.9,
        )
        tallies = expected_tallies_fixed_eta(1e-3, n_pulses, source, det)
        return tallies, source

    def test_length_monotone_in_block_size(self):
        """Scaling all tallies geometrically never shrinks the key."""
        tallies, source = self.make_block(1e11)
        previous = -math.inf
        for factor in (1.0, 4.0, 16.0, 64.0, 256.0):
            result = skl_from_tallies(tallies.scaled(factor), source, SecurityParams(), 2)
            value = result.diagnostics["l_real"] if not result.aborted else 0.0
            assert value >= previous
            previous = value

    def test_length_anti_monotone_in_injected_errors(self):
        tallies, source = self.make_block(1e12)
        previous = math.inf
        for extra in (0.0, 0.005, 0.01, 0.02):
            bumped = TallySet(
                **{
                    name: getattr(tallies, name)
                    + (extra * getattr(tallies, name.replace("m_", "n_")) if name.startswith("m_") else 0.0)
                    for name in (
                        "n_z_mu", "n_z_nu", "n_z_vac", "n_x_mu", "n_x_nu", "n_x_vac",
                        "m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac",
                        "n_sent",
                    )
                }
            )
            result = skl_from_tallies(bumped, source, SecurityParams(), 2)
            value = result.diagnostics["l_real"] if not result.aborted else 0.0
            assert value <= previous
            previous = value

    def test_huge_phase_error_aborts(self):
        tallies, source = self.make_block(1e12)
        poisoned = TallySet(
            **{
                name: (
                    getattr(tallies, name.replace("m_x", "n_x")) * 0.5
                    if name.startswith("m_x")
                    else getattr(tallies, name)
                )
                for name in (
                    "n_z_mu", "n_z_nu", "n_z_vac", "n_x_mu", "n_x_nu", "n_x_vac",
                    "m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac",
                    "n_sent",
                )
            }
        )
        result = skl_from_tallies(poisoned, source, SecurityParams(), 2)
        assert result.aborted
        assert result.diagnostics["phi_z_up"] <= 0.5


class TestAsymptoticRate:
    def make_setup(self):
        det = DetectorSpec(
            efficiency=0.8, dark_count_rate_hz=10.0, dead_time_ns=0.0,
            background_rate_hz=0.0,
        )
        source = make_source(
            2, signal_intensity=0.5, decoy_intensity=0.05, p_mu=0.7, p_nu=0.2,
            p_z_alice=0.9, p_z_bob=0.9, misalignment_z=0.005, misalignment_x=0.005,
        )
        return det, source

    def test_zero_transmission(self):
        det, source = self.make_setup()
        assert asymptotic_skr(0.0, source, det, SecurityParams()) == 0.0

    def test_linear_scaling_regime(self):
        """skr(2 eta) / skr(eta) within [1.8, 2.2] for Y0 << eta << 1."""
        det, source = self.make_setup()
        security = SecurityParams()
        for eta in (1e-4, 1e-3):
            ratio = asymptotic_skr(2 * eta, source, det, security) / asymptotic_skr(
                eta, source, det, security
            )
            assert 1.8 <= ratio <= 2.2

    def test_finite_key_converges_to_asymptotic(self):
        """l(N)/N approaches the asymptotic rate from below; the gap falls
        within 5 percent from N = 1e14 (design threshold for this channel)."""
        det, source = self.make_setup()
        security = SecurityParams()
        eta = 1e-3
        r_inf = asymptotic_skr(eta, source, det, security)
        assert r_inf > 0
        ratios = []
        for n in (1e12, 1e13, 1e14, 1e15):
            tallies = expected_tallies_fixed_eta(eta, n, source, det)
            result = skl_from_tallies(tallies, source, security, 2)
            assert not result.aborted
            ratios.append(result.diagnostics["l_real"] / n / r_inf)
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        assert all(r <= 1.0 for r in ratios)
        assert ratios[-2] >= 0.95, f"gap at N=1e14 too large: {ratios}"
        assert ratios[-1] >= 0.95


def test_estimate_bounds_dispatch():
    src2, src1 = make_source(2), make_source(1)
    t = asymptotic_tallies(1e-3, 1e12, src2)
    assert estimate_bounds(t, src2, SecurityParams()).note == "two-decoy"
    t1 = asymptotic_tallies(1e-3, 1e12, src1)
    assert estimate_bounds(t1, src1, SecurityParams()).note == "one-decoy"


@pytest.mark.parametrize("source_decoys, n_decoys", [(2, 1), (1, 2)])
def test_skl_from_tallies_rejects_decoy_mismatch(source_decoys, n_decoys):
    """One protocol's bounds never meet the other's epsilon budget."""
    source = make_source(source_decoys)
    det = DetectorSpec(
        efficiency=0.8, dark_count_rate_hz=100.0, dead_time_ns=30.0, background_rate_hz=10.0
    )
    tallies = expected_tallies_fixed_eta(1e-3, 1e11, source, det)
    assert not skl_from_tallies(tallies, source, SecurityParams(), source_decoys).aborted
    with pytest.raises(FiniteKeyError, match="n_decoys"):
        skl_from_tallies(tallies, source, SecurityParams(), n_decoys)


def test_security_params_validation():
    with pytest.raises(FiniteKeyError):
        SecurityParams(eps_sec=0.0)
    with pytest.raises(FiniteKeyError):
        SecurityParams(eps_corr=1.5)
    with pytest.raises(FiniteKeyError):
        SecurityParams(f_ec=0.9)


@st.composite
def candidate_grids(draw):
    """Sources (one per row) crossed with channel blocks (eta, pulses; one
    per column) for one decoy count."""
    n_decoys = draw(st.sampled_from((1, 2)))
    sources = []
    for _ in range(draw(st.integers(1, 4))):
        mu = draw(st.floats(0.1, 1.0))
        p_mu = draw(st.floats(0.2, 0.95))
        p_nu = draw(st.floats(0.05, 0.95)) * (0.99 - p_mu) if n_decoys == 2 else 1.0 - p_mu
        p_z = draw(st.floats(0.3, 0.97))
        sources.append(make_source(
            n_decoys, signal_intensity=mu, decoy_intensity=mu * draw(st.floats(0.05, 0.9)),
            p_mu=p_mu, p_nu=p_nu, p_z_alice=p_z, p_z_bob=p_z,
        ))
    blocks = draw(st.lists(
        st.tuples(st.floats(-6.0, -1.0), st.floats(8.0, 13.0)), min_size=1, max_size=4
    ))
    dark = 10.0 ** draw(st.floats(0.0, 5.0))
    return n_decoys, sources, [(10.0**e, 10.0**n) for e, n in blocks], dark


@settings(deadline=None)
@given(candidate_grids())
def test_array_kernel_matches_scalar_path(grid):
    """skl_real_arrays over (rows, 1) intensity/probability columns equals
    skl_from_tallies element by element, and the bounds stay physical."""
    n_decoys, sources, blocks, dark = grid
    det = DetectorSpec(
        efficiency=0.8, dark_count_rate_hz=dark, dead_time_ns=30.0, background_rate_hz=10.0
    )
    security = SecurityParams()
    tallies = [
        [expected_tallies_fixed_eta(eta, n, src, det) for eta, n in blocks] for src in sources
    ]
    t = {
        name: np.array([[getattr(cell, name) for cell in row] for row in tallies])
        for name in TALLY_FIELDS
    }
    columns = [
        np.array([[getattr(src, attr)] for src in sources])
        for attr in ("signal_intensity", "decoy_intensity", "p_mu", "p_nu", "p_vac")
    ]
    l_real, aborted = skl_real_arrays(t, *columns, security, n_decoys)
    assert l_real.shape == aborted.shape == (len(sources), len(blocks))
    for i, src in enumerate(sources):
        for j in range(len(blocks)):
            ref = skl_from_tallies(tallies[i][j], src, security, n_decoys)
            assert aborted[i, j] == ref.aborted
            want = 0.0 if ref.aborted else ref.diagnostics["l_real"]
            assert l_real[i, j] == pytest.approx(want, rel=1e-9, abs=0)

    est = _estimate_arrays(t, *columns, security, n_decoys)
    n_z = t["n_z_mu"] + t["n_z_nu"] + t["n_z_vac"]
    assert np.all(est["s_z0_low"] + est["s_z1_low"] <= n_z * (1.0 + 1e-12))
    assert np.all((est["phi_up"] >= 0.0) & (est["phi_up"] <= 0.5))
