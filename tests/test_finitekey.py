"""Finite-key engine: primitive anchors, estimator validity via the
photon-number-tagged Monte Carlo oracle, and key-length behaviour."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satqkd.channel import (
    TALLY_FIELDS,
    DetectorSpec,
    SourceSpec,
    TallySet,
    expected_tallies,
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
from satqkd import optimizer
from satqkd.linkbudget import compute_breakdowns
from satqkd.optimizer import OptimizerConfig
from satqkd.scenario import load_bundled_scenario


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

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1e-3, 1.5, float("nan")])
    def test_hoeffding_eps_check(self, eps):
        with pytest.raises(FiniteKeyError, match="eps"):
            hoeffding_delta(np.array([1e6]), eps)

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
        result = secure_key_length(bounds, TallySet(), SecurityParams())
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
            if bounds.s_z1_low > truth["s_z1"]:
                fails_z1 += 1
            if bounds.s_z0_low > truth["s_z0"]:
                fails_z0 += 1
            if not bounds.aborted and bounds.v_x1_up < truth["m_x1"]:
                fails_v += 1
        assert fails_z1 <= 1, f"s_z1 lower bound exceeded truth {fails_z1}/20 times"
        assert fails_z0 <= 1, f"s_z0 lower bound exceeded truth {fails_z0}/20 times"
        assert fails_v <= 1, f"v_x1 upper bound fell below truth {fails_v}/20 times"


def hand_bounds() -> tuple[DecoyBounds, TallySet]:
    bounds = DecoyBounds(
        s_z0_low=1000.0, s_z1_low=50000.0, phi_z_up=0.03, tau0=0.6, tau1=0.3,
        s_x1_low=2000.0, v_x1_up=60.0, aborted=False, n_decoys=2,
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
        result = secure_key_length(bounds, tallies, security)

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
            s_x1_low=0.0, v_x1_up=0.0, aborted=True, n_decoys=2,
        )
        result = secure_key_length(zero, tallies, SecurityParams())
        assert result.aborted and result.skl_bits == 0

    def test_relaxing_eps_sec_strictly_increases_length(self):
        bounds, tallies = hand_bounds()
        tight = secure_key_length(bounds, tallies, SecurityParams(eps_sec=1e-12))
        loose = secure_key_length(bounds, tallies, SecurityParams(eps_sec=1e-6))
        assert loose.diagnostics["l_real"] > tight.diagnostics["l_real"]

    def test_invalid_decoy_count(self):
        bounds, _ = hand_bounds()
        with pytest.raises(FiniteKeyError, match="n_decoys"):
            replace(bounds, n_decoys=3)


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
            result = skl_from_tallies(tallies.scaled(factor), source, SecurityParams())
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
            result = skl_from_tallies(bumped, source, SecurityParams())
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
        result = skl_from_tallies(poisoned, source, SecurityParams())
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
            result = skl_from_tallies(tallies, source, security)
            assert not result.aborted
            ratios.append(result.diagnostics["l_real"] / n / r_inf)
        assert all(b > a for a, b in zip(ratios, ratios[1:])), ratios
        assert all(r <= 1.0 for r in ratios)
        assert ratios[-2] >= 0.95, f"gap at N=1e14 too large: {ratios}"
        assert ratios[-1] >= 0.95


def test_estimate_bounds_dispatch():
    src2, src1 = make_source(2), make_source(1)
    t = asymptotic_tallies(1e-3, 1e12, src2)
    assert estimate_bounds(t, src2, SecurityParams()).n_decoys == 2
    t1 = asymptotic_tallies(1e-3, 1e12, src1)
    assert estimate_bounds(t1, src1, SecurityParams()).n_decoys == 1


def test_security_params_validation():
    with pytest.raises(FiniteKeyError):
        SecurityParams(eps_sec=0.0)
    with pytest.raises(FiniteKeyError):
        SecurityParams(eps_corr=1.5)
    with pytest.raises(FiniteKeyError):
        SecurityParams(f_ec=0.9)


NON_FINITE_CALLS = [
    pytest.param(lambda: binary_entropy(math.nan), "binary_entropy argument", id="entropy-nan"),
    pytest.param(lambda: hoeffding_delta(-1.0, 0.1), "n must", id="hoeffding-negative"),
    pytest.param(lambda: hoeffding_delta(math.nan, 0.1), "n must", id="hoeffding-nan"),
    pytest.param(lambda: hoeffding_delta(math.inf, 0.1), "n must", id="hoeffding-inf"),
    pytest.param(lambda: emission_tau((0.5, 0.1), (math.nan, 0.3), 1), "probabilities", id="tau-nan-p"),
    pytest.param(lambda: emission_tau((math.nan, 0.1), (0.7, 0.3), 1), "intensities", id="tau-nan-k"),
    pytest.param(lambda: emission_tau((0.5, math.inf), (0.7, 0.3), 0), "intensities", id="tau-inf-k"),
    pytest.param(lambda: SecurityParams(f_ec=math.inf), "security.f_ec", id="f_ec-inf"),
]


@pytest.mark.parametrize("call, match", NON_FINITE_CALLS)
def test_public_functions_reject_non_finite_input(call, match):
    with pytest.raises(FiniteKeyError, match=match):
        call()


@pytest.mark.parametrize("owner, name, value", [
    ("bounds", "s_z1_low", math.nan),
    ("bounds", "s_z1_low", math.inf),
    ("bounds", "s_z0_low", math.nan),
    ("tallies", "n_z_mu", math.nan),
    ("tallies", "m_z_nu", math.inf),
])
def test_secure_key_length_rejects_non_finite_input(owner, name, value):
    """A non-finite bound or Z tally is named, never converted or floored."""
    bounds, tallies = hand_bounds()
    args = {"bounds": bounds, "tallies": tallies}
    args[owner] = replace(args[owner], **{name: value})
    with pytest.raises(FiniteKeyError, match=f"{owner}.{name} must be finite"):
        secure_key_length(args["bounds"], args["tallies"], SecurityParams())


@pytest.mark.parametrize("owner, name", [
    ("bounds", "s_z0_low"), ("bounds", "s_z1_low"),
    ("tallies", "n_z_mu"), ("tallies", "n_z_nu"), ("tallies", "m_z_mu"), ("tallies", "m_z_nu"),
])
def test_secure_key_length_rejects_negative_input(owner, name):
    """A negated bound or Z tally is named, never used: with hand_bounds(),
    m_z_mu = -1800 would lower Q_Z and lambda_EC with it, and give 41,023
    bits instead of 24,616."""
    bounds, tallies = hand_bounds()
    args = {"bounds": bounds, "tallies": tallies}
    value = -getattr(args[owner], name)
    args[owner] = replace(args[owner], **{name: value})
    with pytest.raises(FiniteKeyError, match=f"{owner}.{name} must be finite and non-negative, "
                                             f"got {value}"):
        secure_key_length(args["bounds"], args["tallies"], SecurityParams())


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
            ref = skl_from_tallies(tallies[i][j], src, security)
            assert aborted[i, j] == ref.aborted
            want = 0.0 if ref.aborted else ref.diagnostics["l_real"]
            assert l_real[i, j] == pytest.approx(want, rel=1e-9, abs=0)

    est = _estimate_arrays(t, *columns, security, n_decoys)
    n_z = t["n_z_mu"] + t["n_z_nu"] + t["n_z_vac"]
    assert np.all(est["s_z0_low"] + est["s_z1_low"] <= n_z * (1.0 + 1e-12))
    assert np.all((est["phi_up"] >= 0.0) & (est["phi_up"] <= 0.5))


def test_bounds_protocol_sets_the_epsilon_penalty():
    """The key length takes its epsilon budget from the bounds' protocol:
    6 log2(21/eps_sec) for two decoys (Lim et al. 2014) and 6 log2(19/eps_sec)
    for one (Rusca et al. 2018), so the same bounds as one-decoy gain exactly
    6 log2(21/19) bits."""
    scenario = load_bundled_scenario("snspd_pol_2decoy")
    pass_geometry = scenario.synth_pass()
    breakdowns = compute_breakdowns(
        pass_geometry, scenario.transmitter, scenario.receiver, scenario.atmosphere
    )
    tallies = expected_tallies(
        pass_geometry, breakdowns, scenario.source, scenario.detector,
        scenario.station.min_elevation_deg,
    )
    eps_sec = scenario.security.eps_sec
    bounds = two_decoy_bounds(tallies, scenario.source, scenario.security)
    assert bounds.n_decoys == 2
    two = secure_key_length(bounds, tallies, scenario.security)
    one = secure_key_length(replace(bounds, n_decoys=1), tallies, scenario.security)
    assert two.skl_bits > 0
    assert two.diagnostics["penalty_sec_bits"] == pytest.approx(6.0 * math.log2(21.0 / eps_sec), rel=1e-15)
    assert one.diagnostics["penalty_sec_bits"] == pytest.approx(6.0 * math.log2(19.0 / eps_sec), rel=1e-15)
    gain = one.diagnostics["l_real"] - two.diagnostics["l_real"]
    assert gain == pytest.approx(6.0 * math.log2(21.0 / 19.0), rel=1e-6)


# -- frozen expression-form reference of the array kernel ----------------------
# The kernel builds its intermediates in place; this is the same arithmetic
# written as plain expressions, one fresh array per operation.


def _ref_entropy(x):
    safe = np.clip(x, 1e-300, 1.0 - 1e-16)
    return np.where(
        (x <= 0.0) | (x >= 1.0), 0.0,
        -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe),
    )


def _ref_gamma(a, b, c, d, budget):
    ok = (b > 0.0) & (b < 1.0) & (c > 0.0) & (d > 0.0)
    b_s, c_s, d_s = np.where(ok, b, 0.25), np.where(ok, c, 1.0), np.where(ok, d, 1.0)
    inner = np.maximum((c_s + d_s) / (c_s * d_s * (1.0 - b_s) * b_s) * (budget / a) ** 2, 1.0)
    gamma = np.sqrt(
        (c_s + d_s) * (1.0 - b_s) * b_s / (c_s * d_s * np.log(2.0)) * np.log2(inner)
    )
    return np.where(ok, gamma, 0.0)


def _ref_basis(t, b, mu, nu, scale, tau0, tau1, eps1):
    n = t[f"n_{b}_mu"] + t[f"n_{b}_nu"] + t[f"n_{b}_vac"]
    m = t[f"m_{b}_mu"] + t[f"m_{b}_nu"] + t[f"m_{b}_vac"]
    d_n = np.sqrt(n / 2.0 * np.log(1.0 / eps1))
    d_m = np.sqrt(m / 2.0 * np.log(1.0 / eps1))
    s_mu, s_nu, s_vac = scale
    n_mu_up = s_mu * (t[f"n_{b}_mu"] + d_n)
    n_nu_low = np.maximum(s_nu * (t[f"n_{b}_nu"] - d_n), 0.0)
    m_mu_up = s_mu * (t[f"m_{b}_mu"] + d_m)
    m_nu_up = s_nu * (t[f"m_{b}_nu"] + d_m)
    denom = nu * (mu - nu)
    s0_up = 2.0 * (tau0 * np.minimum(m_mu_up, m_nu_up) + d_n)
    s0 = np.maximum(tau0 * (mu * n_nu_low - nu * n_mu_up) / (mu - nu), 0.0)
    s1 = tau1 * mu * (
        n_nu_low - (nu**2 / mu**2) * n_mu_up - ((mu**2 - nu**2) / mu**2) * (s0_up / tau0)
    ) / denom
    if s_vac is not None:
        s0 = np.maximum(tau0 * np.maximum(s_vac * (t[f"n_{b}_vac"] - d_n), 0.0), s0)
        s1 = np.maximum(tau1 * mu * (
            n_nu_low - s_vac * (t[f"n_{b}_vac"] + d_n) - (nu**2 / mu**2) * (n_mu_up - s0 / tau0)
        ) / denom, s1)
    v1 = None
    if b == "x":
        v1 = tau1 * (m_mu_up - np.maximum(s_nu * (t["m_x_nu"] - d_m), 0.0)) / (mu - nu)
        if s_vac is not None:
            v1 = np.minimum(
                tau1 * (m_nu_up - np.maximum(s_vac * (t["m_x_vac"] - d_m), 0.0)) / nu, v1
            )
    return n, m, s0, s1, v1


def reference_skl_real_arrays(t, mu, nu, p_mu, p_nu, p_vac, security, n_decoys):
    budget = EPSILON_BUDGET[n_decoys]
    intensities, probs = [mu, nu, 0.0][: n_decoys + 1], [p_mu, p_nu, p_vac][: n_decoys + 1]
    tau0 = emission_tau(intensities, probs, 0)
    tau1 = emission_tau(intensities, probs, 1)
    scale = (np.exp(mu) / p_mu, np.exp(nu) / p_nu, 1.0 / p_vac if n_decoys == 2 else None)
    n_z, m_z, s_z0, s_z1, _ = _ref_basis(t, "z", mu, nu, scale, tau0, tau1, security.eps_sec / budget)
    n_x, _, _, s_x1, v_x1 = _ref_basis(t, "x", mu, nu, scale, tau0, tau1, security.eps_sec / budget)
    usable = (s_z1 > 0.0) & (s_x1 > 0.0) & (n_z > 0.0)
    s_z0 = np.clip(s_z0, 0.0, n_z)
    s_z1 = np.clip(s_z1, 0.0, n_z - s_z0)
    s_x1 = np.clip(s_x1, 0.0, n_x)
    v_x1 = np.maximum(v_x1, 0.0)
    ratio = np.where(usable, v_x1 / np.where(s_x1 > 0.0, s_x1, 1.0), 1.0)
    phi = ratio + _ref_gamma(security.eps_sec, ratio, s_z1, s_x1, budget)
    aborted = ~usable | (phi > 0.5) | ~np.isfinite(phi)
    phi = np.clip(np.where(np.isfinite(phi), phi, 1.0), 0.0, 0.5)
    q_z = np.where(n_z > 0, m_z / np.maximum(n_z, 1e-300), 0.0)
    l_real = (
        s_z0 + s_z1 * (1.0 - _ref_entropy(phi)) - security.f_ec * n_z * _ref_entropy(q_z)
        - (6.0 * np.log2(budget / security.eps_sec) + np.log2(2.0 / security.eps_corr))
    )
    bounds = (s_z0, s_z1, s_x1, v_x1, phi)
    aborted = aborted | (l_real <= 0.0)
    return np.where(aborted, 0.0, l_real), aborted, bounds


def _same_bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_kernel_matches_reference(t, columns, security, n_decoys):
    """skl_real_arrays and the bounds under it on read-only inputs: the
    reference's bit patterns, and the inputs unchanged."""
    t = {name: np.array(value) for name, value in t.items()}
    columns = [np.array(c) for c in columns]
    before = {name: value.copy() for name, value in t.items()}
    for array in (*t.values(), *columns):
        array.setflags(write=False)
    l_real, aborted = skl_real_arrays(t, *columns, security, n_decoys)
    want, want_aborted, want_bounds = reference_skl_real_arrays(t, *columns, security, n_decoys)
    assert l_real.shape == want.shape
    assert _same_bits(l_real, want)
    assert np.array_equal(aborted, want_aborted)
    est = _estimate_arrays(t, *columns, security, n_decoys)
    for name, value in zip(("s_z0_low", "s_z1_low", "s_x1_low", "v_x1_up", "phi_up"), want_bounds):
        assert _same_bits(est[name], value), name
    for name, value in t.items():
        assert np.array_equal(value, before[name])


KERNEL_COLUMNS = ("signal_intensity", "decoy_intensity", "p_mu", "p_nu", "p_vac")


def grid_case(grid):
    """(n_decoys, tallies, columns) of a candidate grid: the expected
    tallies of each source (row) on each channel block (column)."""
    n_decoys, sources, blocks, dark = grid
    det = DetectorSpec(
        efficiency=0.8, dark_count_rate_hz=dark, dead_time_ns=30.0, background_rate_hz=10.0
    )
    tallies = [
        [expected_tallies_fixed_eta(eta, n, src, det) for eta, n in blocks] for src in sources
    ]
    t = {
        name: np.array([[getattr(cell, name) for cell in row] for row in tallies])
        for name in TALLY_FIELDS
    }
    columns = [np.array([[getattr(src, attr)] for src in sources]) for attr in KERNEL_COLUMNS]
    return n_decoys, t, columns


def tally_case(n_decoys, **counts):
    """(n_decoys, tallies, columns) of one block of the given counts, every
    other field 0, for make_source(n_decoys)."""
    source = make_source(n_decoys)
    t = {name: np.array([[counts.get(name, 0.0)]]) for name in TALLY_FIELDS}
    return n_decoys, t, [np.array([[getattr(source, attr)]]) for attr in KERNEL_COLUMNS]


# Boundary blocks of the kernel's clips, each checked by
# test_boundary_tallies_reach_their_edges. FEW: n_z > 0 with s_z1 <= 0.
# ROUND: round clicks and errors; their X errors at HALF_ERRORS (one decoy)
# give phi exactly 0.5, at HIGH_ERRORS (two decoys) a phi above it, and
# 1e25 times them gamma 0 and, with two decoys, s_z1 clipped at n_z - s_z0.
# X_FEW: ROUND's Z counts and few X clicks, no X errors, so s_z1 > 0 but
# s_x1 <= 0: only the X check aborts it.
FEW = dict(n_z_mu=40.0, n_z_nu=6.0, n_x_mu=10.0, n_x_nu=2.0, m_z_mu=1.0, m_x_mu=1.0)
ROUND = dict(n_z_mu=4e6, n_z_nu=6e5, n_z_vac=2e3, n_x_mu=1e6, n_x_nu=1.5e5, n_x_vac=5e2,
             m_z_mu=4e4, m_z_nu=6e3, m_z_vac=1e3, m_x_mu=1e4, m_x_nu=1.5e3, m_x_vac=2.5e2)
ONE_DECOY_ROUND = {name: count for name, count in ROUND.items() if not name.endswith("vac")}
X_FEW = {**{name: count for name, count in ROUND.items() if name[2] == "z"},
         "n_x_mu": 10.0, "n_x_nu": 2.0}
HALF_ERRORS = dict(m_x_mu=115079.03083652184, m_x_nu=17261.854625478278)
HIGH_ERRORS = dict(m_x_mu=5e5, m_x_nu=7.5e4, m_x_vac=2.5e2)
BOUNDARY_CASES = {
    "zero_1": tally_case(1),
    "zero_2": tally_case(2),
    "few_1": tally_case(1, **FEW),
    "few_2": tally_case(2, **FEW, n_z_vac=1.0),
    "phi_half": tally_case(1, **{**ONE_DECOY_ROUND, **HALF_ERRORS}),
    "phi_above": tally_case(2, **{**ROUND, **HIGH_ERRORS}),
    "huge_2": tally_case(2, **{name: 1e25 * count for name, count in ROUND.items()}),
    "huge_1": tally_case(1, **{name: 1e25 * count for name, count in ONE_DECOY_ROUND.items()}),
    "x_few_2": tally_case(2, **X_FEW),
    "x_few_1": tally_case(1, **{name: count for name, count in X_FEW.items() if not name.endswith("vac")}),
}


def test_boundary_tallies_reach_their_edges():
    """Each boundary block reaches the clip edge it is named for."""
    est = {name: {key: np.ravel(value)[0] for key, value in
                  _estimate_arrays(t, *columns, SecurityParams(), n_decoys).items()
                  if value is not None}
           for name, (n_decoys, t, columns) in BOUNDARY_CASES.items()}
    for name in ("zero_1", "zero_2"):
        assert est[name]["n_z"] == 0.0 and est[name]["aborted"]
    for name in ("few_1", "few_2"):
        assert est[name]["n_z"] > 0.0 and est[name]["s_z1_low"] == 0.0 and est[name]["aborted"]
    assert est["phi_half"]["phi_up"] == 0.5 and not est["phi_half"]["aborted"]
    assert est["phi_above"]["phi_up"] == 0.5 and est["phi_above"]["aborted"]
    for name in ("huge_1", "huge_2"):
        assert est[name]["phi_up"] == est[name]["v_x1_up"] / est[name]["s_x1_low"]  # gamma 0
    assert est["huge_2"]["s_z1_low"] == est["huge_2"]["n_z"] - est["huge_2"]["s_z0_low"]
    for name in ("x_few_1", "x_few_2"):
        assert est[name]["s_z1_low"] > 0.0 and est[name]["s_x1_low"] == 0.0 and est[name]["aborted"]


@settings(deadline=None)
@given(candidate_grids().map(grid_case))
@example(BOUNDARY_CASES["zero_1"])
@example(BOUNDARY_CASES["zero_2"])
@example(BOUNDARY_CASES["few_1"])
@example(BOUNDARY_CASES["few_2"])
@example(BOUNDARY_CASES["phi_half"])
@example(BOUNDARY_CASES["phi_above"])
@example(BOUNDARY_CASES["huge_1"])
@example(BOUNDARY_CASES["huge_2"])
@example(BOUNDARY_CASES["x_few_1"])
@example(BOUNDARY_CASES["x_few_2"])
def test_in_place_kernel_matches_expression_form(case):
    n_decoys, t, columns = case
    _assert_kernel_matches_reference(t, columns, SecurityParams(), n_decoys)


@pytest.mark.parametrize("name", ["snspd_pol_2decoy", "snspd_pol_1decoy"])
def test_in_place_kernel_matches_expression_form_on_a_coarse_chunk(name, monkeypatch):
    """The first coarse chunk of a bundled pass: 192 rows over the cut grid,
    many of them aborted."""
    scenario = load_bundled_scenario(name)
    channel = optimizer._PassChannel(
        scenario.synth_pass(), scenario.hardware(), scenario.security, scenario.n_decoys
    )
    captured = []
    monkeypatch.setattr(optimizer, "skl_real_arrays", lambda *args: captured.append(args) or
                        skl_real_arrays(*args))
    blocks = optimizer._coarse_blocks(OptimizerConfig(), scenario.n_decoys)
    channel.skl_chunk(blocks[:optimizer.CHUNK_BLOCKS], np.linspace(*optimizer.P_Z_BOX, 8))
    (t, *columns, security, n_decoys), = captured
    assert t["n_z_mu"].shape == (192, len(channel.cuts))
    _assert_kernel_matches_reference(t, columns, security, n_decoys)
