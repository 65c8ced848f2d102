"""Link budget terms against published anchors and frozen hand calculations."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd.linkbudget import (
    TERM_FIELDS,
    AtmosphereModel,
    LinkBudgetError,
    ReceiverSpec,
    TransmitterSpec,
    atmospheric_loss,
    background_click_rate,
    collection_upper_bound,
    compute_breakdowns,
    free_space_loss,
    ideal_tx_antenna_gain,
    load_elevation_loss_table,
    rx_area_gain,
    tx_antenna_gain,
)
from satqkd.orbit import GroundStation, OrbitSpec, PassGeometry, synth_pass

REFERENCE_TX_1550 = TransmitterSpec(aperture_diam_m=0.085, wavelength_nm=1550.0)
REFERENCE_TX_850 = TransmitterSpec(aperture_diam_m=0.085, wavelength_nm=850.0)
REFERENCE_RX_FIBER = ReceiverSpec(
    primary_diam_m=0.8, obscuration_diam_m=0.3,
    coupling_mode="fiber_with_AO", coupling_loss_db=5.0,
)
REFERENCE_ATM = AtmosphereModel(
    zenith_loss_db={1550.0: 0.4, 850.0: 0.9},
    sky_radiance_w_m2_sr_nm={1550.0: 0.01, 850.0: 0.04},
)

# Frozen independent evaluation of the assembled budget at culmination of
# the reference pass (h = 567 km, peak 80 deg, fibre-coupled receiver).
SNSPD_CULMINATION_TOTAL_DB = 37.011405045


class TestTxAntennaGain:
    def test_gain_anchor_1550(self):
        assert tx_antenna_gain(REFERENCE_TX_1550) == pytest.approx(102.2, abs=0.3)

    def test_gain_anchor_850(self):
        assert tx_antenna_gain(REFERENCE_TX_850) == pytest.approx(107.5, abs=0.3)

    def test_wavelength_gain_difference(self):
        """Fixed terminal size gains 5.2 dB moving from 1550 to 850 nm."""
        diff = tx_antenna_gain(REFERENCE_TX_850) - tx_antenna_gain(REFERENCE_TX_1550)
        assert diff == pytest.approx(5.2, abs=0.05)
        assert diff == pytest.approx(20.0 * math.log10(1550.0 / 850.0), abs=1e-9)

    def test_ideal_gain_reduction(self):
        """Unity beam-quality and truncation factors give (pi D / lambda)^2."""
        ideal = ideal_tx_antenna_gain(0.085, 1550.0)
        expected = 10.0 * math.log10((math.pi * 0.085 / 1550e-9) ** 2)
        assert ideal == pytest.approx(expected, abs=1e-12)


class TestFreeSpaceLoss:
    def test_reference_value(self):
        """1000 km at 1550 nm -> 258.18 dB."""
        assert free_space_loss(1000.0, 1550.0) == pytest.approx(258.18, abs=0.01)

    def test_doubling_distance(self):
        delta = free_space_loss(2000.0, 1550.0) - free_space_loss(1000.0, 1550.0)
        assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)

    def test_range_ratio(self):
        """574 vs 1341 km differ by 20 log10(1341/574) = 7.370 dB."""
        delta = free_space_loss(1341.0, 1550.0) - free_space_loss(574.0, 1550.0)
        assert delta == pytest.approx(7.3703, abs=1e-4)

    def test_invalid_range(self):
        with pytest.raises(LinkBudgetError):
            free_space_loss(0.0, 1550.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_invalid_range_anywhere_in_array(self, bad):
        with pytest.raises(LinkBudgetError, match="slant_range_km"):
            free_space_loss([567.0, bad, 800.0], 1550.0)


class TestAtmosphericLoss:
    def test_zenith_identity(self):
        assert atmospheric_loss(90.0, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_thirty_degrees_doubles(self):
        assert atmospheric_loss(30.0, 0.4) == pytest.approx(0.8, abs=1e-12)

    def test_twenty_degrees(self):
        """0.4 dB zenith loss becomes 1.1695 dB at 20 degrees."""
        assert atmospheric_loss(20.0, 0.4) == pytest.approx(1.1695, abs=1e-3)

    def test_invalid_elevation(self):
        with pytest.raises(LinkBudgetError):
            atmospheric_loss(0.0, 0.4)
        with pytest.raises(LinkBudgetError):
            atmospheric_loss(-5.0, 0.4)

    @pytest.mark.parametrize("bad", [0.0, 95.0, float("nan")])
    def test_invalid_elevation_anywhere_in_array(self, bad):
        with pytest.raises(LinkBudgetError, match="elevation_deg"):
            atmospheric_loss([45.0, bad, 60.0], 0.4)


def one_sample_pass(slant_range_km):
    """A pass of one sample at zenith and the given slant range."""
    samples = np.rec.fromarrays(
        [[0.0], [90.0], [slant_range_km]], names=["t_s", "elevation_deg", "slant_range_km"]
    )
    return PassGeometry(samples=samples, sample_dt_s=1.0)


@pytest.fixture(scope="module")
def reference_pass():
    return synth_pass(OrbitSpec(567.0), GroundStation(20.0, 80.0))


@pytest.fixture(scope="module")
def reference_breakdowns(reference_pass):
    return compute_breakdowns(reference_pass, REFERENCE_TX_1550, REFERENCE_RX_FIBER, REFERENCE_ATM)


class TestEndToEnd:
    def test_breakdown_additivity(self, reference_breakdowns):
        for brk in reference_breakdowns:
            assert abs(brk.total_db - sum(brk[name] for name in TERM_FIELDS)) < 1e-9
            assert brk.eta == pytest.approx(10.0 ** (-brk.total_db / 10.0), rel=1e-12)

    def test_collection_upper_bound(self, reference_pass, reference_breakdowns):
        """No sample may beat the far-field bound A_tx A_rx / (L lambda)^2."""
        for sample, brk in zip(reference_pass.samples, reference_breakdowns):
            bound = collection_upper_bound(
                REFERENCE_TX_1550, REFERENCE_RX_FIBER, sample.slant_range_km
            )
            assert brk.eta <= bound

    def test_total_monotone_in_elevation(self, reference_pass, reference_breakdowns):
        pairs = sorted(
            zip(reference_pass.samples.elevation_deg, [b.total_db for b in reference_breakdowns])
        )
        for (_, db_low), (_, db_high) in zip(pairs, pairs[1:]):
            assert db_high <= db_low + 1e-12

    def test_culmination_regression_anchor(self, reference_pass, reference_breakdowns):
        """Frozen spreadsheet-style evaluation of the assembled terms."""
        idx = len(reference_pass.samples) // 2
        assert reference_pass.samples[idx].t_s == 0.0
        brk = reference_breakdowns[idx]
        assert brk.total_db == pytest.approx(SNSPD_CULMINATION_TOTAL_DB, abs=1e-6)
        assert 35.0 <= brk.total_db <= 50.0

    def test_loss_composition_structure(self):
        """Geometric part equals G_tx * A_rx / (4 pi L^2) exactly."""
        (brk,) = compute_breakdowns(
            one_sample_pass(567.0), REFERENCE_TX_1550, REFERENCE_RX_FIBER, REFERENCE_ATM
        )
        g_tx = 10.0 ** (tx_antenna_gain(REFERENCE_TX_1550) / 10.0)
        eta_geom = g_tx * REFERENCE_RX_FIBER.collecting_area_m2 / (4.0 * math.pi * (567e3) ** 2)
        geom_db = -(brk.tx_gain_db + brk.free_space_loss_db + brk.rx_area_gain_db)
        assert 10.0 ** (geom_db / 10.0) == pytest.approx(eta_geom, rel=1e-12)

    def test_near_field_rejected(self):
        with pytest.raises(LinkBudgetError, match="near-field"):
            compute_breakdowns(
                one_sample_pass(0.5), REFERENCE_TX_1550, REFERENCE_RX_FIBER, REFERENCE_ATM
            )


class TestBackgroundClickRate:
    def test_dark_sky(self):
        atm = AtmosphereModel({850.0: 0.9}, {850.0: 0.0})
        rx = ReceiverSpec(
            primary_diam_m=0.8, obscuration_diam_m=0.3,
            coupling_mode="free_space", coupling_loss_db=0.0,
        )
        assert background_click_rate(rx, atm, 850.0, 0.58) == 0.0

    def test_bandwidth_linearity(self):
        rx_narrow = ReceiverSpec(
            primary_diam_m=0.8, obscuration_diam_m=0.3, coupling_mode="free_space",
            coupling_loss_db=0.0, filter_bandwidth_nm=5.0,
        )
        rx_wide = ReceiverSpec(
            primary_diam_m=0.8, obscuration_diam_m=0.3, coupling_mode="free_space",
            coupling_loss_db=0.0, filter_bandwidth_nm=10.0,
        )
        low = background_click_rate(rx_narrow, REFERENCE_ATM, 850.0, 0.58)
        high = background_click_rate(rx_wide, REFERENCE_ATM, 850.0, 0.58)
        assert high == pytest.approx(2.0 * low, rel=1e-12)

    def test_free_space_hand_calculation(self):
        """Frozen oracle: full-Moon radiance through the 6.25 urad field stop.

        P = L A_rx pi theta^2 dLambda 10^(-0.1); clicks = P lambda/(h c) eta.
        """
        rx = ReceiverSpec(
            primary_diam_m=0.8, obscuration_diam_m=0.3, coupling_mode="free_space",
            coupling_loss_db=0.0, path_loss_db=1.0,
        )
        rate = background_click_rate(rx, REFERENCE_ATM, 850.0, 0.58)
        assert rate == pytest.approx(2.09008e7, rel=1e-4)

    def test_fiber_hand_calculation(self):
        """Frozen oracle: single-mode etendue coupling at 1550 nm."""
        rate = background_click_rate(REFERENCE_RX_FIBER, REFERENCE_ATM, 1550.0, 0.9)
        assert rate == pytest.approx(9.44820e5, rel=1e-4)


class TestElevationTable:
    def test_override_interpolation(self, tmp_path):
        path = tmp_path / "atm.txt"
        path.write_text("# elevation_deg loss_db\n20 2.0\n40 1.2\n90 0.5\n")
        table = load_elevation_loss_table(path)
        atm = AtmosphereModel({1550.0: 0.4}, {1550.0: 0.01}, elevation_table=table)
        assert atm.loss_at(20.0, 1550.0) == pytest.approx(2.0)
        assert atm.loss_at(30.0, 1550.0) == pytest.approx(1.6)
        assert atm.loss_at(90.0, 1550.0) == pytest.approx(0.5)
        assert atm.loss_at(10.0, 1550.0) == pytest.approx(2.0)

    def test_malformed_tables_rejected(self, tmp_path):
        bad_columns = tmp_path / "bad1.txt"
        bad_columns.write_text("20 2.0 7\n40 1.2 7\n")
        with pytest.raises(LinkBudgetError, match="two columns"):
            load_elevation_loss_table(bad_columns)
        not_increasing = tmp_path / "bad2.txt"
        not_increasing.write_text("40 1.2\n20 2.0\n")
        with pytest.raises(LinkBudgetError, match="increasing"):
            load_elevation_loss_table(not_increasing)

    @pytest.mark.parametrize("row", ["nan 1.0", "40 inf", "-inf 1.0", "40 nan", "abc 1.0", "40 abc",
                                     "40 -0.5", "0 1.0", "95 1.0"])
    def test_bad_cells_rejected_naming_line(self, tmp_path, row):
        """A NaN, an infinity or an unparsable cell fails closed, naming the
        file and line, instead of loading a table that interpolates to NaN."""
        path = tmp_path / "atm.txt"
        path.write_text(f"# elevation_deg loss_db\n20 2.0\n{row}\n90 0.5\n")
        with pytest.raises(LinkBudgetError, match=re.escape(f"{path}:3:")):
            load_elevation_loss_table(path)


def test_wavelength_gain_relation_exact():
    """G(l1) - G(l2) = 20 log10(l2/l1) at fixed aperture and beam quality."""
    for l1, l2 in ((1550.0, 850.0), (850.0, 1064.0), (1550.0, 1064.0)):
        tx1 = TransmitterSpec(aperture_diam_m=0.085, wavelength_nm=l1)
        tx2 = TransmitterSpec(aperture_diam_m=0.085, wavelength_nm=l2)
        assert tx_antenna_gain(tx1) - tx_antenna_gain(tx2) == pytest.approx(
            20.0 * math.log10(l2 / l1), abs=1e-9
        )


def test_rx_gain_is_annular():
    rx = REFERENCE_RX_FIBER
    area = math.pi / 4.0 * (0.8**2 - 0.3**2)
    expected = 10.0 * math.log10(4.0 * math.pi * area / (1550e-9) ** 2)
    assert rx_area_gain(rx, 1550.0) == pytest.approx(expected, abs=1e-12)


@st.composite
def pass_windows(draw):
    altitude = draw(st.floats(300.0, 2000.0))
    cut = draw(st.floats(5.0, 60.0))
    peak = draw(st.floats(cut + 1.0, 90.0))
    dt = draw(st.floats(0.05, 30.0))
    return OrbitSpec(altitude), GroundStation(cut, peak), dt


@settings(deadline=None)
@given(pass_windows())
def test_pass_and_budget_arrays(window):
    """Record-array invariants of synth_pass and compute_breakdowns."""
    orbit, station, dt = window
    pass_geometry = synth_pass(orbit, station, dt)
    samples = pass_geometry.samples
    t = samples.t_s
    assert np.array_equal(t, -t[::-1])
    assert np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0)
    tol = 1e-9
    assert samples.elevation_deg.min() >= station.min_elevation_deg - tol
    assert samples.elevation_deg.max() <= station.max_elevation_deg + tol
    ranges = samples.slant_range_km
    mid = len(t) // 2
    assert t[mid] == 0.0
    assert ranges[mid] == ranges.min()

    budget = compute_breakdowns(pass_geometry, REFERENCE_TX_1550, REFERENCE_RX_FIBER, REFERENCE_ATM)
    assert len(budget) == len(samples)
    terms = sum(budget[name] for name in TERM_FIELDS)
    np.testing.assert_allclose(budget.total_db, terms, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(budget.eta, 10.0 ** (-budget.total_db / 10.0), rtol=1e-12)
    bound = collection_upper_bound(REFERENCE_TX_1550, REFERENCE_RX_FIBER, ranges)
    assert np.all(budget.eta <= bound)
