"""Detection and error statistics of a decoy-state downlink over a pass.

Expected-value tallies use the standard weak-coherent-pulse channel model:
a pulse of intensity k clicks with probability D_k = 1 - (1 - Y0) e^(-k eta)
and errs with probability e_k = (Y0/2 + e_mis (1 - e^(-k eta))) / D_k,
where eta includes the detector efficiency and Y0 collects dark and
background counts. These expressions live in `_wcp` alone; `presift_rows`
is the single array kernel over eta that every expected-value path (the
pass tallies, the fixed-eta block, the optimizer's per-cut sums and the
asymptotic rate) derives from.

A seeded count-level Monte Carlo sampler with true photon-number
bookkeeping serves as the validation oracle: exact multinomial splits over
photon-number cells n = 0, n = 1 and a tail n >= 2, then binomial clicks,
dead-time survival and errors, at a cost that does not grow with pulses.
It differs from the analytic model in one place: a pulse whose background
fired errs half the time whatever its photons did, so its mean error count
carries Y0/2 + (1 - Y0) e_mis (1 - e^(-k eta)) per pulse where e_k D_k has
Y0/2 + e_mis (1 - e^(-k eta)). The analytic signal errors are high by the
relative amount Y0, 9.8e-8 to 3.0e-6 on the bundled scenarios.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbit import PassGeometry

# Detected (n) and erroneous (m) counts per basis and intensity (mu, nu,
# vac), in the row order of sifted_rows.
TALLY_FIELDS = (
    "n_z_mu", "n_z_nu", "n_z_vac", "n_x_mu", "n_x_nu", "n_x_vac",
    "m_z_mu", "m_z_nu", "m_z_vac", "m_x_mu", "m_x_nu", "m_x_vac",
)
# Monte Carlo ground truth: detections (s) and errors (m) per basis, tagged
# with the photon number n = 0 or 1 the emitting pulse actually carried.
TRUTH_FIELDS = ("s_z0", "s_z1", "s_x0", "s_x1", "m_z0", "m_z1", "m_x0", "m_x1")


class ChannelError(ValueError):
    """Raised for invalid detector or source configurations."""


@dataclass(frozen=True)
class DetectorSpec:
    """Receiver detection system; rates are per detector.

    background_rate_hz holds the measured (or assumed) sky-background click
    rate of the deployed system, not the radiometric estimate from
    linkbudget.background_click_rate.
    """

    efficiency: float
    dark_count_rate_hz: float
    dead_time_ns: float
    background_rate_hz: float
    n_detectors: int = 1
    gate_width_ns: float | None = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ChannelError(f"detector.efficiency must be in (0, 1], got {self.efficiency}")
        for name in ("dark_count_rate_hz", "dead_time_ns", "background_rate_hz"):
            if not getattr(self, name) >= 0:
                raise ChannelError(f"detector.{name} must be >= 0, got {getattr(self, name)}")
        if self.n_detectors < 1:
            raise ChannelError(f"detector.n_detectors must be >= 1, got {self.n_detectors}")
        if self.gate_width_ns is not None and not self.gate_width_ns > 0:
            raise ChannelError(f"detector.gate_width_ns must be > 0, got {self.gate_width_ns}")


@dataclass(frozen=True)
class SourceSpec:
    """Transmitter protocol parameters of the decoy-state source."""

    pulse_rate_hz: float
    signal_intensity: float
    decoy_intensity: float
    p_mu: float
    p_nu: float
    p_z_alice: float
    p_z_bob: float
    vacuum_included: bool = True
    misalignment_z: float = 0.01
    misalignment_x: float = 0.01

    def __post_init__(self) -> None:
        if not self.pulse_rate_hz > 0:
            raise ChannelError(f"source.pulse_rate_hz must be > 0, got {self.pulse_rate_hz}")
        if not 0.0 < self.decoy_intensity < self.signal_intensity:
            raise ChannelError(
                "source intensities must satisfy 0 < decoy_intensity < signal_intensity, got "
                f"(mu={self.signal_intensity}, nu={self.decoy_intensity})"
            )
        for name in ("p_mu", "p_nu", "p_z_alice", "p_z_bob"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ChannelError(f"source.{name} must be in (0, 1), got {value}")
        total = self.p_mu + self.p_nu
        if self.vacuum_included:
            if total >= 1.0:
                raise ChannelError(
                    f"source.p_mu + source.p_nu must be < 1 with a vacuum intensity, got {total}"
                )
        elif abs(total - 1.0) > 1e-9:
            raise ChannelError(
                f"source.p_mu + source.p_nu must equal 1 without a vacuum intensity, got {total}"
            )
        for name in ("misalignment_z", "misalignment_x"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ChannelError(f"source.{name} must be in [0, 0.5), got {value}")

    @property
    def p_vac(self) -> float:
        return 1.0 - self.p_mu - self.p_nu if self.vacuum_included else 0.0

    def intensities(self) -> dict[str, float]:
        out = {"mu": self.signal_intensity, "nu": self.decoy_intensity}
        if self.vacuum_included:
            out["vac"] = 0.0
        return out

    def probabilities(self) -> dict[str, float]:
        out = {"mu": self.p_mu, "nu": self.p_nu}
        if self.vacuum_included:
            out["vac"] = self.p_vac
        return out


@dataclass(frozen=True)
class TallySet:
    """Detected (n) and erroneous (m) counts per intensity and basis.

    Expected-value mode stores reals; Monte Carlo mode stores integers and
    attaches the photon-number ground truth, TRUTH_FIELDS mapped to counts.
    """

    n_z_mu: float = 0.0
    n_z_nu: float = 0.0
    n_z_vac: float = 0.0
    n_x_mu: float = 0.0
    n_x_nu: float = 0.0
    n_x_vac: float = 0.0
    m_z_mu: float = 0.0
    m_z_nu: float = 0.0
    m_z_vac: float = 0.0
    m_x_mu: float = 0.0
    m_x_nu: float = 0.0
    m_x_vac: float = 0.0
    n_sent: float = 0.0
    truth: dict[str, int] | None = None

    @property
    def n_z_total(self) -> float:
        return self.n_z_mu + self.n_z_nu + self.n_z_vac

    @property
    def m_z_total(self) -> float:
        return self.m_z_mu + self.m_z_nu + self.m_z_vac

    def scaled(self, factor: float) -> "TallySet":
        """All counts multiplied by factor (truth dropped)."""
        values = {name: getattr(self, name) * factor for name in TALLY_FIELDS + ("n_sent",)}
        return TallySet(**values)


def background_yield(det: DetectorSpec, pulse_rate_hz: float) -> float:
    """Noise click probability per gated pulse.

    Y0 = n_detectors * (dark_rate + background_rate) * gate_width, clamped
    to [0, 1]. When no gate width is configured the reciprocal pulse rate
    acts as the gate.
    """
    if det.gate_width_ns is not None:
        gate_s = det.gate_width_ns * 1e-9
    else:
        if not pulse_rate_hz > 0:
            raise ChannelError(f"pulse_rate_hz must be > 0, got {pulse_rate_hz}")
        gate_s = 1.0 / pulse_rate_hz
    y0 = det.n_detectors * (det.dark_count_rate_hz + det.background_rate_hz) * gate_s
    return min(1.0, y0)


def _wcp(k, eta_total, y0, e_mis_z, e_mis_x):
    """Click probability D_k = 1 - (1 - Y0) e^(-k eta) of an intensity-k
    pulse and its Z/X error probabilities Y0/2 + e_mis (1 - e^(-k eta));
    with equal misalignments the X errors are the Z error array itself."""
    attenuation = np.exp(-k * eta_total)
    signal = 1.0 - attenuation
    err_z = 0.5 * y0 + e_mis_z * signal
    err_x = err_z if e_mis_x == e_mis_z else 0.5 * y0 + e_mis_x * signal
    return 1.0 - (1.0 - y0) * attenuation, err_z, err_x


def one_photon(eta_total, y0: float, e_mis: float) -> tuple[np.ndarray, np.ndarray]:
    """Click probability y1 = 1 - (1 - Y0)(1 - eta) of a one-photon pulse
    and its error rate e1 = (Y0/2 + e_mis (1 - Y0) eta) / y1, 0.5 where y1
    is 0: the Monte Carlo sampler's n = 1 cell, whose errors are at most the
    Y0/2 + e_mis eta of _wcp's n = 1 term (see the module docstring)."""
    eta = np.asarray(eta_total, dtype=float)
    y1 = 1.0 - (1.0 - y0) * (1.0 - eta)
    errors = 0.5 * y0 + e_mis * (1.0 - y0) * eta
    return y1, np.divide(errors, y1, out=np.full(eta.shape, 0.5), where=y1 > 0.0)


def pulse_gain(k: float, eta_total: float, y0: float):
    """Click probability of an intensity-k pulse: 1 - (1 - Y0) e^(-k eta)."""
    return _wcp(k, eta_total, y0, 0.0, 0.0)[0]


def pulse_qber(k: float, eta_total: float, y0: float, e_mis: float):
    """Error fraction of intensity-k clicks.

    e_k = (Y0/2 + e_mis (1 - e^(-k eta))) / D_k. Undefined for D_k = 0.
    """
    d_k, err, _ = _wcp(k, eta_total, y0, e_mis, e_mis)
    if np.any(np.asarray(d_k) <= 0.0):
        raise ChannelError("pulse_qber undefined: pulse gain is zero")
    return err / d_k


def presift_rows(eta, mu, nu, p_mu, p_nu, p_vac, source: SourceSpec, det: DetectorSpec):
    """Per-pulse click and error probabilities of the (mu, nu, vac) intensities.

    eta is the total transmission (detector efficiency included), of any
    shape. mu and nu are scalars or arrays of one shape, the three
    probabilities too, and the two shapes broadcast (so (1,) intensities
    against (rows,) probabilities take each e^(-k eta) once); their axes
    come before eta's. The pulse rate and misalignments are the source's,
    Y0 and the dead time the detector's.

    Returns (clicks, errors_z, errors_x, f_dead). The first three carry a
    leading axis over (mu, nu, vac) and hold p_k D_k and the per-basis
    p_k (Y0/2 + e_mis (1 - e^(-k eta))) before basis sifting; f_dead =
    1 / (1 + R tau) with R the pulse rate times the mean click probability.
    With equal misalignments errors_x is the errors_z array itself, so
    callers must not write into the returned rows.
    """
    eta = np.asarray(eta, dtype=float)
    k = np.array([mu, nu, 0.0 * mu])  # the vacuum intensity, shaped like mu
    p = np.array([p_mu, p_nu, p_vac])
    k, p = (x.reshape(x.shape + (1,) * eta.ndim) for x in (k, p))
    y0 = background_yield(det, source.pulse_rate_hz)
    gain, err_z, err_x = _wcp(k, eta, y0, source.misalignment_z, source.misalignment_x)
    clicks, errors_z = p * gain, p * err_z
    f_dead = 1.0 / (1.0 + source.pulse_rate_hz * clicks.sum(axis=0) * det.dead_time_ns * 1e-9)
    return clicks, errors_z, errors_z if err_x is err_z else p * err_x, f_dead


def sifted_rows(clicks, errors_z, errors_x, p_z_alice, p_z_bob) -> dict[str, np.ndarray]:
    """TALLY_FIELDS mapped to their presift rows times the probability that
    both sides pick the field's basis; each presift argument has one row per
    intensity (mu, nu, vac) on its leading axis."""
    sift_z = p_z_alice * p_z_bob
    sift_x = (1.0 - p_z_alice) * (1.0 - p_z_bob)
    rows = {}
    for k, intensity in enumerate(("mu", "nu", "vac")):
        rows[f"n_z_{intensity}"] = clicks[k] * sift_z
        rows[f"m_z_{intensity}"] = errors_z[k] * sift_z
        rows[f"n_x_{intensity}"] = clicks[k] * sift_x
        rows[f"m_x_{intensity}"] = errors_x[k] * sift_x
    return rows


def _check_breakdowns(pass_geometry: PassGeometry, breakdowns: np.recarray) -> None:
    if len(breakdowns) != len(pass_geometry.samples):
        raise ChannelError(
            f"need one breakdown per pass sample, got {len(breakdowns)} for "
            f"{len(pass_geometry.samples)} samples"
        )


def _summed_tallies(eta_total: np.ndarray, pulses_per_sample: float, source: SourceSpec, det: DetectorSpec) -> TallySet:
    """Expected counts summed over samples of pulses_per_sample pulses each."""
    clicks, err_z, err_x, f_dead = presift_rows(
        eta_total, source.signal_intensity, source.decoy_intensity,
        source.p_mu, source.p_nu, source.p_vac, source, det,
    )
    weight = pulses_per_sample * f_dead
    rows = sifted_rows(
        (clicks * weight).sum(axis=-1), (err_z * weight).sum(axis=-1),
        (err_x * weight).sum(axis=-1), source.p_z_alice, source.p_z_bob,
    )
    return TallySet(
        n_sent=float(pulses_per_sample * len(eta_total)),
        **{name: float(value) for name, value in rows.items()},
    )


def expected_tallies(
    pass_geometry: PassGeometry,
    breakdowns: np.recarray,
    source: SourceSpec,
    det: DetectorSpec,
    min_elevation_deg: float,
) -> TallySet:
    """Expected counts accumulated over all samples above the elevation cut.

    Per sample, per intensity k and basis b:
        n_b_k += rate * dt * p_k * p_sift(b) * D_k * f_dead
        m_b_k += e_k(b) * (that contribution)
    with f_dead = 1 / (1 + R_click * tau_dead) evaluated from the total
    (pre-sifting) click rate of the sample.
    """
    _check_breakdowns(pass_geometry, breakdowns)
    keep = pass_geometry.samples.elevation_deg >= min_elevation_deg
    if not keep.any():
        return TallySet()
    return _summed_tallies(
        breakdowns.eta[keep] * det.efficiency,
        source.pulse_rate_hz * pass_geometry.sample_dt_s, source, det,
    )


def expected_tallies_fixed_eta(
    eta_channel: float,
    n_pulses: float,
    source: SourceSpec,
    det: DetectorSpec,
) -> TallySet:
    """Expected counts for a static channel block of n_pulses at fixed eta."""
    return _summed_tallies(np.array([eta_channel * det.efficiency]), n_pulses, source, det)


def monte_carlo_tallies(
    seed: int,
    pass_geometry: PassGeometry,
    breakdowns: np.recarray,
    source: SourceSpec,
    det: DetectorSpec,
    min_elevation_deg: float,
    thinning: float = 1.0,
) -> TallySet:
    """Count-level sampling oracle for expected_tallies.

    Simulates round(rate * dt / thinning) pulses per kept sample without
    drawing them one by one: exact multinomial splits give each sample's
    pulses per intensity and sifting outcome, then per photon-number cell
    (n = 0, n = 1 and a tail cell n >= 2); binomial draws give each cell's
    background and signal clicks, dead-time survival and bit errors. A tail
    pulse clicks on its signal with the exact mixed probability
    1 - e^(-k eta) S_{k(1-eta)}(1) / S_k(1), S_l(N) = P(Poisson(l) > N),
    computed as (1 - e^(-k eta) - k e^(-k) eta) / S_k(1). Clicks and errors
    of the n = 0 and n = 1 cells are reported in truth.

    With thinning t, expectations match expected_tallies for a source whose
    pulse rate is divided by t, up to the error form in the module docstring.
    """
    if not 1.0 <= thinning < np.inf:
        raise ChannelError(f"thinning must be a finite number >= 1, got {thinning}")
    if seed < 0:
        raise ChannelError(f"seed must be >= 0, got {seed}")
    _check_breakdowns(pass_geometry, breakdowns)
    rng = np.random.Generator(np.random.PCG64(seed))
    y0 = background_yield(det, source.pulse_rate_hz)
    pulses_per_sample = int(round(source.pulse_rate_hz * pass_geometry.sample_dt_s / thinning))
    keep = pass_geometry.samples.elevation_deg >= min_elevation_deg
    eta = breakdowns.eta[keep] * det.efficiency
    f_dead = presift_rows(
        eta, source.signal_intensity, source.decoy_intensity,
        source.p_mu, source.p_nu, source.p_vac, source, det,
    )[3]

    # Intensities (mu, nu, vac) as in presift_rows; p_vac is 0 without a vacuum.
    k = np.array([source.signal_intensity, source.decoy_intensity, 0.0])
    p_k = np.array([source.p_mu, source.p_nu, source.p_vac])
    p_sift_z = source.p_z_alice * source.p_z_bob
    p_sift_x = (1.0 - source.p_z_alice) * (1.0 - source.p_z_bob)
    # (intensity, sifting outcome): Z+Z, X+X, mismatched bases. SourceSpec
    # lets p_mu + p_nu miss 1 by 1e-9 without a vacuum, so normalise.
    category_p = p_k[:, None] * np.array([p_sift_z, p_sift_x, 1.0 - p_sift_z - p_sift_x])
    split = rng.multinomial(pulses_per_sample, category_p.ravel() / category_p.sum(), size=len(eta))
    groups = split.reshape(len(eta), 3, 3)[:, :, :2]  # (sample, intensity, basis)

    # Photon-number cells n = 0, 1, >= 2 of each intensity.
    p_cells = np.stack([np.exp(-k), k * np.exp(-k), -np.expm1(-k) - k * np.exp(-k)], axis=-1)
    cells = rng.multinomial(groups, p_cells[:, None, :])  # (sample, intensity, basis, cell)
    eta_s = eta[:, None]
    tail = np.divide(
        -np.expm1(-k * eta_s) - p_cells[:, 1] * eta_s, p_cells[:, 2],
        out=np.zeros((len(eta), 3)), where=p_cells[:, 2] > 0,
    )
    p_signal = np.stack([np.zeros_like(tail), np.broadcast_to(eta_s, tail.shape), tail.clip(0.0, 1.0)], axis=-1)

    n_bg = rng.binomial(cells, y0)
    n_sig = rng.binomial(cells - n_bg, p_signal[:, :, None, :])
    # Dead-time survival thinning, then errors: a pulse whose background
    # fired errs half the time, a signal-only detection errs with the
    # misalignment probability.
    survive = f_dead[:, None, None, None]
    n_bg = rng.binomial(n_bg, survive)
    n_sig = rng.binomial(n_sig, survive)
    e_mis = np.array([source.misalignment_z, source.misalignment_x])[:, None]
    tallies = np.stack([n_bg + n_sig, rng.binomial(n_bg, 0.5) + rng.binomial(n_sig, e_mis)])

    # (n/m, intensity, basis) in TALLY_FIELDS order is (n/m, basis, intensity).
    rows = tallies.sum(axis=(1, 4)).transpose(0, 2, 1).ravel()
    # (s/m, basis, n = 0 or 1) is the order of TRUTH_FIELDS.
    truth = dict(zip(TRUTH_FIELDS, map(int, tallies[..., :2].sum(axis=(1, 2)).ravel())))
    counts = {name: float(value) for name, value in zip(TALLY_FIELDS, rows)}
    return TallySet(n_sent=float(pulses_per_sample * len(eta)), truth=truth, **counts)
