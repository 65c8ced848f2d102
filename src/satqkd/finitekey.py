"""Decoy-state BB84 finite-key secure-key-length computation.

Key length over one accumulation block:

    l = s_Z0 + s_Z1 (1 - h(phi)) - lambda_EC - 6 log2(b / eps_sec)
        - log2(2 / eps_corr)

with b = 19 for the one-decoy and b = 21 for the two-decoy protocol.
s_Z0 / s_Z1 are lower bounds on the vacuum and single-photon detections,
phi upper-bounds the single-photon phase error rate, and lambda_EC =
f_ec * n_Z * h(Q_Z) models error-correction leakage.

The yield and error estimators follow the finite-size decoy analyses of
Lim et al., PRA 89, 022307 (2014) for two decoys and Rusca et al., APL
112, 171104 (2018) for one. They are written once, per basis, in
`_basis_bounds`, which `_estimate_arrays` calls for Z and for X: each
count is padded by the Hoeffding deviation delta(n, eps) = sqrt(n/2
ln(1/eps)) of its basis total, with eps_sec split uniformly over the
invocations, and rescaled by e^k / p_k. The (mu, nu) pair form bounds the
zero- and one-photon detections (and, in X, the one-photon errors); with
a vacuum intensity the vacuum form follows and the sharper bound is kept,
max for s_0 and s_1, min for v_X1. The X-to-Z statistical transfer uses
the correction gamma(a, b, c, d) with the protocol's epsilon budget. A
Monte Carlo oracle with true photon-number tags gates these bounds in the
test suite.

All estimator arithmetic is written against numpy so the whole-pass
optimizer can evaluate many candidate blocks in one call; the public
functions accept plain scalars. The key-length formula itself is written
once, in `_key_length`, which both the scalar `secure_key_length` and the
array `skl_real_arrays` evaluate; the asymptotic limit is likewise the one
array function `asymptotic_rate`, built on the channel kernel
`presift_rows`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    TALLY_FIELDS,
    DetectorSpec,
    SourceSpec,
    TallySet,
    background_yield,
    presift_rows,
)

EPSILON_BUDGET = {1: 19, 2: 21}


class FiniteKeyError(ValueError):
    """Raised for invalid security parameters or tally configurations."""


@dataclass(frozen=True)
class SecurityParams:
    """Secrecy/correctness failure probabilities and EC inefficiency."""

    eps_sec: float = 1e-9
    eps_corr: float = 1e-15
    f_ec: float = 1.16

    def __post_init__(self) -> None:
        for name in ("eps_sec", "eps_corr"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise FiniteKeyError(f"security.{name} must be in (0, 1), got {value}")
        if not self.f_ec >= 1.0:
            raise FiniteKeyError(f"security.f_ec must be >= 1, got {self.f_ec}")


@dataclass(frozen=True)
class DecoyBounds:
    """Estimator outputs feeding the key-length formula.

    s_z0_up is the error-based vacuum upper bound used inside the
    single-photon estimate (one-decoy protocol only).
    """

    s_z0_low: float
    s_z1_low: float
    phi_z_up: float
    tau0: float
    tau1: float
    s_x1_low: float
    v_x1_up: float
    aborted: bool
    s_z0_up: float | None = None
    note: str = ""


@dataclass(frozen=True)
class SklResult:
    """Secure key length with per-term diagnostics."""

    skl_bits: int
    lambda_ec_bits: float
    aborted: bool
    diagnostics: dict[str, float] = field(default_factory=dict)


def _entropy(x):
    """Unchecked binary entropy over arrays, with h(0) = h(1) = 0."""
    arr = np.asarray(x, dtype=float)
    safe = np.clip(arr, 1e-300, 1.0 - 1e-16)
    return np.where(
        (arr <= 0.0) | (arr >= 1.0),
        0.0,
        -safe * np.log2(safe) - (1.0 - safe) * np.log2(1.0 - safe),
    )


def binary_entropy(x):
    """Binary entropy -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise FiniteKeyError(f"binary_entropy argument must be in [0, 1], got {x}")
    out = _entropy(arr)
    return float(out) if out.ndim == 0 else out


def hoeffding_delta(n, eps: float):
    """Finite-sample deviation sqrt((n/2) ln(1/eps))."""
    if not 0.0 < eps < 1.0:
        raise FiniteKeyError(f"eps must be in (0, 1), got {eps}")
    out = np.sqrt(np.asarray(n, dtype=float) / 2.0 * np.log(1.0 / eps))
    return float(out) if out.ndim == 0 else out


def emission_tau(intensities, probabilities, n: int):
    """Probability tau_n that an emitted pulse carries exactly n photons.

    tau_n = sum_k p_k e^(-k) k^n / n! over the intensity mixture. Each
    intensity and probability may be an array of candidates; all-scalar
    input gives a float.
    """
    if n < 0:
        raise FiniteKeyError(f"photon number must be >= 0, got {n}")
    k = [np.asarray(x, dtype=float) for x in intensities]
    p = [np.asarray(x, dtype=float) for x in probabilities]
    if np.any(np.abs(sum(p) - 1.0) > 1e-9):
        raise FiniteKeyError(f"intensity probabilities must sum to 1, got {sum(p)}")
    fact = float(math.factorial(n))
    total = sum(p_i * np.exp(-k_i) * k_i**n / fact for k_i, p_i in zip(k, p))
    return float(total) if total.ndim == 0 else total


def _gamma_transfer(a: float, b, c, d, budget: int):
    """Statistical correction when transferring the X-basis error rate to
    the Z-basis phase error rate."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    ok = (b > 0.0) & (b < 1.0) & (c > 0.0) & (d > 0.0)
    b_s = np.where(ok, b, 0.25)
    c_s = np.where(ok, c, 1.0)
    d_s = np.where(ok, d, 1.0)
    inner = (c_s + d_s) / (c_s * d_s * (1.0 - b_s) * b_s) * (budget / a) ** 2
    inner = np.maximum(inner, 1.0)
    gamma = np.sqrt(
        (c_s + d_s) * (1.0 - b_s) * b_s / (c_s * d_s * np.log(2.0)) * np.log2(inner)
    )
    return np.where(ok, gamma, 0.0)


def _basis_bounds(t: dict[str, np.ndarray], b: str, mu, nu, scale, tau0, tau1, eps1) -> dict:
    """Decoy bounds of one basis b ("z" or "x") over arrays of tally blocks.

    Each count is shifted by the Hoeffding delta of its basis total and
    rescaled by e^k / p_k; `scale` holds e^mu / p_mu, e^nu / p_nu and
    1 / p_vac, the last None without a vacuum intensity. Returns the basis
    totals n and m, the error-based zero-photon upper bound s0_up, the
    zero- and one-photon lower bounds s0 and s1, and, for X only, the
    one-photon error upper bound v1.
    """
    n = t[f"n_{b}_mu"] + t[f"n_{b}_nu"] + t[f"n_{b}_vac"]
    m = t[f"m_{b}_mu"] + t[f"m_{b}_nu"] + t[f"m_{b}_vac"]
    d_n = hoeffding_delta(n, eps1)
    d_m = hoeffding_delta(m, eps1)
    s_mu, s_nu, s_vac = scale
    n_mu_up = s_mu * (t[f"n_{b}_mu"] + d_n)
    n_nu_low = np.maximum(s_nu * (t[f"n_{b}_nu"] - d_n), 0.0)
    m_mu_up = s_mu * (t[f"m_{b}_mu"] + d_m)
    m_nu_up = s_nu * (t[f"m_{b}_nu"] + d_m)
    denom = nu * (mu - nu)

    # Pair form, from the (mu, nu) pair alone, avoiding the noisy
    # low-probability vacuum-intensity counts; with one decoy it is the only
    # form. Worst case, every observed error came from a vacuum event (QBER
    # 1/2), which upper-bounds the zero-photon detections feeding the
    # single-photon bound.
    s0_up = 2.0 * (tau0 * np.minimum(m_mu_up, m_nu_up) + d_n)
    s0 = np.maximum(tau0 * (mu * n_nu_low - nu * n_mu_up) / (mu - nu), 0.0)
    s1 = tau1 * mu * (
        n_nu_low - (nu**2 / mu**2) * n_mu_up - ((mu**2 - nu**2) / mu**2) * (s0_up / tau0)
    ) / denom
    if s_vac is not None:
        # Vacuum form: vacuum-intensity data bounds the zero-photon
        # detections directly. The pair form stays valid and often wins when
        # the vacuum counts are fluctuation dominated, so the sharper of
        # each pair of valid bounds is kept.
        s0 = np.maximum(tau0 * np.maximum(s_vac * (t[f"n_{b}_vac"] - d_n), 0.0), s0)
        s1 = np.maximum(tau1 * mu * (
            n_nu_low - s_vac * (t[f"n_{b}_vac"] + d_n) - (nu**2 / mu**2) * (n_mu_up - s0 / tau0)
        ) / denom, s1)
    v1 = None
    if b == "x":
        # Only the X one-photon errors feed the phase-error bound. Pair
        # form: differencing the two intensities' error counts bounds them
        # without vacuum data; the vacuum form is kept where it is sharper.
        v1 = tau1 * (m_mu_up - np.maximum(s_nu * (t["m_x_nu"] - d_m), 0.0)) / (mu - nu)
        if s_vac is not None:
            v1 = np.minimum(tau1 * (m_nu_up - np.maximum(s_vac * (t["m_x_vac"] - d_m), 0.0)) / nu, v1)
    return {"n": n, "m": m, "s0_up": s0_up, "s0": s0, "s1": s1, "v1": v1}


def _estimate_arrays(
    t: dict[str, np.ndarray],
    mu,
    nu,
    p_mu,
    p_nu,
    p_vac,
    security: SecurityParams,
    n_decoys: int,
) -> dict[str, np.ndarray]:
    """Decoy bounds over arrays of tally blocks.

    `t` maps tally field names (n_z_mu, ..., m_x_vac) to equal-shape arrays;
    the intensities and probabilities are scalars or arrays that broadcast
    against them (one column per row of candidates, say). Returns s_z0_low,
    s_z1_low, s_x1_low, v_x1_up, phi_up, tau0, tau1, the Z totals n_z and
    m_z and an `aborted` mask.
    """
    budget = EPSILON_BUDGET[n_decoys]
    eps1 = security.eps_sec / budget
    intensities, probs = [mu, nu, 0.0][: n_decoys + 1], [p_mu, p_nu, p_vac][: n_decoys + 1]
    tau0 = emission_tau(intensities, probs, 0)
    tau1 = emission_tau(intensities, probs, 1)
    # e^k / p_k per intensity; the vacuum term exists only with two decoys.
    scale = (np.exp(mu) / p_mu, np.exp(nu) / p_nu, 1.0 / p_vac if n_decoys == 2 else None)
    z, x = (_basis_bounds(t, b, mu, nu, scale, tau0, tau1, eps1) for b in "zx")

    s_z0 = np.clip(z["s0"], 0.0, z["n"])
    s_z1 = np.clip(z["s1"], 0.0, z["n"] - s_z0)
    s_x1 = np.clip(x["s1"], 0.0, x["n"])
    v_x1 = np.maximum(x["v1"], 0.0)

    usable = (z["s1"] > 0.0) & (x["s1"] > 0.0) & (z["n"] > 0.0)
    ratio = np.where(usable, v_x1 / np.where(s_x1 > 0.0, s_x1, 1.0), 1.0)
    phi = ratio + _gamma_transfer(security.eps_sec, ratio, s_z1, s_x1, budget)
    aborted = ~usable | (phi > 0.5) | ~np.isfinite(phi)
    phi = np.clip(np.where(np.isfinite(phi), phi, 1.0), 0.0, 0.5)
    return {
        "s_z0_low": s_z0,
        "s_z1_low": s_z1,
        "s_x1_low": s_x1,
        "v_x1_up": v_x1,
        "phi_up": phi,
        "tau0": tau0,
        "tau1": tau1,
        "n_z": z["n"],
        "m_z": z["m"],
        "aborted": aborted,
        "s_z0_up": z["s0_up"] if n_decoys == 1 else None,
    }


def skl_real_arrays(
    t: dict[str, np.ndarray],
    mu: float,
    nu: float,
    p_mu: float,
    p_nu: float,
    p_vac: float,
    security: SecurityParams,
    n_decoys: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unfloored key length and abort mask for arrays of tally blocks."""
    est = _estimate_arrays(t, mu, nu, p_mu, p_nu, p_vac, security, n_decoys)
    terms = _key_length(
        est["s_z0_low"], est["s_z1_low"], est["phi_up"], est["n_z"], est["m_z"], security, n_decoys
    )
    l_real = terms["l_real"]
    aborted = est["aborted"] | (l_real <= 0.0)
    return np.where(aborted, 0.0, l_real), aborted


def _key_length(s_z0, s_z1, phi, n_z, m_z, security: SecurityParams, n_decoys: int) -> dict:
    """The key-length formula and its terms, elementwise over arrays:
    l = s_Z0 + s_Z1 (1 - h(phi)) - f_ec n_Z h(Q_Z) - 6 log2(b / eps_sec)
    - log2(2 / eps_corr), with Q_Z = m_Z / n_Z (0 when n_Z = 0)."""
    budget = EPSILON_BUDGET[n_decoys]
    q_z = np.where(n_z > 0, m_z / np.maximum(n_z, 1e-300), 0.0)
    lam_ec = security.f_ec * n_z * _entropy(q_z)
    penalty_sec = 6.0 * np.log2(budget / security.eps_sec)
    penalty_corr = np.log2(2.0 / security.eps_corr)
    one_minus_h_phi = 1.0 - _entropy(phi)
    return {
        "q_z": q_z,
        "lambda_ec": lam_ec,
        "penalty_sec": penalty_sec,
        "penalty_corr": penalty_corr,
        "one_minus_h_phi": one_minus_h_phi,
        "l_real": s_z0 + s_z1 * one_minus_h_phi - lam_ec - (penalty_sec + penalty_corr),
    }


def _decoy_bounds(tallies: TallySet, source: SourceSpec, security: SecurityParams, n_decoys: int) -> DecoyBounds:
    est = _estimate_arrays(
        {name: np.asarray(getattr(tallies, name), dtype=float) for name in TALLY_FIELDS},
        source.signal_intensity,
        source.decoy_intensity,
        source.p_mu,
        source.p_nu,
        source.p_vac,
        security,
        n_decoys,
    )
    return DecoyBounds(
        s_z0_low=float(est["s_z0_low"]),
        s_z1_low=float(est["s_z1_low"]),
        phi_z_up=float(est["phi_up"]),
        tau0=float(est["tau0"]),
        tau1=float(est["tau1"]),
        s_x1_low=float(est["s_x1_low"]),
        v_x1_up=float(est["v_x1_up"]),
        aborted=bool(est["aborted"]),
        s_z0_up=None if est["s_z0_up"] is None else float(est["s_z0_up"]),
        note="two-decoy" if n_decoys == 2 else "one-decoy",
    )


def two_decoy_bounds(tallies: TallySet, source: SourceSpec, security: SecurityParams) -> DecoyBounds:
    """Vacuum/single-photon bounds for the two-decoy protocol (mu, nu, vacuum)."""
    if not source.vacuum_included:
        raise FiniteKeyError("two_decoy_bounds requires a source with the vacuum intensity")
    return _decoy_bounds(tallies, source, security, n_decoys=2)


def one_decoy_bounds(tallies: TallySet, source: SourceSpec, security: SecurityParams) -> DecoyBounds:
    """Vacuum/single-photon bounds for the one-decoy protocol (mu, nu only)."""
    if source.vacuum_included:
        raise FiniteKeyError("one_decoy_bounds requires a source without the vacuum intensity")
    return _decoy_bounds(tallies, source, security, n_decoys=1)


def estimate_bounds(tallies: TallySet, source: SourceSpec, security: SecurityParams) -> DecoyBounds:
    """Bounds of the protocol the source's decoy structure names."""
    return _decoy_bounds(tallies, source, security, 2 if source.vacuum_included else 1)


def secure_key_length(
    bounds: DecoyBounds,
    tallies: TallySet,
    security: SecurityParams,
    n_decoys: int,
) -> SklResult:
    """Evaluate the key-length formula for one accumulation block.

    Counts are kept real throughout; flooring happens only on the final
    length. A negative length aborts with zero bits.
    """
    if n_decoys not in EPSILON_BUDGET:
        raise FiniteKeyError(f"n_decoys must be 1 or 2, got {n_decoys}")
    if not 0.0 <= bounds.phi_z_up <= 1.0:
        raise FiniteKeyError(f"phi_z_up must be in [0, 1], got {bounds.phi_z_up}")
    terms = _key_length(
        bounds.s_z0_low, bounds.s_z1_low, bounds.phi_z_up,
        tallies.n_z_total, tallies.m_z_total, security, n_decoys,
    )
    l_real = float(terms["l_real"])
    aborted = bool(bounds.aborted or l_real <= 0.0)
    diagnostics = {
        "s_z0_low": bounds.s_z0_low,
        "s_z1_low": bounds.s_z1_low,
        "phi_z_up": bounds.phi_z_up,
        "one_minus_h_phi": float(terms["one_minus_h_phi"]),
        "lambda_ec_bits": float(terms["lambda_ec"]),
        "penalty_sec_bits": float(terms["penalty_sec"]),
        "penalty_corr_bits": float(terms["penalty_corr"]),
        "q_z_observed": float(terms["q_z"]),
        "l_real": l_real,
    }
    return SklResult(
        skl_bits=0 if aborted else int(np.floor(l_real)),
        lambda_ec_bits=float(terms["lambda_ec"]),
        aborted=aborted,
        diagnostics=diagnostics,
    )


def skl_from_tallies(
    tallies: TallySet,
    source: SourceSpec,
    security: SecurityParams,
    n_decoys: int,
) -> SklResult:
    """Bounds plus key length in one step. The source picks the bounds and
    n_decoys the epsilon budget, so the two must name the same protocol."""
    if n_decoys != (2 if source.vacuum_included else 1):
        raise FiniteKeyError(f"n_decoys={n_decoys} does not match a source with "
                             f"vacuum_included={source.vacuum_included}")
    bounds = estimate_bounds(tallies, source, security)
    return secure_key_length(bounds, tallies, security, n_decoys)


def asymptotic_rate(
    eta,
    mu,
    nu,
    p_mu,
    p_nu,
    p_vac,
    p_sift_z,
    source: SourceSpec,
    det: DetectorSpec,
    security: SecurityParams,
):
    """Asymptotic secure-key rate per emitted pulse, elementwise over
    candidate arrays of (mu, nu, p_mu, p_nu, p_vac, p_sift_z) at channel
    transmission eta > 0 (detector efficiency excluded).

    Infinite-data limit: exact Poisson yields replace the decoy bounds, the
    fluctuation and transfer terms vanish and the log penalties drop out;
    lambda_EC keeps the f_ec inefficiency.
    """
    eta_t = eta * det.efficiency
    clicks, err_z, _, f_dead = presift_rows(eta_t, mu, nu, p_mu, p_nu, p_vac, source, det)
    q_click = clicks.sum(axis=0)
    e_z = np.where(q_click > 0, err_z.sum(axis=0) / np.maximum(q_click, 1e-300), 0.5)
    tau0 = emission_tau((mu, nu, 0.0), (p_mu, p_nu, p_vac), 0)
    tau1 = emission_tau((mu, nu, 0.0), (p_mu, p_nu, p_vac), 1)
    y0 = background_yield(det, source.pulse_rate_hz)
    y1 = 1.0 - (1.0 - y0) * (1.0 - eta_t)
    e1_x = (0.5 * y0 + source.misalignment_x * (1.0 - y0) * eta_t) / y1
    rate = p_sift_z * f_dead * (
        tau0 * y0
        + tau1 * y1 * (1.0 - _entropy(np.minimum(e1_x, 0.5)))
        - security.f_ec * q_click * _entropy(e_z)
    )
    return np.maximum(rate, 0.0)


def asymptotic_skr(
    eta: float,
    source: SourceSpec,
    det: DetectorSpec,
    security: SecurityParams,
) -> float:
    """Asymptotic secure-key rate per emitted pulse of the source at channel
    transmission eta (detector efficiency excluded); see asymptotic_rate."""
    if not eta >= 0:
        raise FiniteKeyError(f"eta must be >= 0, got {eta}")
    if eta == 0:
        return 0.0
    return float(
        asymptotic_rate(
            eta, source.signal_intensity, source.decoy_intensity, source.p_mu, source.p_nu,
            source.p_vac, source.p_z_alice * source.p_z_bob, source, det, security,
        )
    )
