"""Decoy-state BB84 finite-key secure-key-length computation.

Key length over one accumulation block:

    l = s_Z0 + s_Z1 (1 - h(phi)) - lambda_EC - 6 log2(b / eps_sec)
        - log2(2 / eps_corr)

with b = 19 for the one-decoy and b = 21 for the two-decoy protocol, taken
from the protocol the bounds carry (DecoyBounds.n_decoys). s_Z0 / s_Z1 are
lower bounds on the vacuum and single-photon detections, phi upper-bounds
the single-photon phase error rate, and lambda_EC = f_ec * n_Z * h(Q_Z)
models error-correction leakage.

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
optimizer can evaluate many candidate blocks in one call. The array
functions take arrays of at least one dimension and build each
intermediate as one fresh array that later steps update in place (never an
input), keeping the operand order of the plain expressions, so results are
bit for bit those of one fresh array per operation. The public functions
accept plain scalars and run the same code on one-element arrays. The
key-length formula itself is written once, in `_key_length`, which both
the scalar `secure_key_length` and the array `skl_real_arrays` evaluate; the
asymptotic limit is likewise the one array function `asymptotic_rate`,
built on the channel kernel `presift_rows`.
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
    one_photon,
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
        if not 1.0 <= self.f_ec < math.inf:
            raise FiniteKeyError(f"security.f_ec must be finite and >= 1, got {self.f_ec}")


@dataclass(frozen=True)
class DecoyBounds:
    """Estimator outputs feeding the key-length formula.

    n_decoys names the protocol whose estimator produced the bounds, and so
    the epsilon budget of the key length. s_z0_up is the error-based vacuum
    upper bound used inside the single-photon estimate (one-decoy protocol
    only).
    """

    s_z0_low: float
    s_z1_low: float
    phi_z_up: float
    tau0: float
    tau1: float
    s_x1_low: float
    v_x1_up: float
    aborted: bool
    n_decoys: int
    s_z0_up: float | None = None

    def __post_init__(self) -> None:
        if self.n_decoys not in EPSILON_BUDGET:
            raise FiniteKeyError(f"bounds.n_decoys must be 1 or 2, got {self.n_decoys}")


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
    safe = np.minimum(np.maximum(np.atleast_1d(arr), 1e-300), 1.0 - 1e-16)
    one_minus = 1.0 - safe
    h = np.log2(safe)
    h *= safe
    np.negative(h, out=h)
    one_minus *= np.log2(one_minus, out=safe)
    h -= one_minus
    np.copyto(h, 0.0, where=(arr <= 0.0) | (arr >= 1.0))
    return h.reshape(arr.shape)


def binary_entropy(x):
    """Binary entropy -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise FiniteKeyError(f"binary_entropy argument must be in [0, 1], got {x}")
    out = _entropy(arr)
    return float(out) if out.ndim == 0 else out


def hoeffding_delta(n, eps: float):
    """Finite-sample deviation sqrt((n/2) ln(1/eps))."""
    if not 0.0 < eps < 1.0:
        raise FiniteKeyError(f"eps must be in (0, 1), got {eps}")
    n = np.asarray(n, dtype=float)
    if not np.all((n >= 0.0) & (n < np.inf)):
        raise FiniteKeyError(f"n must be finite and >= 0, got {n}")
    return _plain(_hoeffding(np.atleast_1d(n), eps).reshape(n.shape))


def _hoeffding(n, eps: float):
    """Unchecked hoeffding_delta of an array n (ndim >= 1), a fresh array."""
    out = n / 2.0
    out *= np.log(1.0 / eps)
    return np.sqrt(out, out=out)


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
    if not all(np.all((k_i >= 0.0) & (k_i < np.inf)) for k_i in k):
        raise FiniteKeyError(f"intensities must be finite and >= 0, got {intensities}")
    if not np.all(np.abs(sum(p) - 1.0) <= 1e-9):
        raise FiniteKeyError(f"intensity probabilities must sum to 1, got {sum(p)}")
    fact = float(math.factorial(n))
    return _plain(sum(w * k_i**n / fact for k_i, w in zip(k, _poisson_weights(k, p))))


def _poisson_weights(k, p) -> list:
    """Unchecked weights p_k e^(-k) of a mixture of intensities k."""
    return [p_i * np.exp(-k_i) for k_i, p_i in zip(k, p)]


def _plain(x):
    """A float for a 0-d array, the array otherwise."""
    return float(x) if x.ndim == 0 else x


def _gamma_transfer(a: float, b, c, d, budget: int):
    """Statistical correction when transferring the X-basis error rate to
    the Z-basis phase error rate, over arrays (ndim >= 1) b, c and d."""
    ok = (b > 0.0) & (b < 1.0) & (c > 0.0) & (d > 0.0)
    b_s = np.where(ok, b, 0.25)
    c_s = np.where(ok, c, 1.0)
    d_s = np.where(ok, d, 1.0)
    cd = c_s * d_s
    c_plus_d = c_s + d_s
    one_minus_b = 1.0 - b_s
    inner = cd * one_minus_b
    inner *= b_s
    np.divide(c_plus_d, inner, out=inner)
    inner *= (budget / a) ** 2
    np.maximum(inner, 1.0, out=inner)
    gamma = c_plus_d
    gamma *= one_minus_b
    gamma *= b_s
    cd *= np.log(2.0)
    gamma /= cd
    gamma *= np.log2(inner, out=inner)
    np.sqrt(gamma, out=gamma)
    np.copyto(gamma, 0.0, where=~ok)
    return gamma


def _basis_bounds(t: dict[str, np.ndarray], b: str, d: dict) -> dict:
    """Decoy bounds of one basis b ("z" or "x") over arrays of tally blocks,
    with the constants d of _decoy_setup.

    Each count is shifted by the Hoeffding delta of its basis total and
    rescaled by s_k = e^k / p_k (s_vac is None without a vacuum intensity).
    Returns the basis
    totals n and m, the error-based zero-photon upper bound s0_up, the
    zero- and one-photon lower bounds s0 and s1, and, for X only, the
    one-photon error upper bound v1.
    """
    n_mu, n_nu, n_vac = (t[f"n_{b}_{k}"] for k in ("mu", "nu", "vac"))
    m_mu, m_nu, m_vac = (t[f"m_{b}_{k}"] for k in ("mu", "nu", "vac"))
    n = n_mu + n_nu
    n += n_vac
    m = m_mu + m_nu
    m += m_vac
    mu, nu, tau0, tau1 = d["mu"], d["nu"], d["tau0"], d["tau1"]
    d_n = _hoeffding(n, d["eps1"])
    d_m = _hoeffding(m, d["eps1"])
    s_mu, s_nu, s_vac = d["s_mu"], d["s_nu"], d["s_vac"]
    n_mu_up = n_mu + d_n
    n_mu_up *= s_mu
    n_nu_low = n_nu - d_n
    n_nu_low *= s_nu
    np.maximum(n_nu_low, 0.0, out=n_nu_low)
    m_mu_up = m_mu + d_m
    m_mu_up *= s_mu
    m_nu_up = m_nu + d_m
    m_nu_up *= s_nu
    gap = mu - nu
    denom = nu * gap
    nu2_mu2 = nu**2 / mu**2

    # Pair form, from the (mu, nu) pair alone, avoiding the noisy
    # low-probability vacuum-intensity counts; with one decoy it is the only
    # form. Worst case, every observed error came from a vacuum event (QBER
    # 1/2), which upper-bounds the zero-photon detections feeding the
    # single-photon bound.
    s0_up = np.minimum(m_mu_up, m_nu_up)
    s0_up *= tau0
    s0_up += d_n
    s0_up *= 2.0
    s0 = mu * n_nu_low
    s0 -= nu * n_mu_up
    s0 *= tau0
    s0 /= gap
    np.maximum(s0, 0.0, out=s0)
    s1 = nu2_mu2 * n_mu_up
    np.subtract(n_nu_low, s1, out=s1)
    rest = s0_up / tau0
    rest *= (mu**2 - nu**2) / mu**2
    s1 -= rest
    s1 *= tau1 * mu
    s1 /= denom
    if s_vac is not None:
        # Vacuum form: vacuum-intensity data bounds the zero-photon
        # detections directly. The pair form stays valid and often wins when
        # the vacuum counts are fluctuation dominated, so the sharper of
        # each pair of valid bounds is kept.
        vac = n_vac - d_n
        vac *= s_vac
        np.maximum(vac, 0.0, out=vac)
        vac *= tau0
        np.maximum(vac, s0, out=s0)
        vac = n_vac + d_n
        vac *= s_vac
        np.subtract(n_nu_low, vac, out=vac)
        rest = s0 / tau0
        np.subtract(n_mu_up, rest, out=rest)
        rest *= nu2_mu2
        vac -= rest
        vac *= tau1 * mu
        vac /= denom
        np.maximum(vac, s1, out=s1)
    v1 = None
    if b == "x":
        # Only the X one-photon errors feed the phase-error bound. Pair
        # form: differencing the two intensities' error counts bounds them
        # without vacuum data; the vacuum form is kept where it is sharper.
        v1 = m_nu - d_m
        v1 *= s_nu
        np.maximum(v1, 0.0, out=v1)
        np.subtract(m_mu_up, v1, out=v1)
        v1 *= tau1
        v1 /= gap
        if s_vac is not None:
            vac = m_vac - d_m
            vac *= s_vac
            np.maximum(vac, 0.0, out=vac)
            np.subtract(m_nu_up, vac, out=vac)
            vac *= tau1
            vac /= nu
            np.minimum(vac, v1, out=v1)
    return {"n": n, "m": m, "s0_up": s0_up, "s0": s0, "s1": s1, "v1": v1}


def _decoy_setup(mu, nu, p_mu, p_nu, p_vac, security: SecurityParams, n_decoys: int) -> dict:
    """Per-candidate constants of the kernel: the intensities, tau0, tau1
    and the count scales s_k = e^k / p_k (s_vac None for the one-decoy
    protocol), each shaped like the parameters, and the scalars budget and
    eps1, the epsilon budget's per-invocation share."""
    budget = EPSILON_BUDGET[n_decoys]
    k = [mu, nu, 0.0][: n_decoys + 1]
    weights = _poisson_weights(k, [p_mu, p_nu, p_vac][: n_decoys + 1])
    return {
        "mu": mu,
        "nu": nu,
        # emission_tau for n = 0 and 1, whose k^n / n! leave each term as is
        "tau0": _plain(sum(weights)),
        "tau1": _plain(sum(w * k_i for k_i, w in zip(k, weights))),
        "s_mu": np.exp(mu) / p_mu,
        "s_nu": np.exp(nu) / p_nu,
        "s_vac": 1.0 / p_vac if n_decoys == 2 else None,
        "budget": budget,
        "eps1": security.eps_sec / budget,
    }


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
    d = _decoy_setup(mu, nu, p_mu, p_nu, p_vac, security, n_decoys)
    z = _basis_bounds(t, "z", d)
    x = _basis_bounds(t, "x", d)
    # A block is usable where both one-photon bounds, taken before any clip,
    # are positive and the Z basis has counts.
    usable = z["s1"] > 0.0
    usable &= z["n"] > 0.0
    usable &= x["s1"] > 0.0
    s_z0 = np.minimum(np.maximum(z["s0"], 0.0, out=z["s0"]), z["n"], out=z["s0"])
    s_z1 = np.minimum(np.maximum(z["s1"], 0.0, out=z["s1"]), z["n"] - s_z0, out=z["s1"])
    s_x1 = np.minimum(np.maximum(x["s1"], 0.0, out=x["s1"]), x["n"], out=x["s1"])
    v_x1 = np.maximum(x["v1"], 0.0, out=x["v1"])

    ratio = np.where(s_x1 > 0.0, s_x1, 1.0)
    np.divide(v_x1, ratio, out=ratio)
    np.copyto(ratio, 1.0, where=~usable)
    phi = _gamma_transfer(security.eps_sec, ratio, s_z1, s_x1, d["budget"])
    phi += ratio
    bad = ~np.isfinite(phi)
    aborted = ~usable | (phi > 0.5) | bad
    np.copyto(phi, 1.0, where=bad)
    np.minimum(np.maximum(phi, 0.0, out=phi), 0.5, out=phi)
    return {
        "s_z0_low": s_z0,
        "s_z1_low": s_z1,
        "s_x1_low": s_x1,
        "v_x1_up": v_x1,
        "phi_up": phi,
        "aborted": aborted,
        "tau0": d["tau0"],
        "tau1": d["tau1"],
        "n_z": z["n"],
        "m_z": z["m"],
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
    _, lam_ec = _ec_leakage(est["n_z"], est["m_z"], security)
    l_real = _key_length(est["s_z0_low"], est["s_z1_low"], est["phi_up"], lam_ec, security, n_decoys)
    return _floored(l_real["l_real"], est["aborted"])


def _floored(l_real: np.ndarray, aborted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(l_real, aborted) with a non-positive length counted as an abort and
    every aborted length set to 0.0, in place."""
    aborted |= l_real <= 0.0
    np.copyto(l_real, 0.0, where=aborted)
    return l_real, aborted


def _ec_leakage(n_z, m_z, security: SecurityParams) -> tuple[np.ndarray, np.ndarray]:
    """Q_Z = m_Z / n_Z (0 when n_Z = 0) and lambda_EC = f_ec n_Z h(Q_Z)."""
    q_z = np.maximum(n_z, 1e-300)
    np.divide(m_z, q_z, out=q_z)
    np.copyto(q_z, 0.0, where=~(n_z > 0))
    lam_ec = security.f_ec * n_z
    lam_ec *= _entropy(q_z)
    return q_z, lam_ec


def _key_length(s_z0, s_z1, phi, lam_ec, security: SecurityParams, n_decoys: int) -> dict:
    """The key-length formula and its terms, elementwise over arrays
    (ndim >= 1): l = s_Z0 + s_Z1 (1 - h(phi)) - lambda_EC - 6 log2(b /
    eps_sec) - log2(2 / eps_corr), with lambda_EC from _ec_leakage."""
    penalty_sec = 6.0 * np.log2(EPSILON_BUDGET[n_decoys] / security.eps_sec)
    penalty_corr = np.log2(2.0 / security.eps_corr)
    one_minus_h_phi = _entropy(phi)
    np.subtract(1.0, one_minus_h_phi, out=one_minus_h_phi)
    l_real = s_z1 * one_minus_h_phi
    l_real += s_z0
    l_real -= lam_ec
    l_real -= penalty_sec + penalty_corr
    return {
        "penalty_sec": penalty_sec,
        "penalty_corr": penalty_corr,
        "one_minus_h_phi": one_minus_h_phi,
        "l_real": l_real,
    }


def _decoy_bounds(tallies: TallySet, source: SourceSpec, security: SecurityParams, n_decoys: int) -> DecoyBounds:
    """Bounds of one tally set: the array estimator on one-element arrays."""
    est = _estimate_arrays(
        {name: np.array([getattr(tallies, name)]) for name in TALLY_FIELDS},
        source.signal_intensity,
        source.decoy_intensity,
        source.p_mu,
        source.p_nu,
        source.p_vac,
        security,
        n_decoys,
    )
    value = {name: np.ravel(v)[0].item() for name, v in est.items() if v is not None}
    return DecoyBounds(
        s_z0_low=value["s_z0_low"],
        s_z1_low=value["s_z1_low"],
        phi_z_up=value["phi_up"],
        tau0=value["tau0"],
        tau1=value["tau1"],
        s_x1_low=value["s_x1_low"],
        v_x1_up=value["v_x1_up"],
        aborted=value["aborted"],
        n_decoys=n_decoys,
        s_z0_up=value.get("s_z0_up"),
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


def secure_key_length(bounds: DecoyBounds, tallies: TallySet, security: SecurityParams) -> SklResult:
    """Evaluate the key-length formula for one accumulation block, with the
    epsilon budget of the bounds' protocol.

    Counts are kept real throughout; flooring happens only on the final
    length. A negative length aborts with zero bits. A negative or
    non-finite s_Z0, s_Z1 or Z tally raises FiniteKeyError naming it.
    """
    if not 0.0 <= bounds.phi_z_up <= 1.0:
        raise FiniteKeyError(f"phi_z_up must be in [0, 1], got {bounds.phi_z_up}")
    values = {f"bounds.{name}": getattr(bounds, name) for name in ("s_z0_low", "s_z1_low")}
    values |= {f"tallies.{name}": getattr(tallies, name) for name in TALLY_FIELDS if "_z_" in name}
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise FiniteKeyError(f"{name} must be finite and non-negative, got {value}")
    s_z0, s_z1, phi, n_z, m_z = np.array(
        [[bounds.s_z0_low], [bounds.s_z1_low], [bounds.phi_z_up],
         [tallies.n_z_total], [tallies.m_z_total]], dtype=float,
    )
    q_z, lam_ec = _ec_leakage(n_z, m_z, security)
    terms = {"q_z": q_z, "lambda_ec": lam_ec,
             **_key_length(s_z0, s_z1, phi, lam_ec, security, bounds.n_decoys)}
    term = {name: np.ravel(v)[0].item() for name, v in terms.items()}
    l_real = term["l_real"]
    aborted = bool(bounds.aborted or l_real <= 0.0)
    diagnostics = {
        "s_z0_low": bounds.s_z0_low,
        "s_z1_low": bounds.s_z1_low,
        "phi_z_up": bounds.phi_z_up,
        "one_minus_h_phi": term["one_minus_h_phi"],
        "lambda_ec_bits": term["lambda_ec"],
        "penalty_sec_bits": term["penalty_sec"],
        "penalty_corr_bits": term["penalty_corr"],
        "q_z_observed": term["q_z"],
        "l_real": l_real,
    }
    return SklResult(
        skl_bits=0 if aborted else int(np.floor(l_real)),
        lambda_ec_bits=term["lambda_ec"],
        aborted=aborted,
        diagnostics=diagnostics,
    )


def skl_from_tallies(tallies: TallySet, source: SourceSpec, security: SecurityParams) -> SklResult:
    """Bounds plus key length in one step, for the protocol the source's
    decoy structure names."""
    return secure_key_length(estimate_bounds(tallies, source, security), tallies, security)


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
    lambda_EC keeps the f_ec inefficiency. The one-photon yield and X
    error are channel.one_photon's, the Monte Carlo sampler's form.
    """
    eta_t = eta * det.efficiency
    clicks, err_z, _, f_dead = presift_rows(eta_t, mu, nu, p_mu, p_nu, p_vac, source, det)
    q_click = clicks.sum(axis=0)
    e_z = np.where(q_click > 0, err_z.sum(axis=0) / np.maximum(q_click, 1e-300), 0.5)
    tau0 = emission_tau((mu, nu, 0.0), (p_mu, p_nu, p_vac), 0)
    tau1 = emission_tau((mu, nu, 0.0), (p_mu, p_nu, p_vac), 1)
    y0 = background_yield(det, source.pulse_rate_hz)
    y1, e1_x = one_photon(eta_t, y0, source.misalignment_x)
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
    if not 0.0 <= eta <= 1.0:
        raise FiniteKeyError(f"eta must be finite and in [0, 1], got {eta}")
    if eta == 0:
        return 0.0
    return float(
        asymptotic_rate(
            eta, source.signal_intensity, source.decoy_intensity, source.p_mu, source.p_nu,
            source.p_vac, source.p_z_alice * source.p_z_bob, source, det, security,
        )
    )
