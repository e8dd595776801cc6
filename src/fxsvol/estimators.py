"""Closed-form approximate parameter estimators.

Implied-central-moment formulas recover (omega, rho) per tenor and aggregate
by median; the smile-shape route inverts a short-maturity smile expansion;
the two-strike price-expansion route solves a quadratic system; historical
routes use EWMA estimators of implied-variance dynamics.  Two-factor starting
vectors come from equal-variance splits of the one-factor estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import variance_factors
from .errors import (
    DegenerateMoments,
    InvariantViolation,
    NegativeRadicand,
    NoValidRoot,
    ShortSeries,
    SingularRegression,
    ZeroTotalVariance,
)
from .pricer import OptionSpec, gk_price, norm_cdf

OMEGA_FLOOR = 0.001
RHO_PIN = 0.99
RHO_CLAMP = 0.99
HIST_WINDOW = 63          # days of the historical EWMA estimates
HIST_RHO_FALLBACK = -0.1  # their rho during the warm-up


@dataclass(frozen=True)
class Estimate:
    omega: float
    rho: float
    per_tenor: tuple = ()
    flags: tuple = ()


@dataclass(frozen=True)
class SmileShape:
    slope: float      # S_t
    curvature: float  # C_t
    term_premium: float  # M_t, vol per year


@dataclass(frozen=True)
class DurrlemanEstimate:
    omega: float
    rho: float
    kappa_hat: float  # diagnostic only; printed-form inversion of the term premium
    shape: SmileShape
    flags: tuple = ()


@dataclass(frozen=True)
class GRCoefficients:
    """Two-strike expansion pieces for one put strike."""
    a: float
    b: float
    c: float
    d: float
    r0: float
    r1: float
    p0: float
    p1: float
    q0: float
    q1: float
    w_tau: float

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.d))


@dataclass(frozen=True)
class TwoFactorStart:
    """Ten-parameter start vector, per factor (nu0, theta, kappa, omega, rho)."""
    kind: str
    nu0: tuple
    theta: tuple
    kappa: tuple
    omega: tuple
    rho: tuple
    pin_rho: bool = False
    flags: tuple = ()

    @property
    def factors(self):
        """Per factor, its (nu0, theta, kappa, omega, rho)."""
        return tuple(zip(self.nu0, self.theta, self.kappa, self.omega, self.rho))


def _lower_median(values):
    """Median with lower-of-the-two tie break for even counts."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[(len(v) - 1) // 2]) if len(v) % 2 == 0 else float(np.median(v))


# ---------------------------------------------------------------------------
# implied-central-moment estimators
# ---------------------------------------------------------------------------

def variance_weight_integrals(nu0, theta, kappa, tau):
    """(I1, I2): integrals weighting E[nu_s] in the moment identities.

    I1 = int (1 - e^{-kappa(tau-s)})/kappa E[nu_s] ds and I2 the squared-weight
    analogue; their kappa -> 0 limits are (tau/2) E[vbar] and (tau^2/3) E[vbar].
    """
    x = kappa * tau
    e = math.exp(-x)
    i1 = (e * (2.0 * theta - nu0 - x * (nu0 - theta))
          + nu0 + theta * (x - 2.0)) / (kappa * kappa)
    i2 = ((theta * (2.0 * x - 5.0) + 2.0 * nu0)
          + 4.0 * e * (theta * (x + 1.0) - kappa * nu0 * tau)
          + (theta - 2.0 * nu0) * e * e) / (2.0 * kappa ** 3)
    return i1, i2


def icm_heston(moment_sets, ts_params=None):
    """(omega, rho) for the CIR-variance model from per-tenor moment sets.

    Default (limit form): omega_tau^2 = E[Y^2] / (mu2 tau^2 / 3) and
    rho_tau omega_tau = E[XY] / (mu2 tau / 2), aggregated by (lower) median
    across tenors.  Passing ts_params=(nu0, theta, kappa) switches the
    denominators to the exact weight integrals evaluated on that variance
    curve (flagged alternative, off by default).
    """
    per_tenor = []
    for m in moment_sets:
        if m.mu2 <= 0.0:
            raise DegenerateMoments(f"mu2 <= 0 at tau={m.tau}")
        if ts_params is None:
            i1 = m.mu2 * m.tau / 2.0
            i2 = m.mu2 * m.tau * m.tau / 3.0
        else:
            i1, i2 = variance_weight_integrals(*ts_params, m.tau)
        per_tenor.append((m.tau, m.ey2 / i2, m.exy / i1))
    return _icm_estimate(per_tenor)


def icm_sz(moment_sets, nu0_sz):
    """(omega, rho) for the OU-volatility model.

    omega_tau^2 = -nu0^2/tau + sqrt(nu0^4 + E[Y^2]/2)/tau,
    omega_tau rho_tau = E[XY] / (omega_tau^2 tau^2 + 2 nu0^2 tau).
    """
    if nu0_sz <= 0.0:
        raise DegenerateMoments(f"nu0_sz = {nu0_sz} <= 0")
    per_tenor = []
    n4 = nu0_sz ** 4
    n2 = nu0_sz ** 2
    for m in moment_sets:
        om2 = (-n2 + math.sqrt(n4 + 0.5 * m.ey2)) / m.tau
        rhom = m.exy / (om2 * m.tau * m.tau + 2.0 * n2 * m.tau) if om2 > 0.0 else 0.0
        per_tenor.append((m.tau, om2, rhom))
    return _icm_estimate(per_tenor)


def half_relation(heston):
    """The OU-volatility model's (omega, rho) from the CIR-variance model's
    Estimate heston by the half-relation shortcut: half its omega, its rho."""
    return Estimate(omega=0.5 * heston.omega, rho=heston.rho,
                    flags=("half-relation from CIR-variance estimates",))


def _icm_estimate(per_tenor):
    """The Estimate from per-tenor (tau, omega^2, rho omega): omega is the
    root of the lower median of omega^2, rho the lower median of rho omega
    over omega, clamped to +/-RHO_CLAMP with a flag."""
    if not per_tenor:
        raise DegenerateMoments("no tenors supplied")
    om2 = _lower_median([om2 for _, om2, _ in per_tenor])
    if om2 <= 0.0:
        raise DegenerateMoments(f"median omega^2 = {om2} <= 0")
    omega = math.sqrt(om2)
    rho = _lower_median([rhom for _, _, rhom in per_tenor]) / omega
    flags = ()
    if abs(rho) > RHO_CLAMP:
        flags = (f"rho {rho:.4f} clamped to +/-{RHO_CLAMP}",)
        rho = math.copysign(RHO_CLAMP, rho)
    return Estimate(omega=omega, rho=rho, per_tenor=tuple(per_tenor), flags=flags)


# ---------------------------------------------------------------------------
# smile-shape (short-maturity expansion) estimator
# ---------------------------------------------------------------------------

def smile_regression(surface):
    """OLS of sigma(K) - sigma_ATM on (x, x^2/2), x = K/S - 1, shortest tenor.

    No intercept; the ATM point enters with response zero.
    """
    sl = surface.slices[0]
    x = np.asarray(sl.strikes) / surface.spot - 1.0
    y = np.asarray(sl.vols.vols) - sl.vols.atm
    design = np.column_stack([x, 0.5 * x * x])
    if np.linalg.matrix_rank(design) < 2:
        raise SingularRegression("smile regression design is rank deficient")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1])


def durrleman(surface, nu0_proxy, theta=None):
    """(omega, rho, kappa_hat) from smile slope/curvature and term premium.

    omega = 2 sqrt(nu0) R^{1/2}, rho = 2 S R^{-1/2} with
    R = 3 sqrt(nu0) C + 3 sqrt(nu0) S + 10 S^2; a negative R means the smile
    shape is outside the expansion's domain.  kappa_hat needs theta and is
    diagnostic only.
    """
    if nu0_proxy <= 0.0:
        raise InvariantViolation(f"nu0 proxy must be > 0: {nu0_proxy}")
    if len(surface.slices) < 2:
        raise InvariantViolation("term premium needs at least two tenors")
    flags = []
    slope, curv = smile_regression(surface)
    s0, s1 = surface.slices[0], surface.slices[1]
    premium = (s1.vols.atm - s0.vols.atm) / (s1.tau - s0.tau)
    sq = math.sqrt(nu0_proxy)
    radicand = 3.0 * sq * curv + 3.0 * sq * slope + 10.0 * slope * slope
    if radicand < 0.0:
        raise NegativeRadicand(f"radicand {radicand} < 0")
    if radicand == 0.0:
        omega, rho = 0.0, 0.0
        flags.append("flat smile: rho 0/0 guarded to 0")
    else:
        omega = 2.0 * sq * math.sqrt(radicand)
        rho = 2.0 * slope / math.sqrt(radicand)
    kappa_hat = math.nan
    if theta is not None and theta != nu0_proxy:
        kappa_hat = (1.0 / (2.0 * (theta - nu0_proxy))
                     * (8.0 * premium * sq
                        + omega * omega / (6.0 * nu0_proxy) * (2.0 - rho * rho / 2.0)
                        + omega * rho * nu0_proxy))
        flags.append("kappa_hat computed from printed form; diagnostic only")
    return DurrlemanEstimate(omega=omega, rho=rho, kappa_hat=kappa_hat,
                             shape=SmileShape(slope, curv, premium),
                             flags=tuple(flags))


# ---------------------------------------------------------------------------
# two-strike price expansion estimator (experimental)
# ---------------------------------------------------------------------------

def _bs_put_forward(x, k, w, df):
    """Put price as a function of log-forward x, log-strike k, total variance w."""
    sw = math.sqrt(w)
    d1 = (x - k) / sw + 0.5 * sw
    d2 = d1 - sw
    return df * (math.exp(k) * norm_cdf(-d2) - math.exp(x) * norm_cdf(-d1))


def _bs_partials(x, k, w, df):
    """(dP/dw, d2P/dw2, d2P/dxdw, d3P/dx2dw, d4P/dx2dw2) of the put."""
    sw = math.sqrt(w)
    d1 = (x - k) / sw + 0.5 * sw
    d2 = d1 - sw
    g = math.exp(x) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi) / sw
    v = 0.5 * df * g  # dP/dw, same for call and put
    p_ww = v * (d1 * d2 - 1.0) / (2.0 * w)
    q = 1.0 - d1 / sw
    p_xw = v * q
    p_xxw = v * (q * q - 1.0 / w)
    p_xxww = (p_ww * (q * q - 1.0 / w)
              + v * (2.0 * q * (x - k) / (w * w) + 1.0 / (w * w)))
    return v, p_ww, p_xw, p_xxw, p_xxww


def gr_coefficients(strike, nu0, theta, kappa, tau, spot, r_d, r_f):
    """Price-expansion coefficients (A, B, C, D) for one put strike.

    The expansion variance is the integrated expected variance
    w_tau = theta tau + (nu0 - theta)(1 - e^{-kappa tau})/kappa of Gauthier &
    Rivaille (2009) and Benhamou, Gobet & Miri (2010), not the printed
    theta + (nu0 - theta)(1 - e^{kappa tau})/kappa.  The mixed-derivative
    coefficient of D pairs nu0 with q0 and squares the first-order
    coefficient; without both repairs the expansion cannot invert its own
    near-exact model prices.
    """
    w = theta * tau + (nu0 - theta) * (1.0 - math.exp(-kappa * tau)) / kappa
    if w <= 0.0:
        raise NoValidRoot(f"expansion variance w_tau = {w} <= 0")
    x = math.log(spot) + (r_d - r_f) * tau
    k = math.log(strike)
    df = math.exp(-r_d * tau)
    e = math.exp(-kappa * tau)
    kt = kappa * tau
    r0 = 0.25 * kappa ** -3 * (-4.0 * e * kt + 2.0 - 2.0 * e * e)
    r1 = 0.25 * kappa ** -3 * (4.0 * e * (kt + 1.0) + (2.0 * kt - 5.0) + e * e)
    p0 = kappa ** -2 * (-e * kt + 1.0 - e)
    p1 = kappa ** -2 * (e * kt + (kt - 2.0) + 2.0 * e)
    q0 = 0.5 * kappa ** -3 * (-e * kt * (kt + 2.0) + 2.0 - 2.0 * e)
    q1 = 0.5 * kappa ** -3 * (2.0 * (kt - 3.0) + e * kt * (kt + 4.0) + 6.0 * e)
    _, p_ww, p_xw, p_xxw, p_xxww = _bs_partials(x, k, w, df)
    a = _bs_put_forward(x, k, w, df)
    b = (nu0 * r0 + theta * r1) * p_ww
    c = (nu0 * p0 + theta * p1) * p_xw
    d = (nu0 * q0 + theta * q1) * p_xxw + 0.5 * (nu0 * p0 + theta * p1) ** 2 * p_xxww
    return GRCoefficients(a=a, b=b, c=c, d=d, r0=r0, r1=r1, p0=p0, p1=p1,
                          q0=q0, q1=q1, w_tau=w)


def gr_forward_price(strike, nu0, theta, kappa, tau, spot, r_d, r_f, omega, rho):
    """Put price implied by the expansion itself (used to self-invert)."""
    a, b, c, d = gr_coefficients(strike, nu0, theta, kappa, tau, spot, r_d, r_f)
    return a + b * omega ** 2 + c * rho * omega + d * rho ** 2 * omega ** 2


def gauthier_rivaille(p1, p2, k1, k2, nu0, theta, kappa, tau, spot, r_d, r_f):
    """Solve the two-strike expansion system for (omega, rho).

    With X = omega^2, Y = rho omega the system is linearized to
    Y = (d + f X)/g and a quadratic in X; admissible root has omega > 0 and
    |rho| <= 1.
    """
    if k1 == k2:
        raise NoValidRoot("strikes must differ")
    a1, b1, c1, d1c = gr_coefficients(k1, nu0, theta, kappa, tau, spot, r_d, r_f)
    a2, b2, c2, d2c = gr_coefficients(k2, nu0, theta, kappa, tau, spot, r_d, r_f)
    # absorb observed prices: residual form At + B X + C Y + D Y^2 = 0
    at1 = a1 - p1
    at2 = a2 - p2
    d = d1c * at2 / d2c - at1
    f = d1c * b2 / d2c - b1
    g = c1 - d1c * c2 / d2c
    if g == 0.0:
        raise NoValidRoot("degenerate system: g = 0")
    # quadratic in X after substituting Y = (d + f X)/g
    qa = d1c * f * f / (g * g)
    qb = b1 + c1 * f / g + 2.0 * d1c * d * f / (g * g)
    qc = at1 + c1 * d / g + d1c * d * d / (g * g)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0 or qa == 0.0:
        raise NoValidRoot(f"discriminant {disc} < 0")
    roots = [(-qb + math.sqrt(disc)) / (2.0 * qa), (-qb - math.sqrt(disc)) / (2.0 * qa)]
    candidates = []
    for xx in roots:
        if xx <= 0.0:
            continue
        omega = math.sqrt(xx)
        rho = (d + f * xx) / (g * omega)
        if abs(rho) <= 1.0:
            resid = abs(gr_forward_price(k1, nu0, theta, kappa, tau, spot, r_d, r_f,
                                         omega, rho) - p1) \
                + abs(gr_forward_price(k2, nu0, theta, kappa, tau, spot, r_d, r_f,
                                       omega, rho) - p2)
            candidates.append((resid, omega, rho))
    if not candidates:
        raise NoValidRoot("all roots outside omega > 0, |rho| <= 1")
    _, omega, rho = min(candidates)
    return omega, rho


def gr_from_surface(surface, nu0, theta, kappa):
    """gauthier_rivaille's (omega, rho) from the first tenor's puts at its 2nd and
    4th strikes, at their quoted vols, and the term-structure nu0, theta, kappa."""
    sl = surface.slices[0]
    k1, k2 = sl.strikes[1], sl.strikes[3]
    p1, p2 = (gk_price(OptionSpec(surface.spot, sl.strikes[i], sl.tau, sl.r_d, sl.r_f,
                                  "put"), sl.vols.vols[i]) for i in (1, 3))
    return gauthier_rivaille(p1, p2, k1, k2, nu0, theta, kappa, sl.tau, surface.spot,
                             sl.r_d, sl.r_f)


# ---------------------------------------------------------------------------
# historical estimators
# ---------------------------------------------------------------------------

def guillaume_schoutens(vix_series, window_years, mode="SMA", latest_atm_strike=None):
    """(nu0, theta) from a vol-index series.

    nu0 is the latest squared level; theta a moving average of squared levels
    over 252 * window_years days (simple or exponentially weighted).  Passing
    latest_atm_strike switches theta to the long-dated option-implied variant.
    """
    v = np.asarray(vix_series, dtype=float)
    if v.size == 0:
        raise ShortSeries("empty series")
    if window_years <= 0.0:
        raise ShortSeries(f"window_years must be > 0: {window_years}")
    nu0 = float(v[-1] ** 2)
    if latest_atm_strike is not None:
        return nu0, float(latest_atm_strike ** 2)
    window = max(1, int(round(252 * window_years)))
    sq = v * v
    if mode == "SMA":
        theta = float(np.mean(sq[-window:]))
    elif mode == "EWMA":
        theta = float(_ewma(sq, window)[-1])
    else:
        raise InvariantViolation(f"mode must be SMA or EWMA: {mode!r}")
    return nu0, theta


def _ewma(x, window):
    """Recursive EWMA with decay 1 - 1/window, seeded at the first value."""
    lam = 1.0 - 1.0 / window
    out = np.empty_like(x)
    acc = x[0]
    out[0] = acc
    for i in range(1, len(x)):
        acc = (1.0 - lam) * x[i] + lam * acc
        out[i] = acc
    return out


def historical_omega_rho(vix_series, spot_series, model="heston"):
    """Daily EWMA estimates of (omega, rho) from vol-index and spot series.

    The variance model uses squared-index increments; the volatility model
    uses index increments, both over HIST_WINDOW = 63 days.  The first
    HIST_WINDOW - 1 outputs, so every output of a shorter series, are
    warm-up fallbacks: omega = index level (variance model) or half of it
    (vol model); rho = HIST_RHO_FALLBACK.
    """
    vix = np.asarray(vix_series, dtype=float)
    spot = np.asarray(spot_series, dtype=float)
    if vix.shape != spot.shape:
        raise ShortSeries("need aligned series")
    n = vix.size
    omega = np.empty(n)
    rho = np.empty(n)
    warm = min(n, HIST_WINDOW - 1)
    omega[:warm] = vix[:warm] if model == "heston" else 0.5 * vix[:warm]
    rho[:warm] = HIST_RHO_FALLBACK
    if warm == n:
        return omega, rho
    driver = vix * vix if model == "heston" else vix
    dv = np.diff(driver)
    dls = np.diff(np.log(spot))
    e_dv2 = _ewma(dv * dv, HIST_WINDOW)
    e_ds2 = _ewma(dls * dls, HIST_WINDOW)
    e_cross = _ewma(dls * dv, HIST_WINDOW)
    for t in range(warm, n):
        i = t - 1  # EWMA index over the diff series
        if model == "heston":
            omega[t] = math.sqrt(e_dv2[i]) / vix[t] if vix[t] > 0.0 else 0.0
        else:
            omega[t] = math.sqrt(e_dv2[i])
        denom = math.sqrt(e_ds2[i] * e_dv2[i])
        rho[t] = e_cross[i] / denom if denom > 0.0 else HIST_RHO_FALLBACK
    return omega, rho


# ---------------------------------------------------------------------------
# two-factor starting vectors
# ---------------------------------------------------------------------------

def factor_share(kind, nu0, theta):
    """A factor's (nu0, theta) in the equal-variance split of a one-factor
    curve between the two factors of model kind: half of each for CIR
    variances (bates2f), 1/sqrt(2) of each for OU volatilities (ouou), so
    the factors' variances add up to the curve's."""
    share = 2.0 if variance_factors(kind) else math.sqrt(2.0)
    return nu0 / share, theta / share


def evp_split(omega, rho, nu0, theta, kappa):
    """Equal-variance split: both factors carry half the variance curve."""
    nu0_k, theta_k = factor_share("bates2f", nu0, theta)
    return TwoFactorStart(
        kind="bates2f",
        nu0=(nu0_k, nu0_k),
        theta=(theta_k, theta_k),
        kappa=(kappa, kappa),
        omega=(omega, omega),
        rho=(rho, rho),
        pin_rho=False,
    )


def mevp_split(omega, rho, nu0, theta, kappa, target="ouou", rho_pin=RHO_PIN):
    """Modified equal-variance split with pinned opposite-sign correlations.

    omega_1 = omega (sqrt(1-rho^2) + rho), omega_2 = omega (sqrt(1-rho^2) - rho),
    floored at 0.001.  For the OU-volatility target the incoming omega is the
    one-factor estimate scaled by 1/sqrt(2).  Each factor takes its
    factor_share of the curve's (nu0, theta).
    """
    if omega <= 0.0 or abs(rho) >= 1.0:
        raise InvariantViolation(f"need omega > 0 and |rho| < 1: {omega}, {rho}")
    flags = []
    if target == "ouou":
        kind, omega_eff = "ouou", omega / math.sqrt(2.0)
    elif target == "bates_feller":
        kind, omega_eff = "bates2f", omega
    else:
        raise InvariantViolation(f"target must be ouou or bates_feller: {target!r}")
    nu0_k, theta_k = factor_share(kind, nu0, theta)
    s = math.sqrt(1.0 - rho * rho)
    om1 = omega_eff * (s + rho)
    om2 = omega_eff * (s - rho)
    if om1 < OMEGA_FLOOR:
        flags.append(f"omega_1 {om1:.6f} clamped to {OMEGA_FLOOR}")
        om1 = OMEGA_FLOOR
    if om2 < OMEGA_FLOOR:
        flags.append(f"omega_2 {om2:.6f} clamped to {OMEGA_FLOOR}")
        om2 = OMEGA_FLOOR
    return TwoFactorStart(
        kind=kind,
        nu0=(nu0_k, nu0_k),
        theta=(theta_k, theta_k),
        kappa=(kappa, kappa),
        omega=(om1, om2),
        rho=(rho_pin, -rho_pin),
        pin_rho=True,
        flags=tuple(flags),
    )


def two_factor_mixture_stats(v1, v2, om1, om2, rho1, rho2):
    """(omega_t, rho_t, v_R): variance-weighted vol-of-var and correlation."""
    if v1 < 0.0 or v2 < 0.0:
        raise InvariantViolation(f"factor variances must be >= 0: {v1}, {v2}")
    total = v1 + v2
    if total <= 0.0:
        raise ZeroTotalVariance("v1 + v2 = 0")
    om_t2 = (v1 * om1 * om1 + v2 * om2 * om2) / total
    rho_t = ((v1 * om1 * rho1 + v2 * om2 * rho2)
             / (math.sqrt(v1 * om1 * om1 + v2 * om2 * om2) * math.sqrt(total)))
    return math.sqrt(om_t2), rho_t, v1 / total
