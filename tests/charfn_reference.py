"""Reference forms of fxsvol.charfn, kept as oracles for its tests.

- reference_log1p_over: _log1p_over as it was before its series became
  Horner products and its log branch real float64 ufuncs: the series in
  powers of w and the complex log of the rounded 1 + w.  It is the old side
  of the tests that bound how far that change moved the log term and the
  prices.
- reference_heston_terms and reference_principal_sqrt: heston_terms and the
  principal square root as they were before heston_terms shared its common
  subexpressions and the square root lost its defensive negation.
- reference_sz_terms, heston_cf, sz_cf, bates2f_cf, ouou_cf,
  reference_jump_multiplier and reference_cf_factory: sz_terms, the four
  per-model CFs, the jump multiplier and cf_factory as they were before
  every model became one affine body over its factors, at j = 2 (the only
  value any pricer passed) and eta = 0.  The CFs call the reference terms.
- lord_kahl_sz_cf: the Lord-Kahl form of the Schobel-Zhu exponent, which
  sz_terms no longer offers.
- ode_oracle_terms: the exponent ODEs integrated by fixed-step RK4.
- reference_attari_calls: the single-integral kernel as it was when every CF
  was the CF of log S_T, cf(u, x0, tau, r_d, r_f): it cancelled the CF's
  forward phase with exp(-i u (x0 + carry)) and applied the grid factors
  one by one.  With reference_cf_factory it is the drift-form pricer that
  the drift-centred one is held to.
- UnfoldedAttariLanes: AttariLanes as it was before the grid's
  low-frequency fold, pricing cf(u, tau) * g on every grid node against the
  oscillation tensor exp(-i u ell).  It is the oracle the folded kernel is
  held to.

The reference terms call the production _log1p_over.  They keep the drift
term, which the production terms no longer carry: fxsvol.charfn's terms and
CFs are those of log(S_T / F_T), and give the second and third groups'
results less their forward phase within the bounds test_charfn states.  reference_log1p_over agrees with _log1p_over within the error
bounds test_charfn states against a 40-digit oracle, lord_kahl_sz_cf to
rounding only, and ode_oracle_terms to the RK4 error.
"""

import math

import numpy as np

from fxsvol.charfn import CFTerms, ParamLanes, _exp_checked, _log1p_over, _sq
from fxsvol.errors import FxsvolError, InvariantViolation
from fxsvol.pricer import DEFAULT_GRID


class StepUnderflow(FxsvolError):
    """ODE oracle called with too few integration steps."""


def reference_principal_sqrt(z):
    d = np.sqrt(z)
    # principal sqrt already has Re >= 0; negate defensively if a backend deviates
    return np.where(d.real < 0.0, -d, d)


def reference_log1p_over(w):
    """log(1 + w) / w for complex w, stable as w -> 0 (value 1)."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-2
    series = (1.0 - w / 2.0 + w ** 2 / 3.0 - w ** 3 / 4.0
              + w ** 4 / 5.0 - w ** 5 / 6.0 + w ** 6 / 7.0)
    safe = np.where(small, 1.0, w)
    return np.where(small, series, np.log(1.0 + safe) / safe)


def reference_heston_terms(u, tau, p, r_d=0.0, r_f=0.0, drift_weight=1.0):
    """A, B of the CIR-variance exponent, G-form with exp(-d tau)."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = -0.5, p.kappa
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = b - p.rho * p.omega * iu
    d = reference_principal_sqrt(beta * beta - om2 * X)
    bpd = beta + d
    G = om2 * X / (bpd * bpd)            # (beta - d) / (beta + d), cancellation-free
    E = np.exp(-d * tau)
    denom = 1.0 - G * E
    B = (X / bpd) * (1.0 - E) / denom
    w = G * (1.0 - E) / (1.0 - G)
    # log((1 - G E)/(1 - G)) / omega^2, with G/omega^2 = X/bpd^2 kept exact
    log_ratio_over_om2 = (X / (bpd * bpd)) * ((1.0 - E) / (1.0 - G)) * _log1p_over(w)
    A = (drift_weight * (r_d - r_f) * iu * tau
         + p.kappa * p.theta * (X * tau / bpd - 2.0 * log_ratio_over_om2))
    return CFTerms(A=A, B=B, C=np.zeros_like(A))


def reference_sz_terms(u, tau, p, r_d=0.0, r_f=0.0, drift_weight=1.0):
    """A, B, C of the OU-volatility exponent."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = -0.5, p.kappa
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = 2.0 * (b - 1j * p.omega * p.rho * u)
    d = np.sqrt(beta * beta - 4.0 * om2 * X)   # the principal root, Re d >= +0
    bpd = beta + d
    bmd = 4.0 * om2 * X / bpd            # beta - d, cancellation-free
    G = bmd / bpd
    E = np.exp(-d * tau)
    Eh = np.exp(-0.5 * d * tau)
    denom = 1.0 - G * E
    C = (X / bpd) * (1.0 - E) / denom
    B = p.kappa * p.theta * (4.0 * X / bpd) * (1.0 - Eh) ** 2 / (d * denom)
    w = G * (1.0 - E) / (1.0 - G)
    log_ratio = w * _log1p_over(w)       # log((1 - G E)/(1 - G))
    A_tilde = (drift_weight * (r_d - r_f) * iu * tau
               + 0.25 * bmd * tau - 0.5 * log_ratio)
    inner = (0.5 * tau * bpd
             + (4.0 * beta * Eh - (2.0 * beta - d) * E - 2.0 * beta - d)
             / (d * denom))
    A_hat = _sq(p.kappa * p.theta) * (4.0 * X / bpd) / (d * d) * inner
    return CFTerms(A=A_tilde + A_hat, B=B, C=C)


def heston_cf(u, x0, tau, r_d, r_f, p):
    """phi_j(u) = exp(i u x0 + A + B nu0) for the CIR-variance model."""
    t = reference_heston_terms(u, tau, p, r_d=r_d, r_f=r_f)
    return _exp_checked(1j * np.asarray(u, dtype=complex) * x0 + t.A + t.B * p.nu0)


def sz_cf(u, x0, tau, r_d, r_f, p):
    """phi_j(u) = exp(i u x0 + A + B nu0 + C nu0^2) for the OU-vol model."""
    t = reference_sz_terms(u, tau, p, r_d=r_d, r_f=r_f)
    return _exp_checked(1j * np.asarray(u, dtype=complex) * x0
                        + t.A + t.B * p.nu0 + t.C * _sq(p.nu0))


def bates2f_cf(u, x0, tau, r_d, r_f, p):
    """Two independent CIR variance factors; each A_k carries half the drift."""
    if p.kind != "bates2f":
        raise InvariantViolation(f"expected bates2f params, got {p.kind}")
    expo = 1j * np.asarray(u, dtype=complex) * x0
    for f in p.factors:
        t = reference_heston_terms(u, tau, f, r_d=r_d, r_f=r_f, drift_weight=0.5)
        expo = expo + t.A + t.B * f.nu0
    return _exp_checked(expo)


def ouou_cf(u, x0, tau, r_d, r_f, p):
    """Two independent OU volatility factors; each A_k carries half the drift."""
    if p.kind != "ouou":
        raise InvariantViolation(f"expected ouou params, got {p.kind}")
    expo = 1j * np.asarray(u, dtype=complex) * x0
    for f in p.factors:
        t = reference_sz_terms(u, tau, f, r_d=r_d, r_f=r_f, drift_weight=0.5)
        expo = expo + t.A + t.B * f.nu0 + t.C * _sq(f.nu0)
    return _exp_checked(expo)


def reference_jump_multiplier(u, tau, jp):
    """Compound-Poisson log-normal jump factor multiplying any base CF."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a = -0.5
    log1k = np.log1p(jp.khat)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        inner = np.exp(iu * log1k + jp.delta ** 2 * (a * iu + 0.5 * iu * iu))
        expo = (jp.lam * tau * (1.0 + jp.khat) ** (a + 0.5) * (inner - 1.0)
                - jp.lam * jp.khat * iu * tau)
    return _exp_checked(expo)


def reference_cf_factory(kind, params, jump=None):
    """Bind a model to a closure cf(u, x0, tau, r_d, r_f)."""
    if isinstance(params, ParamLanes) and kind in ("heston", "sz"):
        params = params.factors[0]
    base = {
        "heston": heston_cf,
        "sz": sz_cf,
        "bates2f": bates2f_cf,
        "ouou": ouou_cf,
    }[kind]

    def cf(u, x0, tau, r_d, r_f):
        phi = base(u, x0, tau, r_d, r_f, params)
        if jump is not None:
            phi = phi * reference_jump_multiplier(u, tau, jump)
        return phi

    return cf


def lord_kahl_sz_cf(u, x0, tau, r_d, r_f, p):
    """sz_cf with the theta-dependent part of A in the form of Lord and Kahl."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = -0.5, p.kappa
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = 2.0 * (b - 1j * p.omega * p.rho * u)
    d = np.sqrt(beta * beta - 4.0 * om2 * X)
    bpd = beta + d
    bmd = 4.0 * om2 * X / bpd
    G = bmd / bpd
    E = np.exp(-d * tau)
    Eh = np.exp(-0.5 * d * tau)
    denom = 1.0 - G * E
    C = (X / bpd) * (1.0 - E) / denom
    B = p.kappa * p.theta * (4.0 * X / bpd) * (1.0 - Eh) ** 2 / (d * denom)
    w = G * (1.0 - E) / (1.0 - G)
    A_tilde = (r_d - r_f) * iu * tau + 0.25 * bmd * tau - 0.5 * w * _log1p_over(w)
    inner = (beta * (d * tau - 4.0) + d * (d * tau - 2.0)
             + ((d * d - 2.0 * beta * beta) / bpd * Eh + 2.0 * beta)
             * 4.0 * Eh / denom)
    A_hat = (4.0 * X / bpd) * _sq(p.kappa * p.theta) / (2.0 * d ** 3) * inner
    return _exp_checked(iu * x0 + A_tilde + A_hat + B * p.nu0 + C * _sq(p.nu0))


def ode_oracle_terms(model, u, tau, params, r_d=0.0, r_f=0.0, steps=2000,
                     drift_weight=1.0):
    """Integrate the exponent ODE system numerically for testing.

    model "heston": dA = w (r_d - r_f) iu + B kappa theta,
                    dB = a iu - u^2/2 + (rho omega iu - b) B + omega^2 B^2 / 2.
    model "sz":     dA = w (r_d - r_f) iu + B kappa theta + omega^2 B^2/2 + omega^2 C,
                    dB = -b B + rho omega iu B + 2 omega^2 B C + 2 kappa theta C,
                    dC = -2 b C + 2 rho omega iu C + a iu - u^2/2 + 2 omega^2 C^2,
    with a = -1/2 and b = kappa.

    Two-factor models are two independent one-factor systems with
    drift_weight = 1/2; call once per factor.
    """
    if steps < 1000:
        raise StepUnderflow(f"need >= 1000 steps, got {steps}")
    u, tau_arr = np.broadcast_arrays(np.asarray(u, dtype=complex),
                                     np.asarray(tau, dtype=float))
    u = u.astype(complex)
    a, b = -0.5, params.kappa
    iu = 1j * u
    om2 = params.omega ** 2
    kt = params.kappa * params.theta
    drift = drift_weight * (r_d - r_f) * iu
    const = a * iu - 0.5 * u * u
    lin_b = params.rho * params.omega * iu - b

    if model == "heston":
        def deriv(A, B, C):
            return (drift + kt * B,
                    const + lin_b * B + 0.5 * om2 * B * B,
                    np.zeros_like(A))
    elif model == "sz":
        def deriv(A, B, C):
            return (drift + kt * B + 0.5 * om2 * B * B + om2 * C,
                    lin_b * B + 2.0 * om2 * B * C + 2.0 * kt * C,
                    const + 2.0 * lin_b * C + 2.0 * om2 * C * C)
    else:
        raise InvariantViolation(f"unknown oracle model {model!r}")

    A = np.zeros_like(u)
    B = np.zeros_like(u)
    C = np.zeros_like(u)
    h = tau_arr / steps
    for _ in range(steps):
        k1 = deriv(A, B, C)
        k2 = deriv(A + 0.5 * h * k1[0], B + 0.5 * h * k1[1], C + 0.5 * h * k1[2])
        k3 = deriv(A + 0.5 * h * k2[0], B + 0.5 * h * k2[1], C + 0.5 * h * k2[2])
        k4 = deriv(A + h * k3[0], B + h * k3[1], C + h * k3[2])
        A = A + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        B = B + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        C = C + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return CFTerms(A=A, B=B, C=C)


def reference_attari_calls(cf, spots, strikes, taus, r_ds, r_fs, grid=DEFAULT_GRID):
    """(L, T, P) call prices of AttariLanes(spots, strikes, taus, r_ds,
    r_fs, grid).calls as it was, for a drift-form cf(u, x0, tau, r_d, r_f)."""
    _, u, weights = grid.nodes()
    uc, grid_num, grid_den = u.astype(complex), 1.0 - 1j / u, 1.0 + u * u
    S = np.asarray(spots, dtype=float).reshape(-1, 1, 1)
    x0 = np.array([math.log(s) for s in S.ravel().tolist()]).reshape(S.shape)
    tau, r_d, r_f = (np.asarray(v, dtype=float)[:, :, None] for v in (taus, r_ds, r_fs))
    strikes = np.asarray(strikes, dtype=float)
    carry = (r_d - r_f) * tau
    shift = np.exp(-1j * u * (x0 + carry))
    osc = np.exp(-1j * ((np.log(strikes / S) - carry)[..., None] * u))
    df_f = [math.exp(x) for x in (-r_f * tau).ravel().tolist()]
    df_d = [math.exp(x) for x in (-r_d * tau).ravel().tolist()]
    s_df = S * np.reshape(df_f, tau.shape)
    k_df = strikes * np.reshape(df_d, tau.shape)
    phi = cf(uc, x0, tau, r_d, r_f) * shift
    kernel = phi * grid_num / grid_den * u * weights
    integrals = (osc * kernel[:, :, None, :]).real.sum(axis=3)
    return s_df - k_df * (0.5 + integrals / math.pi)


class UnfoldedAttariLanes:
    """AttariLanes(spots, strikes, taus, r_ds, r_fs, grid) as it was before
    the low-frequency fold: calls prices cf(u, tau) * g on all grid nodes."""

    def __init__(self, spots, strikes, taus, r_ds, r_fs, grid=DEFAULT_GRID):
        _, u, weights = grid.nodes()
        self.uc, self.g = u.astype(complex), (1.0 - 1j / u) / (1.0 + u * u) * u * weights
        S = np.asarray(spots, dtype=float).reshape(-1, 1, 1)
        self.tau, r_d, r_f = (np.asarray(v, dtype=float)[:, :, None]
                              for v in (taus, r_ds, r_fs))
        strikes = np.asarray(strikes, dtype=float)
        ell = np.log(strikes / S) - (r_d - r_f) * self.tau
        self.osc = np.exp(-1j * (ell[..., None] * u))
        df_f = [math.exp(x) for x in (-r_f * self.tau).ravel().tolist()]
        df_d = [math.exp(x) for x in (-r_d * self.tau).ravel().tolist()]
        self.s_df = S * np.reshape(df_f, self.tau.shape)
        self.k_df = strikes * np.reshape(df_d, self.tau.shape)

    def calls(self, cf):
        kernel = cf(self.uc, self.tau) * self.g
        integrals = (self.osc * kernel[:, :, None, :]).real.sum(axis=3)
        return self.s_df - self.k_df * (0.5 + integrals / math.pi)
