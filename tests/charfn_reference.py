"""charfn's _log1p_over, heston_terms and principal square root as they were
before each branch of _log1p_over ran on its own nodes, heston_terms shared
its common subexpressions and the square root lost its defensive negation;
and the Lord-Kahl form of the Schobel-Zhu exponent, which sz_terms no longer
offers.

The first three are kept verbatim as the oracles of fxsvol.charfn: it must
give their results bit for bit, signed zeros included.  reference_sz_cf
agrees with sz_cf to rounding only.
"""

import numpy as np

from fxsvol.charfn import CFTerms, _aj_bj, _exp_checked, _log1p_over, _sq


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


def reference_heston_terms(u, tau, p, j=2, r_d=0.0, r_f=0.0, drift_weight=1.0):
    """A, B of the CIR-variance exponent, G-form with exp(-d tau)."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = _aj_bj(j, p.kappa, p.omega, p.rho, p.eta)
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
    log_ratio_over_om2 = (X / (bpd * bpd)) * ((1.0 - E) / (1.0 - G)) * reference_log1p_over(w)
    A = (drift_weight * (r_d - r_f) * iu * tau
         + p.kappa * p.theta * (X * tau / bpd - 2.0 * log_ratio_over_om2))
    return CFTerms(A=A, B=B, C=np.zeros_like(A))


def reference_sz_cf(u, x0, tau, r_d, r_f, p, j=2):
    """sz_cf with the theta-dependent part of A in the form of Lord and Kahl."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = _aj_bj(j, p.kappa, p.omega, p.rho, p.eta)
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
