"""charfn's _log1p_over and heston_terms as they were before each branch of
_log1p_over ran on its own nodes and heston_terms shared its common
subexpressions.

Kept verbatim as the oracles of fxsvol.charfn: both must give these
functions' results bit for bit, signed zeros included.
"""

import numpy as np

from fxsvol.charfn import CFTerms, _aj_bj, _principal_sqrt, _sq


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
    d = _principal_sqrt(beta * beta - om2 * X)
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
    return CFTerms(A=A, B=B, C=np.zeros_like(A), beta=beta, d=d, G=G, a=a, b=b)
