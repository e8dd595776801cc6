"""The two-strike expansion coefficients around the printed expansion
variance, as fxsvol.estimators computed them before it expanded around the
integrated expected variance; kept as the oracle of a test that shows the
difference.

printed_gr_coefficients(strike, nu0, theta, kappa, tau, spot, r_d, r_f) takes
gr_coefficients' arguments and returns its GRCoefficients, with
w_tau = theta + (nu0 - theta)(1 - e^{kappa tau})/kappa.
"""

import math

from fxsvol.errors import NoValidRoot
from fxsvol.estimators import GRCoefficients, _bs_partials, _bs_put_forward


def printed_gr_coefficients(strike, nu0, theta, kappa, tau, spot, r_d, r_f):
    """Price-expansion coefficients (A, B, C, D) for one put strike.

    The expansion variance is w_tau = theta + (nu0 - theta)(1 - e^{kappa tau})/kappa
    as printed in the source method (exact at nu0 = theta, tau = 1).  The
    mixed-derivative coefficient of D pairs nu0 with q0 and squares the
    first-order coefficient; without both repairs the expansion cannot invert
    its own near-exact model prices.
    """
    w = theta + (nu0 - theta) * (1.0 - math.exp(kappa * tau)) / kappa
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
