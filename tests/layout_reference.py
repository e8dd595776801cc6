"""The maps between simplex coordinates and model parameters as they were
before one calibrate.Layout replaced them, kept as its oracle.

- transform_params, untransform_params, params_to_vector, vector_to_params
  (with and without pinned_rho), _strip_rho and start_to_params: literal
  copies of the old calibrate functions.
- tied_x0, tied_params and tied_stage1_params: two_stage_job's stage-1
  start, its tied_params closure and its rebuild of the stage-1 parameters
  (the Feller truncation included).
- risk_x0 and risk_params: risk_job's x0 and its to_params closure.

Layout must give the same parameter sets, coordinates and errors bit for
bit: the same math.exp/math.tanh/math.log/math.atanh calls in the same
coordinate order.
"""

import math

import numpy as np

from fxsvol.calibrate import feller_truncate_omega
from fxsvol.charfn import Factor, HestonParams, SchobelZhuParams, TwoFactorParams


def transform_params(nu0, theta, omega, kappa, rho):
    """Model params -> unconstrained vector (log for positives, atanh for rho)."""
    return np.array([math.log(nu0), math.log(theta), math.log(omega),
                     math.log(kappa), math.atanh(rho)])


def untransform_params(x):
    """Unconstrained vector -> (nu0, theta, omega, kappa, rho)."""
    return (math.exp(x[0]), math.exp(x[1]), math.exp(x[2]), math.exp(x[3]),
            math.tanh(x[4]))


def params_to_vector(kind, params):
    return np.concatenate([transform_params(f.nu0, f.theta, f.omega, f.kappa, f.rho)
                           for f in params.factors])


def vector_to_params(kind, x, pinned_rho=None):
    if kind == "heston":
        nu0, theta, omega, kappa, rho = untransform_params(x)
        return HestonParams(nu0, theta, kappa, omega, rho)
    if kind == "sz":
        nu0, theta, omega, kappa, rho = untransform_params(x)
        return SchobelZhuParams(nu0, theta, kappa, omega, rho)
    factors = []
    for k in range(2):
        if pinned_rho is None:
            nu0, theta, omega, kappa, rho = untransform_params(x[5 * k:5 * k + 5])
        else:
            nu0, theta, omega, kappa = (math.exp(v) for v in x[4 * k:4 * k + 4])
            rho = pinned_rho[k]
        factors.append(Factor(nu0, theta, kappa, omega, rho))
    return TwoFactorParams(kind, factors[0], factors[1])


def _strip_rho(x10):
    """Drop the two rho coordinates from a 10-vector (pinned-rho mode)."""
    return np.concatenate([x10[0:4], x10[5:9]])


def start_to_params(kind, start):
    """TwoFactorStart -> TwoFactorParams."""
    f1 = Factor(start.nu0[0], start.theta[0], start.kappa[0], start.omega[0],
                start.rho[0])
    f2 = Factor(start.nu0[1], start.theta[1], start.kappa[1], start.omega[1],
                start.rho[1])
    return TwoFactorParams(kind, f1, f2)


def tied_x0(symmetric_start):
    nu0, theta, kappa, omega, rho = symmetric_start
    return transform_params(nu0, theta, omega, kappa, rho)


def tied_params(kind, x):
    n, t, om, ka, rh = untransform_params(x)
    f = Factor(n, t, ka, om, rh)
    return TwoFactorParams(kind, f, f)


def tied_stage1_params(kind, x, feller):
    n, t, om, ka, rh = untransform_params(x)
    if feller and kind == "bates2f":
        om = feller_truncate_omega(om, t, ka)
    f = Factor(n, t, ka, om, rh)
    return TwoFactorParams(kind, f, f)


def risk_x0(base_params):
    return np.array([math.log(base_params.nu0), math.log(base_params.theta),
                     math.log(base_params.kappa)])


def risk_params(kind, base_params, x):
    cls = HestonParams if kind == "heston" else SchobelZhuParams
    nu0, theta, kappa = (math.exp(v) for v in x)
    return cls(nu0=nu0, theta=theta, kappa=kappa, omega=base_params.omega,
               rho=base_params.rho)
