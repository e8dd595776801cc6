"""The calibration-risk loop as it was before it became a job.

Kept as the oracle of fxsvol.calibrate.calibration_risk and risk_job: one
scalar Nelder-Mead run per cost kind, through the reference loop of
nm_reference.py, must give the same per-parameter spreads, parameters and
NMResults bit for bit.
"""

import math

import numpy as np

from fxsvol.calibrate import (
    FULL_MAX_ITER_1F,
    CalibrationRisk,
    CostSpec,
    NelderMeadConfig,
    SurfaceCost,
)
from fxsvol.charfn import HestonParams, SchobelZhuParams
from fxsvol.errors import InvariantViolation
from fxsvol.pricer import DEFAULT_GRID

from nm_reference import reference_nelder_mead as nelder_mead


def reference_calibration_risk(kind, surface, base_params,
                               cost_kinds=("mse", "mae", "mape"),
                               max_iter=FULL_MAX_ITER_1F, grid=DEFAULT_GRID):
    if kind not in ("heston", "sz"):
        raise InvariantViolation("risk protocol runs on one-factor models")
    results = []
    for ck in cost_kinds:
        ctx = SurfaceCost(surface, CostSpec(kind=ck), grid)

        def objective(x):
            nu0, theta, kappa = (math.exp(v) for v in x)
            params = _with_ts(kind, base_params, nu0, theta, kappa)
            return ctx(kind, params)

        x0 = np.array([math.log(base_params.nu0), math.log(base_params.theta),
                       math.log(base_params.kappa)])
        res = nelder_mead(objective, x0, NelderMeadConfig(max_iter=max_iter))
        nu0, theta, kappa = (math.exp(v) for v in res.x)
        results.append((ck, _with_ts(kind, base_params, nu0, theta, kappa), res))
    spreads = {}
    for name in ("nu0", "theta", "kappa"):
        vals = [getattr(p, name) for _, p, _ in results]
        spreads[name] = max(abs(a - b) for a in vals for b in vals)
    return CalibrationRisk(per_parameter=spreads, results=tuple(results))


def _with_ts(kind, base, nu0, theta, kappa):
    cls = HestonParams if kind == "heston" else SchobelZhuParams
    return cls(nu0=nu0, theta=theta, kappa=kappa, omega=base.omega, rho=base.rho)
