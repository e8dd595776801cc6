"""The scalar Nelder-Mead loop as it was before the body became a generator,
and the scalar driver of calibration jobs built on it.

reference_nelder_mead is kept verbatim as the oracle of
fxsvol.calibrate.nelder_mead_steps, its coefficients 1, 2, 1/2 and 1/2
written as literals rather than read from the module under test: every
caller that runs the generator (nelder_mead, lockstep) must give its x,
fx, iterations and converged bit for bit, and raise its errors.  reference_run_job is the oracle of
run_job and run_lanes: each fit of a job runs that loop, one point at a
time, over its context's SurfaceCost.__call__.
"""

import math

import numpy as np

from fxsvol.calibrate import NMResult, NelderMeadConfig
from fxsvol.errors import NonFiniteObjective


def _simplex_volume(points):
    edges = points[1:] - points[0]
    n = edges.shape[0]
    return abs(np.linalg.det(edges)) / math.factorial(n)


def reference_nelder_mead(f, x_start, config=NelderMeadConfig()):
    x0 = np.asarray(x_start, dtype=float)
    n = x0.size
    f0 = float(f(x0))
    if not math.isfinite(f0):
        raise NonFiniteObjective(f"objective not finite at start: {f0}")

    points = [x0 + (0.05 if x0[i] != 0.0 else 0.00025) * _unit(n, i) for i in range(n)]
    points.append(x0.copy())
    points = np.asarray(points)
    values = np.empty(n + 1)
    values[:n] = [_eval(f, p) for p in points[:n]]
    values[n] = f0

    iterations = 0
    converged = False
    while True:
        order = np.argsort(values, kind="stable")
        points = points[order]
        values = values[order]
        iterations += 1
        spread = abs(values[-1] - values[0])
        vol = _simplex_volume(points)
        hit1, hit2 = spread < config.eps1, vol < config.eps2
        if (hit1 or hit2) if config.stop_any else (hit1 and hit2):
            converged = True
            break
        if iterations > config.max_iter:
            break
        centroid = points[:-1].mean(axis=0)
        xr = centroid + 1.0 * (centroid - points[-1])
        fr = _eval(f, xr)
        if values[0] <= fr <= values[-2]:
            points[-1], values[-1] = xr, fr
            continue
        if fr <= values[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = _eval(f, xe)
            if fe <= fr:
                points[-1], values[-1] = xe, fe
            else:
                points[-1], values[-1] = xr, fr
            continue
        xc = centroid + 0.5 * (points[-1] - centroid)
        fc = _eval(f, xc)
        if fc <= values[-1]:
            points[-1], values[-1] = xc, fc
            continue
        points[1:] = points[0] + 0.5 * (points[1:] - points[0])
        values[1:] = [_eval(f, p) for p in points[1:]]

    order = np.argsort(values, kind="stable")
    return NMResult(x=points[order[0]].copy(), fx=float(values[order[0]]),
                    iterations=iterations, converged=converged)


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _eval(f, x):
    v = float(f(x))
    if math.isnan(v):
        raise NonFiniteObjective(f"objective NaN at {x}")
    return v


def reference_run_job(job):
    """A calibration job's result, its fits run one after another."""
    try:
        fit = next(job)
        while True:
            def objective(x, fit=fit):
                return fit.ctx(fit.layout.kind, fit.layout.params(x), feller=fit.feller)

            fit = job.send(reference_nelder_mead(objective, fit.layout.x0, fit.config))
    except StopIteration as stop:
        return stop.value
