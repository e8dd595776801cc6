"""Derivative-free calibration machinery.

A literal Nelder-Mead (reflection 1, expansion 2, contraction 1/2, shrink 1/2,
simplex seeded from the start point with 0.05/0.00025 offsets) minimizes
vega-weighted price or implied-vol cost functions.  Pipelines cover
variance/vol term-structure fits, full-surface calibration for one- and
two-factor models, two-stage starts, outlier recalibration and the
cross-cost-function calibration-risk protocol.
Every surface fit, full, two-stage or risk, runs as a lane of a lockstep
Nelder-Mead (run_lanes for many surfaces, run_job for one), each lane bit
for bit its own run.  A fit's simplex coordinates are one Layout: per
factor, the free fields among (nu0, theta, omega, kappa, rho), log of a
positive field and atanh of rho, the rest pinned at a base value and the
factors optionally tied.  The full fit frees every field, the modified
equal-variance start pins rho, the two-stage start ties the factors and
the calibration-risk protocol pins omega and rho.
"""

from __future__ import annotations

import bisect
import copy
import functools
import math
import operator
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace

import numpy as np

from .charfn import (
    Factor,
    ParamLanes,
    cf_factory,
    factor_fields,
    feller_holds,
    model_params,
    valid_factors,
    variance_factors,
)
from .errors import FxsvolError, InvariantViolation, NonFiniteObjective, NumericOverflow
from .moments import heston_total_variance
from .pricer import (
    DEFAULT_GRID,
    AttariLanes,
    GKCells,
    OptionSpec,
    attari_strip,  # noqa: F401  (perfbench's tracer patches calibrate.attari_strip)
    bs_vega,
    implied_vol,
)

FELLER_PENALTY = 999.0
VEGA_FLOOR = 1e-8

# the literal Nelder-Mead coefficients: reflection, expansion, contraction
# and shrink
NM_ALPHA = 1.0
NM_GAMMA = 2.0
NM_RHO_C = 0.5
NM_SIGMA_S = 0.5

COST_KINDS = ("mse", "mae", "mape")

FULL_MAX_ITER_1F = 1600
FULL_MAX_ITER_2F = 800


# ---------------------------------------------------------------------------
# Nelder-Mead
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NelderMeadConfig:
    eps1: float = 1e-10
    eps2: float = 1e-12
    max_iter: int = FULL_MAX_ITER_1F
    stop_any: bool = False  # OR instead of AND in the two-tolerance stop rule

    def __post_init__(self):
        if self.max_iter < 0:
            raise InvariantViolation(f"bad Nelder-Mead constants {self}")


@dataclass(frozen=True)
class NMResult:
    x: np.ndarray
    fx: float
    iterations: int
    converged: bool


def _simplex_volume(points):
    vertices = np.array(points)
    edges = vertices[1:] - vertices[0]
    return abs(np.linalg.det(edges)) / math.factorial(edges.shape[0])


def nelder_mead_steps(x_start, config=NelderMeadConfig()):
    """The Nelder-Mead body as a generator; returns the NMResult.

    The initial simplex is x_start, any sequence of floats, plus offsets of
    0.05 (0.00025 where the start coordinate is zero), with x_start itself
    kept as the (n+1)-th vertex.  A point is a tuple of Python floats: each
    step yields the list of points it needs, the vertices themselves (a
    tuple cannot change), and is sent an iterable of their objective values
    in point order; a value is read only when the step needs it, so an
    iterable that evaluates, or raises, as it goes gives the errors of a
    plain loop.  An error names its point as the float64 array numpy prints.

    Every step is the IEEE operation, in the same order, of the numpy
    vector form it stands for: x0 + step * e_i, the centroid as the rows
    added in order from the first then divided by n, and c + alpha * (c -
    worst) and the like.  The simplex volume is np.linalg.det of the edge
    array, computed only when the stop rule needs it.  The vertices are
    kept in the order a stable sort of their values gives.  They are sorted
    in full after the initial simplex and after a shrink; any other step
    replaces only the worst vertex, and the new one goes after the vertices
    of equal value (bisect_right).

    Fixed-point stop: an iteration's step depends on the vertices and their
    values alone, so once one leaves every vertex and value bit for bit as
    it found them (signed zeros included), every later iteration would do
    the same until max_iter.  The run then returns what max_iter would
    return, with no further evaluations: the same best vertex and value,
    iterations max_iter + 1 and converged False.  This takes the objective
    to give a point the same value every time.
    """
    start = tuple(map(float, x_start))
    n = len(start)
    points = [_offset(start, i) for i in range(n)]
    got = iter((yield [start, *points]))
    f0 = float(next(got))
    if not math.isfinite(f0):
        raise NonFiniteObjective(f"objective not finite at start: {f0}")
    values = [_checked(v, p) for v, p in zip(got, points)]
    points.append(start)
    values.append(f0)
    points, values = _sorted(points, values)

    alpha, gamma, rho_c, sigma_s = NM_ALPHA, NM_GAMMA, NM_RHO_C, NM_SIGMA_S
    iterations = 0
    converged = False
    while True:
        iterations += 1
        hit1 = abs(values[-1] - values[0]) < config.eps1
        if config.stop_any:
            stop = hit1 or _simplex_volume(points) < config.eps2
        else:
            stop = hit1 and _simplex_volume(points) < config.eps2
        if stop:
            converged = True
            break
        if iterations > config.max_iter:
            break
        centroid = [functools.reduce(operator.add, col) / n for col in zip(*points[:-1])]
        worst = points[-1]
        xr = tuple(c + alpha * (c - w) for c, w in zip(centroid, worst))
        fr = _checked(*(yield [xr]), xr)
        if values[0] <= fr <= values[-2]:
            moved = _replace_worst(points, values, xr, fr)
        elif fr <= values[0]:
            xe = tuple(c + gamma * (r - c) for c, r in zip(centroid, xr))
            fe = _checked(*(yield [xe]), xe)
            moved = (_replace_worst(points, values, xe, fe) if fe <= fr
                     else _replace_worst(points, values, xr, fr))
        else:
            xc = tuple(c + rho_c * (w - c) for c, w in zip(centroid, worst))
            fc = _checked(*(yield [xc]), xc)
            if fc <= values[-1]:
                moved = _replace_worst(points, values, xc, fc)
            else:
                best = points[0]
                shrunk = [tuple(b + sigma_s * (p - b) for b, p in zip(best, q))
                          for q in points[1:]]
                fs = [_checked(v, p) for v, p in zip((yield shrunk), shrunk)]
                moved = not (all(map(_same_bits, shrunk, points[1:]))
                             and _same_bits(fs, values[1:]))
                points, values = _sorted([best, *shrunk], [values[0], *fs])
        if not moved:
            iterations = config.max_iter + 1
            break

    return NMResult(x=np.array(points[0]), fx=values[0], iterations=iterations,
                    converged=converged)


def _offset(start, i):
    """Vertex i of the initial simplex: start + step * e_i, coordinate by
    coordinate, so the others get + 0.0 and a -0.0 among them becomes 0.0."""
    step = 0.05 if start[i] != 0.0 else 0.00025
    return tuple(x + (step if j == i else 0.0) for j, x in enumerate(start))


def _sorted(points, values):
    """The vertices and their values in stable-sort order of the values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return [points[i] for i in order], [values[i] for i in order]


def _replace_worst(points, values, x, fx):
    """Drop the worst (last) vertex and put (x, fx) where a stable sort of
    the others plus it, appended last, would: after every equal value.
    Returns whether that moved anything: not when (x, fx) is the worst
    vertex and value bit for bit and goes last again."""
    k = bisect.bisect_right(values, fx, 0, len(values) - 1)
    if k == len(values) - 1 and _same_bits([fx, *x], [values[-1], *points[-1]]):
        return False
    points.pop()
    points.insert(k, x)
    values.pop()
    values.insert(k, fx)
    return True


def _same_bits(a, b):
    """Whether the float lists (or tuples) a and b hold the same bits: equal,
    zeros of the same sign (a NaN differs unless it is the same object)."""
    return a == b and all(math.copysign(1.0, u) == math.copysign(1.0, v)
                          for u, v in zip(a, b))


def nelder_mead(f, x_start, config=NelderMeadConfig()):
    """Minimize f from x_start with the fixed-constant simplex scheme
    (nelder_mead_steps, evaluating one point at a time, each handed to f
    as the simplex's own tuple of Python floats)."""
    steps = nelder_mead_steps(x_start, config)
    try:
        points = next(steps)
        while True:
            points = steps.send(f(x) for x in points)
    except StopIteration as stop:
        return stop.value


def _checked(v, x):
    v = float(v)
    if math.isnan(v):
        raise NonFiniteObjective(f"objective NaN at {np.array(x)}")
    return v


# ---------------------------------------------------------------------------
# simplex coordinates
# ---------------------------------------------------------------------------

# a factor's fields in coordinate order, and each one's place in Factor's
# (nu0, theta, kappa, omega, rho); the simplex offsets and the stable-sort
# tie-breaks of Nelder-Mead depend on this order
COORDS = ("nu0", "theta", "omega", "kappa", "rho")
_SLOT = {"nu0": 0, "theta": 1, "kappa": 2, "omega": 3, "rho": 4}


class Layout:
    """The simplex coordinates of one fit's model parameters.

    factors are the base parameters, one object with Factor's fields per
    model factor.  Per factor, each field named in free is a coordinate, in
    COORDS order: log of a positive field, atanh of rho; every other field
    stays at its base value.  With tied, all factors share the coordinates
    of the first.  x0 is the base's coordinates, a float64 array;
    fields(x) gives the factors' (nu0, theta, kappa, omega, rho) tuples at
    coordinates x, any sequence of floats (a simplex point's tuple is read
    as it is), checked by charfn's one validation rule, and params(x) the
    parameter set (charfn.model_params) they make.  math.exp and
    math.tanh map the coordinates back, so a coordinate that overflows a
    float raises OverflowError, and a point outside the rule raises
    model_params' own InvariantViolation.  The index plan is built here,
    once per fit.
    """

    def __init__(self, kind, factors, free=COORDS, tied=False):
        self.kind = kind
        base = [factor_fields(f) for f in factors]
        blocks, self._copies = (base[:1], len(base)) if tied else (base, 1)
        names = [name for name in COORDS if name in free]
        plan = [(k, _SLOT[name], math.tanh if name == "rho" else math.exp)
                for k in range(len(blocks)) for name in names]
        self.x0 = np.array([(math.atanh if inverse is math.tanh else math.log)(
            blocks[k][slot]) for k, slot, inverse in plan])
        # the blocks' fields in one flat list, and each coordinate's place
        # in it and its map back
        self._base = [v for f in blocks for v in f]
        self._plan = [(5 * k + slot, inverse) for k, slot, inverse in plan]

    def fields(self, x):
        flat = self._base[:]
        for (i, inverse), v in zip(self._plan, x):
            flat[i] = inverse(v)
        fields = [tuple(flat[i:i + 5]) for i in range(0, len(flat), 5)] * self._copies
        if not valid_factors(self.kind, fields):
            model_params(self.kind, fields)  # raises the set's own error
        return fields

    def params(self, x):
        return model_params(self.kind, self.fields(x))


# ---------------------------------------------------------------------------
# cost functions over a surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    kind: str = "mse"                    # mse | mae | mape
    target: str = "vega_weighted_price"  # or "implied_vol"

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise InvariantViolation(f"unknown cost kind {self.kind!r}")
        if self.target not in ("vega_weighted_price", "implied_vol"):
            raise InvariantViolation(f"unknown cost target {self.target!r}")


def _costs(spec, ctxs, calls, vegas, market_scaled, market_vols):
    """The cost under spec of each row of calls, model call prices (rows,
    cells) on the surfaces of contexts ctxs, in one row-wise reduction against
    the contexts' vegas, market_scaled and market_vols (stacked, or one
    context's): a row's cost is numpy's of that row alone.  The implied-vol
    target takes each row's vols on its own context's cells.  The one
    dispatch on the cost target and the cost kind."""
    if spec.target == "implied_vol":
        model = np.array([implied_vol(ctx.cells, row) for ctx, row in zip(ctxs, calls)])
        market = market_vols
    else:
        model, market = calls / vegas, market_scaled
    diff = model - market
    if spec.kind == "mse":
        return np.sum(diff * diff, axis=-1).tolist()
    if spec.kind == "mae":
        return np.sum(np.abs(diff), axis=-1).tolist()
    return np.sum(np.abs(diff / market), axis=-1).tolist()


class SurfaceCost:
    """Precomputed market targets for repeated cost evaluation on a surface.

    The strikes, maturities and rates are stacked once, one row per tenor,
    into the surface's one-lane Attari kernel (kernel), so each model
    evaluation prices the whole surface in one kernel call without building
    its constants again; the cells' Garman-Kohlhagen constants are built
    once too, so the model vols come from one lockstep bisection over all
    cells.  None of this depends on the cost spec, so with_spec gives the
    surface's context under another spec without building anything again.
    Calling the context costs one parameter set as a one-row _costs.
    """

    def __init__(self, surface, spec=CostSpec(), grid=DEFAULT_GRID):
        self.spec = spec
        self.grid = grid
        slices = surface.slices
        self.market_vols = np.array([v for sl in slices for v in sl.vols.vols])
        self.strikes = np.array([sl.strikes for sl in slices], dtype=float)
        self.kernel = AttariLanes([surface.spot], [self.strikes], [[sl.tau for sl in slices]],
                                  [[sl.r_d for sl in slices]], [[sl.r_f for sl in slices]],
                                  grid)
        specs = [OptionSpec(surface.spot, strike, sl.tau, sl.r_d, sl.r_f, "call")
                 for sl in slices for strike in sl.strikes]
        self.cells = GKCells(specs, self.market_vols)
        self.market_calls = self.cells.price(self.market_vols)
        self.vegas = np.array([max(bs_vega(op, vol), VEGA_FLOOR)
                               for op, vol in zip(specs, self.market_vols)])
        self.market_scaled = self.market_calls / self.vegas

    def with_spec(self, spec):
        """This context under cost spec, sharing every market constant."""
        other = copy.copy(self)
        other.spec = spec
        return other

    def model_calls(self, kind, params):
        return self.kernel.calls(cf_factory(kind, params))[0].ravel()

    def model_vols(self, kind, params):
        return implied_vol(self.cells, self.model_calls(kind, params))

    def __call__(self, kind, params, feller=False):
        if feller and not params.feller_satisfied():
            return FELLER_PENALTY
        return _costs(self.spec, [self], self.model_calls(kind, params)[None],
                      self.vegas, self.market_scaled, self.market_vols)[0]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    model: str
    params: object
    start: object
    cost_value: float
    iterations: int
    converged: bool
    feller_satisfied: bool
    residual_vols: tuple     # model vol - market vol per cell, row-major by tenor
    rmse_vol: float
    rmse_vega: float
    flags: tuple = ()


@dataclass(frozen=True)
class CalibrationRisk:
    per_parameter: dict
    results: tuple


def rmse_report(ctx, kind, params):
    """(vol RMSE, vega-weighted price RMSE) over the surface cells."""
    calls = ctx.model_calls(kind, params)
    vols = implied_vol(ctx.cells, calls)
    rmse_vol = float(np.sqrt(np.mean((vols - ctx.market_vols) ** 2)))
    rmse_vega = float(np.sqrt(np.mean(((calls - ctx.market_calls) / ctx.vegas) ** 2)))
    return rmse_vol, rmse_vega, tuple(vols - ctx.market_vols)


# ---------------------------------------------------------------------------
# term-structure calibrations
# ---------------------------------------------------------------------------

TS_MAX_ITER = 8000
TS_KAPPA_START_CIR = 2.0
TS_KAPPA_START_OU = 0.95
# the 3-parameter least-squares fits are cheap; run them to collapse so the
# curve residual lands well under the strip-noise scale
_TS_NM_CONFIG = NelderMeadConfig(eps1=1e-18, eps2=1e-24, max_iter=TS_MAX_ITER)


def calibrate_variance_ts(taus, targets_v2):
    """(nu0, theta, kappa) fit of the CIR variance curve to corrected strip vols.

    The cost skips the first tenor and compares vol levels
    sum_{i>=2} (sqrt(curve(tau_i)) - sqrt(V~^2(tau_i)))^2; starts are the
    first/last curve points and TS_KAPPA_START_CIR = 2.
    """
    v2 = np.asarray(targets_v2, dtype=float)
    return _fit_ts(_cir_cost, taus, np.sqrt(v2), (v2[0], v2[-1], TS_KAPPA_START_CIR))


def calibrate_vol_ts_sz(taus, vol_targets):
    """(nu0, theta, kappa) fit of the OU vol curve on the vol scale.

    Same exponential-decay curve evaluated on vols; the first tenor is skipped
    and the starts are the first/last targets with TS_KAPPA_START_OU = 0.95.
    """
    vols = np.asarray(vol_targets, dtype=float)
    return _fit_ts(_ou_cost, taus, vols, (vols[0], vols[-1], TS_KAPPA_START_OU))


def _cir_cost(nu0, theta, kappa, pairs):
    """sum (vol(tau) - target)^2 over pairs (tau, target), vol the square
    root of moments.heston_total_variance floored at 1e-16."""
    total = 0.0
    for tau, target in pairs:
        d = math.sqrt(max(heston_total_variance(nu0, theta, kappa, tau), 1e-16)) - target
        total += d * d
    return total


def _ou_cost(nu0, theta, kappa, pairs):
    """sum (vol(tau) - target)^2 over pairs (tau, target), vol the OU vol
    curve theta + (nu0 - theta) (1 - exp(-kappa tau)) / (kappa tau), the
    ratio taken as 1 - kappa tau / 2 below kappa tau = 1e-8."""
    total = 0.0
    for tau, target in pairs:
        x = kappa * tau
        decay = 1.0 - x / 2.0 if x < 1e-8 else (1.0 - math.exp(-x)) / x
        d = theta + (nu0 - theta) * decay - target
        total += d * d
    return total


def _fit_ts(cost, taus, targets, start):
    """(nu0, theta, kappa, NMResult) of the least-squares fit of a curve to
    targets past the first tenor, over log-parameters, from start = (nu0,
    theta, kappa), by nelder_mead and its fixed-point stop.

    The objective is cost(nu0, theta, kappa, pairs), one call per point
    over the whole curve, on the Python floats math.exp maps the simplex's
    tuple to: it sums the squared residuals left to right from 0.0.  That is
    numpy's np.sum((fit - target) ** 2) bit for bit below 8 terms, where
    numpy also adds in order; from 8 terms on numpy's pairwise sum can
    differ in the last bits.
    """
    pairs = list(zip(map(float, taus[1:]), map(float, targets[1:])))
    res = nelder_mead(lambda x: cost(*map(math.exp, x), pairs),
                      [math.log(v) for v in start], _TS_NM_CONFIG)
    nu0, theta, kappa = (math.exp(v) for v in res.x)
    return nu0, theta, kappa, res


# ---------------------------------------------------------------------------
# full-surface calibration
# ---------------------------------------------------------------------------

# Lockstep runs (run_lanes): at most LANES_PER_BLOCK surfaces per block and
# as many points per kernel call, so a steady round, one point per live
# lane, is one call per group.  A call's CF temporaries are (rows, T, 32)
# and its weight product (rows, T, P, 32), about 1 MB at 64 rows of 6 x 5
# cells; a lane's own kernel constants take about 16 kB, nearly all of it
# the (T, P, 32) complex weight tensor (15,696 bytes at 6 x 5 cells).
LANES_PER_BLOCK = 64


# A calibration is written as a job: a generator that yields a Fit for every
# Nelder-Mead run it needs, is sent that run's NMResult, and returns its
# result.  A job builds one SurfaceCost for its surface, and all its fits
# price through it.  Jobs run only as _lane generators of lockstep: run_lanes
# drives many, whose points are priced together, and run_job one, so every
# surface fit prices through a _SurfacePricer's one chunk route.

@dataclass(frozen=True, eq=False)
class Fit:
    """One Nelder-Mead run: minimize ctx(layout.kind, layout.params(x),
    feller) from layout.x0.

    group, the key of the rows _SurfacePricer can price a point with, of
    plain values, is worked out on first use, once per fit; the pricer maps
    each point through layout.fields.
    """
    ctx: SurfaceCost
    layout: Layout
    feller: bool
    config: NelderMeadConfig

    @functools.cached_property
    def group(self):
        ctx = self.ctx
        return self.layout.kind, astuple(ctx.grid), ctx.strikes.shape, astuple(ctx.spec)


def _fit_config(layout, max_iter, stop_any):
    """Every surface fit's NelderMeadConfig: stop_any's stop rule and max_iter,
    or for None FULL_MAX_ITER_1F on a simplex of at most one factor's
    len(COORDS) coordinates and FULL_MAX_ITER_2F on a larger one.  A larger
    simplex refuses stop_any: its initial volume, 0.05^n / n!, is already
    below eps2, so the OR rule would stop at the start."""
    n = len(layout.x0)
    if stop_any and n > len(COORDS):
        raise InvariantViolation(f"stop_any stops a {n}-coordinate fit at its start")
    if max_iter is None:
        max_iter = FULL_MAX_ITER_1F if n <= len(COORDS) else FULL_MAX_ITER_2F
    return NelderMeadConfig(max_iter=max_iter, stop_any=stop_any)


def run_job(job):
    """A calibration job's result, as the one lane of a lockstep run;
    raises the FxsvolError that ended it."""
    (out,) = lockstep([job], _SurfacePricer())
    if isinstance(out, FxsvolError):
        raise out
    return out


def _run_alone(name, job_of):
    """The library function name: job_of(*args, **kwargs) run alone (run_job),
    with job_of's docstring and, for inspect.signature, its parameters."""
    def run_alone(*args, **kwargs):
        return run_job(job_of(*args, **kwargs))
    functools.update_wrapper(run_alone, job_of)
    run_alone.__name__ = run_alone.__qualname__ = name
    return run_alone


def run_lanes(jobs):
    """Run calibration jobs as the lanes of lockstep Nelder-Mead runs.

    The jobs go in blocks of up to LANES_PER_BLOCK lanes.  Each round, the
    pending points of every live lane of a block are priced together, one
    kernel call per group of up to LANES_PER_BLOCK rows, so the lanes share
    the CF and Attari dispatch.
    Returns, per job, its result or the FxsvolError that ended it, bit for
    bit what run_job gives that job alone: a row's cost does not depend on
    the rows priced with it.
    """
    blocks = even_split(jobs, -(-len(jobs) // LANES_PER_BLOCK) or 1)
    return [r for block in blocks for r in lockstep(block, _SurfacePricer())]


def lockstep(jobs, evaluate):
    """Drive jobs as lanes, one Nelder-Mead step of every live lane a round.

    Each round sends every live _lane its points' values and calls
    evaluate(rows) once: rows are (lane, fit, x) for each point the lanes
    ask for next, x the simplex's own tuple of Python floats (a tuple, so
    no evaluator can change the simplex), and evaluate returns per row the
    objective value or the FxsvolError computing it raised.  A lane fails
    with the first failing outcome in its own point order, as its job alone
    would; the others go on.
    Returns, per job, its result or the FxsvolError that ended it.
    """
    out = [None] * len(jobs)
    lanes = [(i, _lane(job), None) for i, job in enumerate(jobs)]
    while True:
        live = []
        for i, lane, values in lanes:
            try:
                live.append((i, lane, *lane.send(values)))
            except StopIteration as stop:
                out[i] = stop.value
            except FxsvolError as exc:
                out[i] = exc
        if not live:
            return out
        outcomes = iter(evaluate([(i, fit, x) for i, _, fit, points in live
                                  for x in points]))
        lanes = [(i, lane, _replay([next(outcomes) for _ in points]))
                 for i, lane, _, points in live]


def even_split(items, n):
    """items cut into n contiguous runs whose lengths differ by at most 1."""
    q, r = divmod(len(items), n)
    bounds = [k * q + min(k, r) for k in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _lane(job):
    """A job as a lockstep lane: a generator that yields (fit, points) for
    each Nelder-Mead step of the job's fits, is sent an iterable of the
    points' values, and returns the job's result."""
    result = None
    while True:
        try:
            fit = job.send(result)
        except StopIteration as stop:
            return stop.value
        steps = nelder_mead_steps(fit.layout.x0, fit.config)
        values = None
        try:
            while True:
                values = yield fit, steps.send(values)
        except StopIteration as stop:
            result = stop.value


def _replay(outcomes):
    """The values of a lane's points in order, raising where one failed."""
    for o in outcomes:
        if isinstance(o, FxsvolError):
            raise o
        yield o


class _SurfacePricer:
    """lockstep's evaluate for surface fits: the lanes' surfaces priced
    together.  One pricer serves one lockstep run and dies with it.

    Each point, the simplex's own tuple, becomes its factors' field tuples
    (the fit's layout.fields), checked by charfn's validation and Feller
    rules; no parameter set is built.  Rows
    whose fits share a group (the model, the grid, the surface shape and the
    cost spec: Fit.group) go to the kernel together, in chunks of up to
    LANES_PER_BLOCK rows, each through an AttariLanes stacked from their
    contexts' own kernels, so no constants are computed here; a chunk of
    one is its context's kernel and scalar parameters.  Every chunk gets its
    costs from one _costs, each row its one-row cost bit for bit.  A chunk
    that raises (a CF overflow, an implied-vol miss) is priced again as
    chunks of one, so each row gets its own outcome.  A point whose
    parameters overflow a float (math.exp in Layout.fields) is a
    NumericOverflow outcome.

    In steady state every live lane pends one point a round, so a round's
    chunks, at most LANES_PER_BLOCK rows in all, repeat the last round's.
    stacks keeps the stacked constants of the last chunks, up to
    LANES_PER_BLOCK rows of them in all, keyed on the tuple of the chunk's
    kernels.  An entry holds its key, so no kernel it names is freed and no
    new one can take its id.
    """

    def __init__(self):
        self.stacks = OrderedDict()

    def __call__(self, rows):
        out = [None] * len(rows)
        priced = {}
        for r, (_, fit, x) in enumerate(rows):
            try:
                fields = fit.layout.fields(x)
            except FxsvolError as exc:
                out[r] = exc
                continue
            except OverflowError as exc:
                out[r] = NumericOverflow(f"parameter transform overflowed: {exc}")
                continue
            if fit.feller and not feller_holds(fit.layout.kind, fields):
                out[r] = FELLER_PENALTY
                continue
            priced.setdefault(fit.group, []).append((r, fit, fields))
        for todo in priced.values():
            for c in range(0, len(todo), LANES_PER_BLOCK):
                chunk = todo[c:c + LANES_PER_BLOCK]
                for (r, _, _), outcome in zip(chunk, self._chunk_costs(chunk)):
                    out[r] = outcome
        return out

    def _chunk_costs(self, chunk):
        """The outcomes of rows (r, fit, fields) of one group from one
        kernel call and one _costs, or, if either raises, of each row as a
        chunk of one (whose outcome is the error)."""
        ctxs = [fit.ctx for _, fit, _ in chunk]
        kind = chunk[0][1].layout.kind
        try:
            kernel, *market = self._stacked(ctxs)
            lanes = ParamLanes.of_fields(kind, [fields for _, _, fields in chunk])
            calls = kernel.calls(cf_factory(kind, lanes)).reshape(len(chunk), -1)
            return _costs(ctxs[0].spec, ctxs, calls, *market)
        except FxsvolError as exc:
            return ([exc] if len(chunk) == 1
                    else [self._chunk_costs([row])[0] for row in chunk])

    def _stacked(self, ctxs):
        """(AttariLanes, vegas, market_scaled, market_vols) of the contexts,
        in order; with_spec copies share all four, so the kernels name them."""
        key = tuple(ctx.kernel for ctx in ctxs)
        entry = self.stacks.get(key)
        if entry is not None:
            self.stacks.move_to_end(key)
            return entry
        entry = (AttariLanes.stack(key), np.stack([ctx.vegas for ctx in ctxs]),
                 np.stack([ctx.market_scaled for ctx in ctxs]),
                 np.stack([ctx.market_vols for ctx in ctxs]))
        self.stacks[key] = entry
        while sum(map(len, self.stacks)) > LANES_PER_BLOCK:  # about 1 MB of stacks
            self.stacks.popitem(last=False)
        return entry


def full_job(kind, surface, start_params, cost_spec=CostSpec(), feller=False,
             max_iter=None, pinned_rho=None, grid=DEFAULT_GRID, stop_any=False):
    """Nelder-Mead calibration of a model to a surface.

    pinned_rho = (rho1, rho2) freezes the factor correlations of a two-factor
    model (8 free parameters); feller=True swaps the cost for the 999 penalty
    whenever a variance factor violates 2 kappa theta > omega^2.  max_iter
    and stop_any set the fit's stop rule (_fit_config).
    """
    return (yield from _full_fit(SurfaceCost(surface, cost_spec, grid), kind,
                                 start_params, feller, max_iter, pinned_rho, stop_any))


def _full_fit(ctx, kind, start_params, feller, max_iter, pinned_rho, stop_any):
    """full_job's fit and result on the surface context ctx."""
    factors = start_params.factors
    free = COORDS
    if pinned_rho is not None:
        if len(factors) == 1:
            raise InvariantViolation("pinned rho applies to two-factor models only")
        factors = [replace(f, rho=rho) for f, rho in zip(factors, pinned_rho)]
        free = ("nu0", "theta", "omega", "kappa")
    layout = Layout(kind, factors, free)
    res = yield Fit(ctx, layout, feller, _fit_config(layout, max_iter, stop_any))
    params = layout.params(res.x)
    rmse_vol, rmse_vega, residuals = rmse_report(ctx, kind, params)
    return CalibrationResult(
        model=kind, params=params, start=start_params, cost_value=res.fx,
        iterations=res.iterations, converged=res.converged,
        feller_satisfied=params.feller_satisfied(), residual_vols=residuals,
        rmse_vol=rmse_vol, rmse_vega=rmse_vega,
        flags=("pinned_rho",) if pinned_rho is not None else (),
    )


def feller_truncate_omega(omega, theta_k, kappa_k):
    """min(omega, sqrt(1.99 theta kappa)): keep a split factor inside Feller."""
    return min(omega, math.sqrt(1.99 * theta_k * kappa_k))


def feller_truncated(params):
    """params with every factor's omega truncated by feller_truncate_omega,
    or params itself for OU volatilities, which have no Feller bound."""
    if not variance_factors(params.kind):
        return params
    return model_params(params.kind, [
        (f.nu0, f.theta, f.kappa, feller_truncate_omega(f.omega, f.theta, f.kappa), f.rho)
        for f in params.factors])


def two_stage_job(kind, surface, symmetric_start, cost_spec=CostSpec(), feller=False,
                  max_iter=None, grid=DEFAULT_GRID):
    """Symmetric 5-parameter stage then unconstrained 10-parameter stage.

    symmetric_start is (nu0, theta, kappa, omega, rho) for one factor of the
    tied model (both factors equal).  For the Feller-constrained variance
    model the stage-1 factor omegas are truncated to sqrt(1.99 theta kappa)
    before stage 2.  Both stages stop by the AND rule, at max_iter or by
    default at FULL_MAX_ITER_1F and FULL_MAX_ITER_2F (_fit_config).
    Returns (result, stage-1 NMResult).
    """
    ctx = SurfaceCost(surface, cost_spec, grid)
    tied = Layout(kind, [Factor(*symmetric_start)] * 2, tied=True)
    stage1 = yield Fit(ctx, tied, feller, _fit_config(tied, max_iter, False))
    stage1_params = tied.params(stage1.x)
    if feller:
        stage1_params = feller_truncated(stage1_params)
    result = yield from _full_fit(ctx, kind, stage1_params, feller, max_iter, None, False)
    return replace(result, flags=result.flags + ("two_stage",)), stage1


# ---------------------------------------------------------------------------
# calibration risk and outliers
# ---------------------------------------------------------------------------

def risk_job(kind, surface, base_params, cost_kinds=("mse", "mae", "mape"),
             max_iter=None, grid=DEFAULT_GRID):
    """Per-parameter max pairwise spread across cost-function choices.

    omega and rho stay fixed at the base values; (nu0, theta, kappa) are
    recalibrated once per cost kind, each fit under _fit_config's stop rule.
    """
    if len(base_params.factors) != 1:
        raise InvariantViolation("risk protocol runs on one-factor models")
    layout = Layout(kind, base_params.factors, free=("nu0", "theta", "kappa"))
    ctx = SurfaceCost(surface, grid=grid)
    config = _fit_config(layout, max_iter, False)
    results = []
    for ck in cost_kinds:
        res = yield Fit(ctx.with_spec(CostSpec(kind=ck)), layout, False, config)
        results.append((ck, layout.params(res.x), res))
    spreads = {}
    for name in ("nu0", "theta", "kappa"):
        vals = [getattr(p, name) for _, p, _ in results]
        spreads[name] = max(abs(a - b) for a in vals for b in vals)
    return CalibrationRisk(per_parameter=spreads, results=tuple(results))


# the library entry points: each job run alone
calibrate_full = _run_alone("calibrate_full", full_job)
two_stage_calibration = _run_alone("two_stage_calibration", two_stage_job)
calibration_risk = _run_alone("calibration_risk", risk_job)


OUTLIER_LOG_JUMP = 0.4


def detect_outliers(series):
    """Indices t where ln(x_t) - max(ln(x_1..x_{t-1})) > 0.4."""
    flagged = []
    run_max = None
    for t, x in enumerate(series):
        if not x > 0.0:
            raise InvariantViolation(f"outlier detection needs positive values, "
                                     f"got {x!r} at index {t}")
        lx = math.log(x)
        if run_max is not None and lx - run_max > OUTLIER_LOG_JUMP:
            flagged.append(t)
        run_max = lx if run_max is None else max(run_max, lx)
    return flagged


def outlier_recalibration(daily_results, watch_params, recalibrate,
                          sz_feller_mode=False):
    """Re-run flagged days once with the offending start parameter doubled.

    daily_results is chronologically ordered, each result with its fitted
    .params and its .start parameter set; recalibrate(day_index,
    modified_start, param_name) must return a replacement result.  Both the
    original and the replacement are kept as (original, replacement | None).
    sz_feller_mode additionally multiplies the kappa start by 100 for theta
    outliers (the vol-model remedy under the positivity constraint).
    """
    corrected = []
    for name in watch_params:
        series = [getattr(r.params, name) for r in daily_results]
        flags = set(detect_outliers(series))
        corrected.append((name, flags))
    out = []
    for t, result in enumerate(daily_results):
        hit = [name for name, flags in corrected if t in flags]
        if not hit:
            out.append((result, None))
            continue
        name = hit[0]
        start = _double_param(result.start, name)
        if sz_feller_mode and name == "theta":
            start = replace(start, kappa=100.0 * start.kappa)
        redo = recalibrate(t, start, name)
        out.append((result, redo))
    return out


def _double_param(params, name):
    try:
        return replace(params, **{name: 2.0 * getattr(params, name)})
    except TypeError:
        raise InvariantViolation(f"cannot double {name} on {params!r}") from None
