"""calibrate.Layout, as the calibration jobs build it, against the literal
copies of the maps it replaced (layout_reference.py): the same coordinates,
parameter sets and errors, bit for bit, compared as uint64 views."""

import math

import numpy as np
import pytest

from fxsvol.calibrate import NMResult, full_job, risk_job, two_stage_job
from fxsvol.charfn import (
    Factor,
    HestonParams,
    SchobelZhuParams,
    TwoFactorParams,
    model_params,
)
from fxsvol.errors import InvariantViolation
from fxsvol.estimators import evp_split, mevp_split

import layout_reference as ref

KINDS = ("heston", "sz", "bates2f", "ouou")


def _factor(rng, kind):
    """(nu0, theta, kappa, omega, rho) of one valid factor of kind."""
    scale = 1.0 if kind in ("sz", "ouou") else 0.05
    return (scale * rng.uniform(0.05, 1.0), scale * rng.uniform(0.05, 1.0),
            rng.uniform(0.2, 5.0), rng.uniform(0.05, 1.0), rng.uniform(-0.95, 0.95))


def _params(rng, kind):
    if kind == "heston":
        return HestonParams(*_factor(rng, kind))
    if kind == "sz":
        return SchobelZhuParams(*_factor(rng, kind))
    return TwoFactorParams(kind, Factor(*_factor(rng, kind)), Factor(*_factor(rng, kind)))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def _described(p):
    """A parameter set's class, kind and field bits."""
    fields = [(f.nu0, f.theta, f.kappa, f.omega, f.rho) for f in p.factors]
    return type(p), getattr(p, "kind", None), _bits(fields)


def _outcome(fn, x):
    """What fn(x) gives: its parameter set described, or its error."""
    try:
        p = fn(x)
    except (InvariantViolation, OverflowError) as exc:
        return type(exc), str(exc), repr(exc)
    return _described(p)


def _points(rng, x0):
    """Points near x0, points anywhere a float's exp may under- or overflow,
    and x0 with one coordinate at -800 or +800."""
    near = [x0 + rng.normal(0.0, 2.0, x0.size) for _ in range(20)]
    wide = [rng.uniform(-800.0, 800.0, x0.size) for _ in range(10)]
    edges = []
    for i in range(x0.size):
        for v in (-800.0, 800.0):
            x = x0.copy()
            x[i] = v
            edges.append(x)
    return near + wide + edges


def _assert_same_map(layout, old_x0, old_params, rng):
    assert _bits(layout.x0) == _bits(old_x0)
    for x in _points(rng, layout.x0):
        assert _outcome(layout.params, x) == _outcome(old_params, x)


@pytest.mark.parametrize("kind", KINDS)
def test_free(heston_surface, rng, kind):
    for _ in range(5):
        start = _params(rng, kind)
        layout = next(full_job(kind, heston_surface, start)).layout
        _assert_same_map(layout, ref.params_to_vector(kind, start),
                         lambda x: ref.vector_to_params(kind, x), rng)


@pytest.mark.parametrize("kind", ["bates2f", "ouou"])
def test_pinned_rho(heston_surface, rng, kind):
    for _ in range(5):
        start = _params(rng, kind)
        pinned = (rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
        layout = next(full_job(kind, heston_surface, start, pinned_rho=pinned)).layout
        _assert_same_map(layout, ref._strip_rho(ref.params_to_vector(kind, start)),
                         lambda x: ref.vector_to_params(kind, x, pinned_rho=pinned), rng)


@pytest.mark.parametrize("kind", ["bates2f", "ouou"])
@pytest.mark.parametrize("feller", [False, True])
def test_tied(heston_surface, rng, kind, feller):
    """Stage 1's tied map, and the stage-1 parameters stage 2 starts from
    (Feller-truncated for the variance model)."""
    for _ in range(3):
        sym = _factor(rng, kind)
        job = two_stage_job(kind, heston_surface, sym, feller=feller)
        layout = next(job).layout
        _assert_same_map(layout, ref.tied_x0(sym), lambda x: ref.tied_params(kind, x), rng)
        x1 = layout.x0 + rng.normal(0.0, 0.3, layout.x0.size)
        stage1 = ref.tied_stage1_params(kind, x1, feller)
        stage2 = job.send(NMResult(x=x1, fx=0.0, iterations=1, converged=True)).layout
        assert _bits(stage2.x0) == _bits(ref.params_to_vector(kind, stage1))
        with pytest.raises(StopIteration) as done:
            job.send(NMResult(x=stage2.x0, fx=0.0, iterations=1, converged=True))
        result, _ = done.value.value
        assert _described(result.start) == _described(stage1)


@pytest.mark.parametrize("kind", ["bates2f", "ouou"])
def test_tied_truncation_binds(heston_surface, kind):
    """An omega past the Feller bound: truncated for the variance model only."""
    sym = (0.004, 0.007, 2.0, 0.3, -0.4)
    assert sym[3] > math.sqrt(1.99 * sym[1] * sym[2])
    job = two_stage_job(kind, heston_surface, sym, feller=True)
    x0 = next(job).layout.x0
    stage2 = job.send(NMResult(x=x0, fx=0.0, iterations=1, converged=True)).layout
    stage1 = ref.tied_stage1_params(kind, x0, True)
    assert (stage1.f1.omega < sym[3]) == (kind == "bates2f")
    assert _bits(stage2.x0) == _bits(ref.params_to_vector(kind, stage1))


@pytest.mark.parametrize("kind", ["heston", "sz"])
def test_risk(heston_surface, rng, kind):
    for _ in range(5):
        base = _params(rng, kind)
        layout = next(risk_job(kind, heston_surface, base)).layout
        _assert_same_map(layout, ref.risk_x0(base),
                         lambda x: ref.risk_params(kind, base, x), rng)


def test_edges_raise_as_before(heston_surface, heston_median_params):
    layout = next(full_job("heston", heston_surface, heston_median_params)).layout
    x = layout.x0.copy()
    x[0] = 800.0
    with pytest.raises(OverflowError, match="^math range error$"):
        layout.params(x)
    x[0] = -800.0
    with pytest.raises(InvariantViolation) as got:
        layout.params(x)
    with pytest.raises(InvariantViolation) as want:
        ref.vector_to_params("heston", x)
    assert str(got.value) == str(want.value) and repr(got.value) == repr(want.value)


def test_two_factor_starts(rng):
    for _ in range(20):
        omega, rho = rng.uniform(0.05, 1.0), rng.uniform(-0.9, 0.9)
        nu0, theta, kappa = rng.uniform(0.002, 0.05), rng.uniform(0.002, 0.05), 2.0
        for start in (evp_split(omega, rho, nu0, theta, kappa),
                      mevp_split(omega, rho, nu0, theta, kappa, target="ouou"),
                      mevp_split(omega, rho, nu0, theta, kappa, target="bates_feller")):
            assert (_described(model_params(start.kind, start.factors))
                    == _described(ref.start_to_params(start.kind, start)))


def test_model_params_rejects_a_wrong_factor_count():
    with pytest.raises(InvariantViolation):
        model_params("bates2f", [_factor(np.random.default_rng(0), "bates2f")])
    with pytest.raises(InvariantViolation):
        model_params("heston", [])
