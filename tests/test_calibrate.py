import gc
import inspect
import math
import weakref
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fxsvol.calibrate as calibrate_mod
from fxsvol import cli
from fxsvol.calibrate import (
    COST_KINDS,
    FELLER_PENALTY,
    CalibrationRisk,
    CostSpec,
    Fit,
    Layout,
    NelderMeadConfig,
    SurfaceCost,
    calibrate_full,
    calibrate_variance_ts,
    calibrate_vol_ts_sz,
    calibration_risk,
    detect_outliers,
    feller_truncate_omega,
    feller_truncated,
    full_job,
    lockstep,
    nelder_mead,
    outlier_recalibration,
    risk_job,
    rmse_report,
    run_job,
    run_lanes,
    two_stage_calibration,
    two_stage_job,
)
from fxsvol.charfn import (
    Factor,
    HestonParams,
    SchobelZhuParams,
    TwoFactorParams,
    cf_factory,
    model_params,
)
from fxsvol.errors import (
    FxsvolError,
    InvariantViolation,
    NonFiniteObjective,
    NumericOverflow,
    OutOfBounds,
)
from fxsvol.moments import heston_total_variance
from fxsvol.pricer import (
    AttariLanes,
    GKCells,
    OptionSpec,
    attari_strip,
    gk_price,
    implied_vol,
    surface_prices,
)

from conftest import draw_heston
from cost_reference import reference_cost
from nm_reference import reference_nelder_mead, reference_run_job
from risk_reference import reference_calibration_risk

from synthutil import synth_surface, write_quote_csv
from test_pricer import assert_contract


class TestNelderMead:
    def test_convex_quadratic(self):
        res = nelder_mead(lambda x: float(np.sum(np.square(x))), np.array([1.0, 1.0]))
        assert res.fx < 1e-10
        assert res.converged

    def test_rosenbrock_within_500_iterations(self):
        def rosen(x):
            return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        res = nelder_mead(rosen, np.array([-1.2, 1.0]),
                          NelderMeadConfig(max_iter=500))
        assert res.fx < 1e-6
        assert res.iterations <= 500

    def test_already_optimal_start(self):
        res = nelder_mead(lambda x: float(np.sum(np.square(x))), np.zeros(2))
        assert res.converged
        assert np.max(np.abs(res.x)) < 1e-3

    def test_zero_coordinate_offset(self):
        # the smaller 0.00025 offset applies only to zero start coordinates
        seen = []

        def f(x):
            seen.append(x)
            return float(np.sum(np.square(x)))

        nelder_mead(f, np.array([1.0, 0.0]), NelderMeadConfig(max_iter=1))
        inits = np.asarray(seen[:3])
        assert any(abs(p[0] - 1.05) < 1e-12 for p in inits)
        assert any(abs(p[1] - 0.00025) < 1e-12 for p in inits)

    def test_non_finite_objective_raises(self):
        with pytest.raises(NonFiniteObjective):
            nelder_mead(lambda x: float("inf"), np.array([1.0]))

    def test_best_vertex_never_increases(self):
        best = []

        def rosen(x):
            return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

        def wrapped(x):
            v = rosen(x)
            best.append(v)
            return v

        nelder_mead(wrapped, np.array([-1.2, 1.0]), NelderMeadConfig(max_iter=300))
        running = np.minimum.accumulate(best)
        assert np.all(np.diff(running) <= 0.0)

    def test_stop_any_mode(self):
        cfg = NelderMeadConfig(eps1=1e3, eps2=1e-30, stop_any=True, max_iter=500)
        res = nelder_mead(lambda x: float(np.sum(np.square(x))), np.array([1.0, 1.0]), cfg)
        assert res.iterations == 1  # f-spread is tiny relative to eps1 at once


class TestTransforms:
    """The round trips of the simplex coordinates, on Layout (the literal
    copies of the maps it replaced are the oracle of test_layout.py)."""

    def test_round_trip(self):
        layout = Layout("heston", [HestonParams(0.0082, 0.0143, 2.07, 0.3, -0.38)])
        assert np.array_equal(layout.x0, [math.log(0.0082), math.log(0.0143),
                                          math.log(0.3), math.log(2.07), math.atanh(-0.38)])
        back = layout.params(layout.x0)
        assert np.max(np.abs(np.array([back.nu0, back.theta, back.omega, back.kappa,
                                       back.rho])
                             - np.array([0.0082, 0.0143, 0.3, 2.07, -0.38]))) < 1e-14

    def test_zero_vector(self):
        layout = Layout("heston", [HestonParams(0.01, 0.01, 1.0, 0.3, 0.0)])
        assert layout.params(np.zeros(5)) == HestonParams(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_extreme_rho_finite(self):
        for rho in (0.99, -0.99):
            x = Layout("heston", [HestonParams(0.01, 0.01, 1.0, 0.3, rho)]).x0
            assert np.all(np.isfinite(x))

    @given(nu0=st.floats(1e-4, 1.0), theta=st.floats(1e-4, 1.0),
           omega=st.floats(1e-3, 2.0), kappa=st.floats(1e-2, 50.0),
           rho=st.floats(-0.99, 0.99))
    @settings(max_examples=50)
    def test_round_trip_property(self, nu0, theta, omega, kappa, rho):
        p = HestonParams(nu0, theta, kappa, omega, rho)
        layout = Layout("heston", [p])
        back = layout.params(layout.x0)
        for name in ("nu0", "theta", "omega", "kappa", "rho"):
            assert getattr(back, name) == pytest.approx(getattr(p, name),
                                                        rel=1e-12, abs=1e-14)

    def test_two_factor_vector_round_trip(self):
        p = TwoFactorParams("bates2f",
                            Factor(0.004, 0.007, 2.0, 0.3, -0.4),
                            Factor(0.005, 0.006, 1.1, 0.2, 0.1))
        layout = Layout("bates2f", p.factors)
        q = layout.params(layout.x0)
        for f1, f2 in zip(p.factors, q.factors):
            assert f1.nu0 == pytest.approx(f2.nu0, rel=1e-12)
            assert f1.rho == pytest.approx(f2.rho, rel=1e-12)


class TestCost:
    def test_exact_model_costs_zero(self, heston_surface, heston_median_params):
        c = SurfaceCost(heston_surface)("heston", heston_median_params)
        assert c < 1e-18

    def test_mape_single_cell_example(self):
        # one cell off by 10% of its market value, the rest exact -> 0.1
        market = np.array([1.0, 2.0, 3.0])
        model = market.copy()
        model[1] *= 1.10

        def cost(kind):
            # unit vegas, so the price target compares model with market
            (c,) = calibrate_mod._costs(CostSpec(kind=kind), [None], model[None],
                                        np.ones(3), market, None)
            return c
        assert cost("mape") == pytest.approx(0.1)
        assert cost("mse") == pytest.approx(0.04)
        assert cost("mae") == pytest.approx(0.2)

    def test_feller_penalty(self, heston_surface, heston_median_params):
        # median params violate the positivity bound: 2*2.07*0.0143 < 0.09
        c = SurfaceCost(heston_surface)("heston", heston_median_params, feller=True)
        assert c == 999.0

    def test_feller_pass_through(self, heston_surface):
        ok = HestonParams(0.0082, 0.0143, 4.0, 0.2, -0.38)
        assert ok.feller_satisfied()
        c = SurfaceCost(heston_surface)("heston", ok, feller=True)
        assert c != 999.0

    def test_no_feller_penalty_on_ou_volatility_factors(self, heston_surface):
        # 2 kappa theta < omega^2 on the first factor: only a CIR variance fails
        tight = Factor(0.06, 0.02, 0.8, 0.3, -0.5)  # 2*0.8*0.02 = 0.032 < 0.09
        other = Factor(0.07, 0.05, 1.2, 0.2, -0.3)
        ctx = SurfaceCost(heston_surface)
        assert ctx("bates2f", TwoFactorParams("bates2f", tight, other),
                   feller=True) == FELLER_PENALTY
        ouou = TwoFactorParams("ouou", tight, other)
        assert ctx("ouou", ouou, feller=True) != FELLER_PENALTY
        res = calibrate_full("ouou", heston_surface, ouou, feller=True, max_iter=2)
        assert res.feller_satisfied is True

    def test_refuses_a_set_of_another_kind(self, heston_surface, heston_median_params):
        ctx = SurfaceCost(heston_surface)
        with pytest.raises(InvariantViolation, match="expected sz params, got heston"):
            ctx("sz", heston_median_params)
        with pytest.raises(InvariantViolation, match="expected heston params, got sz"):
            ctx("heston", SchobelZhuParams(0.09, 0.11, 1.4, 0.15, -0.38))

    def test_implied_vol_target(self, heston_surface, heston_median_params):
        spec = CostSpec(kind="mse", target="implied_vol")
        c = SurfaceCost(heston_surface, spec)("heston", heston_median_params)
        assert c < 1e-15


BATES2F = TwoFactorParams("bates2f",
                          Factor(0.0041, 0.00715, 2.07, 0.30, -0.38),
                          Factor(0.0050, 0.00600, 1.10, 0.22, 0.10))


class TestWholeSurfaceKernel:
    """One kernel call per surface gives the per-tenor prices bit for bit,
    and vols within the whole-surface contract of the scalar loop's."""

    @pytest.fixture(params=["heston", "bates2f"])
    def model(self, request, heston_median_params):
        if request.param == "heston":
            return "heston", heston_median_params
        return "bates2f", BATES2F

    @staticmethod
    def per_tenor_calls(cf, surface):
        return [attari_strip(cf, surface.spot, sl.strikes, sl.tau, sl.r_d, sl.r_f)
                for sl in surface.slices]

    def test_model_calls_and_vols(self, model, heston_surface):
        kind, params = model
        ctx = SurfaceCost(heston_surface)
        calls = np.concatenate(self.per_tenor_calls(cf_factory(kind, params),
                                                    heston_surface))
        assert np.array_equal(ctx.model_calls(kind, params), calls)
        assert_contract(self.scalar_cells(heston_surface), calls,
                        ctx.model_vols(kind, params), cells=ctx.cells)

    @staticmethod
    def scalar_cells(surface):
        return [OptionSpec(surface.spot, k, sl.tau, sl.r_d, sl.r_f, "call")
                for sl in surface.slices for k in sl.strikes]

    def test_market_calls(self, heston_surface):
        ctx = SurfaceCost(heston_surface)
        assert np.array_equal(ctx.market_calls, [
            gk_price(op, v) for op, v in zip(self.scalar_cells(heston_surface),
                                             ctx.market_vols)])

    def test_model_vols_and_rmse_report_on_draws(self, heston_surface, rng):
        ctx = SurfaceCost(heston_surface, CostSpec(target="implied_vol"))
        cells = self.scalar_cells(heston_surface)
        for _ in range(6):
            params = draw_heston(rng)
            calls = ctx.model_calls("heston", params)
            vols = ctx.model_vols("heston", params)
            assert_contract(cells, calls, vols, cells=ctx.cells)
            assert ctx("heston", params) == float(np.sum((vols - ctx.market_vols) ** 2))
            assert rmse_report(ctx, "heston", params)[2] == tuple(vols - ctx.market_vols)

    def test_surface_prices(self, model, heston_surface):
        cf = cf_factory(*model)
        out = surface_prices(cf, heston_surface)
        for sl, calls in zip(heston_surface.slices,
                             self.per_tenor_calls(cf, heston_surface)):
            prices, vols = out[sl.tenor]
            assert np.array_equal(prices, calls)
            specs = [OptionSpec(heston_surface.spot, k, sl.tau, sl.r_d, sl.r_f, "call")
                     for k in sl.strikes]
            assert_contract(specs, calls, vols)
            assert np.array_equal(vols, implied_vol(GKCells(specs, sl.vols.vols), calls))


OUOU = TwoFactorParams("ouou",
                       Factor(0.06, 0.08, 1.2, 0.11, 0.65),
                       Factor(0.07, 0.05, 0.8, 0.22, -0.85))


def _count_kernel_builds(monkeypatch):
    """A list that gets one entry per AttariLanes built from here on."""
    builds, plain = [], AttariLanes.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        plain(self, *args, **kwargs)

    monkeypatch.setattr(AttariLanes, "__init__", counting)
    return builds


class TestKernelConstantsOnce:
    """A SurfaceCost builds its surface's Attari constants once, and the lane
    path prices through those of its contexts."""

    def test_fifty_evaluations_build_once(self, heston_surface, monkeypatch):
        builds = _count_kernel_builds(monkeypatch)
        ctx = SurfaceCost(heston_surface)
        rng = np.random.default_rng(50)
        for _ in range(50):
            ctx("heston", draw_heston(rng))
        rmse_report(ctx, "heston", draw_heston(rng))
        assert len(builds) == 1

    @pytest.mark.parametrize("kind", ["heston", "sz", "bates2f", "ouou"])
    def test_model_calls_equal_attari_strip(self, kind, heston_surface,
                                            heston_median_params, sz_params):
        params = {"heston": heston_median_params, "sz": sz_params, "bates2f": BATES2F,
                  "ouou": OUOU}[kind]
        ctx = SurfaceCost(heston_surface)
        sls = heston_surface.slices
        want = attari_strip(cf_factory(kind, params), heston_surface.spot,
                            [sl.strikes for sl in sls], [sl.tau for sl in sls],
                            [sl.r_d for sl in sls], [sl.r_f for sl in sls])
        assert np.array_equal(ctx.model_calls(kind, params), want.ravel())

    def test_run_lanes_builds_only_its_contexts_constants(self, lane_surfaces,
                                                          monkeypatch):
        jobs = [full_job("heston", s, HestonParams(0.01, 0.015, 2.0, 0.3, -0.4),
                         max_iter=10) for s in lane_surfaces]
        builds = _count_kernel_builds(monkeypatch)
        results = run_lanes(jobs)
        assert all(isinstance(r, calibrate_mod.CalibrationResult) for r in results)
        assert len(builds) == len(lane_surfaces)  # one per full_job's SurfaceCost

    @pytest.mark.parametrize("job", ["risk", "two_stage"])
    def test_one_build_per_date_for_multi_fit_jobs(self, job, lane_surfaces, monkeypatch):
        """Every fit of a risk or two-stage job prices through one context."""
        def make(surface):
            if job == "risk":
                return risk_job("heston", surface, HestonParams(0.01, 0.015, 2.0, 0.3, -0.4),
                                max_iter=10)
            return two_stage_job("bates2f", surface, (0.0041, 0.00715, 2.07, 0.30, -0.38),
                                 max_iter=5)

        builds = _count_kernel_builds(monkeypatch)
        run_job(make(lane_surfaces[0]))
        assert len(builds) == 1
        results = run_lanes([make(s) for s in lane_surfaces])
        assert not any(isinstance(r, FxsvolError) for r in results)
        assert len(builds) == 1 + len(lane_surfaces)


class TestTermStructure:
    TAUS = (1 / 12, 2 / 12, 0.25, 0.5, 1.0, 2.0)

    def test_self_consistency(self):
        v2 = [heston_total_variance(0.01, 0.02, 2.0, t) for t in self.TAUS]
        nu0, th, ka, res = calibrate_variance_ts(self.TAUS, v2)
        fit = [heston_total_variance(nu0, th, ka, t) for t in self.TAUS[1:]]
        resid = np.max(np.abs(np.sqrt(fit) - np.sqrt(v2[1:])))
        assert resid < 1e-6

    def test_flat_curve(self):
        nu0, th, ka, _ = calibrate_variance_ts(self.TAUS, [0.0144] * 6)
        assert nu0 == pytest.approx(0.0144, rel=1e-3)
        assert th == pytest.approx(0.0144, rel=1e-3)

    def test_degenerate_kappa_converges_with_zero_cost(self):
        # nu0 = theta leaves kappa unidentified; fit must still converge
        v2 = [0.0144] * 6
        nu0, th, ka, res = calibrate_variance_ts(self.TAUS, v2)
        assert res.fx < 1e-12
        assert ka > 0.0

    def test_sz_vol_curve_self_consistency(self):
        truth = (0.09, 0.13, 1.1)
        vols = [truth[1] + (truth[0] - truth[1])
                * (1 - math.exp(-truth[2] * t)) / (truth[2] * t)
                for t in self.TAUS]
        nu0, th, ka, res = calibrate_vol_ts_sz(self.TAUS, vols)
        fit = [th + (nu0 - th) * (1 - math.exp(-ka * t)) / (ka * t)
               for t in self.TAUS[1:]]
        assert np.max(np.abs(np.array(fit) - np.array(vols[1:]))) < 1e-6


def _old_variance_objective(taus, targets_v2):
    """The variance-curve cost as numpy evaluated it before the float rewrite."""
    taus = np.asarray(taus, dtype=float)
    vols = np.sqrt(np.asarray(targets_v2, dtype=float))

    def objective(x):
        nu0, theta, kappa = (math.exp(v) for v in x)
        fit = [math.sqrt(max(heston_total_variance(nu0, theta, kappa, t), 1e-16))
               for t in taus[1:]]
        return float(np.sum((np.asarray(fit) - vols[1:]) ** 2))
    return objective


def _old_sz_objective(taus, vol_targets):
    """The OU vol-curve cost as numpy evaluated it before the float rewrite."""
    taus = np.asarray(taus, dtype=float)
    vols = np.asarray(vol_targets, dtype=float)

    def decay(kappa, tau):
        x = kappa * tau
        if x < 1e-8:
            return 1.0 - x / 2.0
        return (1.0 - math.exp(-x)) / x

    def objective(x):
        nu0, theta, kappa = (math.exp(v) for v in x)
        fit = [theta + (nu0 - theta) * decay(kappa, t) for t in taus[1:]]
        return float(np.sum((np.asarray(fit) - vols[1:]) ** 2))
    return objective


TS_FITS = [(calibrate_variance_ts, _old_variance_objective, 2.0),
           (calibrate_vol_ts_sz, _old_sz_objective, 0.95)]


def _ts_objective_of(monkeypatch, fit, taus, targets):
    """The objective fit(taus, targets) hands to nelder_mead."""
    seen = []

    def capture(f, x0, config):
        seen.append(f)
        return calibrate_mod.NMResult(x0, 0.0, 0, True)

    monkeypatch.setattr(calibrate_mod, "nelder_mead", capture)
    fit(taus, targets)
    monkeypatch.undo()
    return seen[0]


def _ts_points(rng, n):
    """Log-parameter points over the curves' branches: the 1e-16 variance
    floor (tiny nu0 and theta) and kappa tau < 1e-8 (tiny kappa)."""
    x = np.column_stack([rng.uniform(-45.0, 1.0, n), rng.uniform(-45.0, 1.0, n),
                         rng.uniform(-30.0, 3.0, n)])
    return list(x) + [np.array([-40.0, -40.0, 0.0]), np.array([-3.0, -4.0, -25.0]),
                      np.array([-40.0, -41.0, -25.0]), np.zeros(3)]


class TestTermStructureObjective:
    """The float term-structure costs against the numpy expressions they replace."""

    TAUS12 = tuple(m / 12 for m in (0.25, 0.5, 1, 2, 3, 4, 6, 9, 12, 18, 24, 36))

    def curve(self, rng, taus):
        return [0.01 + 0.01 * rng.random() + 0.005 * t for t in taus]

    @pytest.mark.parametrize("taus", [TestTermStructure.TAUS,
                                      TestTermStructure.TAUS[:4]])
    @pytest.mark.parametrize("fit,old,_", TS_FITS)
    def test_bit_for_bit_below_8_terms(self, monkeypatch, taus, fit, old, _):
        rng = np.random.default_rng(len(taus))
        targets = self.curve(rng, taus)
        new = _ts_objective_of(monkeypatch, fit, taus, targets)
        was = old(taus, targets)
        points = _ts_points(rng, 2000)
        for x in points:
            assert new(x) == was(x)
        # the draws reach both guarded branches
        floor = sum(heston_total_variance(*np.exp(x), taus[1]) < 1e-16 for x in points)
        small = sum(math.exp(x[2]) * taus[-1] < 1e-8 for x in points)
        assert floor > 10 and small > 10

    @pytest.mark.parametrize("fit,old,_", TS_FITS)
    def test_12_tenors_within_stated_tolerance(self, monkeypatch, fit, old, _):
        # numpy sums 8 terms or more pairwise, so the float cost may differ
        # in the last bits: each order of summing the terms is within
        # (terms - 1) half-ulps of the exact sum
        rng = np.random.default_rng(12)
        targets = self.curve(rng, self.TAUS12)
        new = _ts_objective_of(monkeypatch, fit, self.TAUS12, targets)
        was = old(self.TAUS12, targets)
        terms = len(self.TAUS12) - 1
        tol = 2 * (terms - 1) * 2.0 ** -53
        for x in _ts_points(rng, 2000):
            assert abs(new(x) - was(x)) <= tol * was(x)

    @pytest.mark.parametrize("taus", [TestTermStructure.TAUS,
                                      TestTermStructure.TAUS[:4]])
    @pytest.mark.parametrize("fit,old,kappa_start", TS_FITS)
    def test_fits_match_the_numpy_objective_run(self, taus, fit, old, kappa_start):
        rng = np.random.default_rng(3 + len(taus))
        targets = self.curve(rng, taus)
        x0 = np.array([math.log(v) for v in (targets[0], targets[-1], kappa_start)])
        config = NelderMeadConfig(eps1=1e-18, eps2=1e-24, max_iter=8000)
        want = reference_nelder_mead(old(taus, targets), x0, config)
        nu0, theta, kappa, got = fit(taus, targets)
        assert np.array_equal(got.x, want.x)
        assert (got.fx, got.iterations, got.converged) == (
            want.fx, want.iterations, want.converged)
        assert (nu0, theta, kappa) == tuple(math.exp(v) for v in want.x)


class TestFixedPointStop:
    """The CIR term-structure fit of a clean synthetic Heston surface runs
    onto the flat-curve ridge, where its simplex stops moving: an iteration
    leaves every vertex and value bit for bit as they were.  The fit then
    returns what its 8,000-iteration cap gives, without the evaluations."""

    @staticmethod
    def ts_inputs(tmp_path, monkeypatch):
        """(taus, corrected variances) of the CIR TS fit that calibrate runs
        on the surface, read back from a one-date quote file."""
        surf = synth_surface("heston", HestonParams(0.0025, 0.003, 2.0, 0.3, -0.4))
        path = write_quote_csv(tmp_path / "one.csv", [surf], vols_decimal=False)
        surfaces = cli.load_surfaces(cli.RunManifest(
            command="calibrate", input_path=str(path), output_dir=str(tmp_path / "out")))
        hist = cli.historical_context(surfaces)
        (surface,) = surfaces.values()
        seen = []

        def spy(taus, v2):
            seen.append((taus, v2))
            return calibrate_variance_ts(taus, v2)

        monkeypatch.setattr(cli, "calibrate_variance_ts", spy)
        cli.variance_pipeline(surface, hist["heston"][surface.date])
        (inputs,) = seen
        return inputs

    def test_matches_the_reference_run_to_the_cap(self, tmp_path, monkeypatch):
        taus, v2 = self.ts_inputs(tmp_path, monkeypatch)
        runs = []
        real = calibrate_mod.nelder_mead

        def counting(f, x0, config):
            calls = []

            def counted(x):
                calls.append(1)
                return f(x)

            runs.append((f, x0, config, calls))
            return real(counted, x0, config)

        monkeypatch.setattr(calibrate_mod, "nelder_mead", counting)
        nu0, theta, kappa, got = calibrate_variance_ts(taus, v2)
        ((f, x0, config, calls),) = runs
        reference_calls = []

        def counted_reference(x):
            reference_calls.append(1)
            return f(x)

        want = reference_nelder_mead(counted_reference, x0, config)
        assert (want.iterations, want.converged) == (calibrate_mod.TS_MAX_ITER + 1, False)
        assert np.array_equal(got.x, want.x)
        assert (got.fx, got.iterations, got.converged) == (
            want.fx, want.iterations, want.converged)
        assert (nu0, theta, kappa) == tuple(math.exp(v) for v in want.x)
        # the ridge: kappa far below 1e-4 and theta far above the curve
        assert kappa < 1e-4 and theta > 1.0
        assert len(calls) < 1000 < 15000 < len(reference_calls)

    def test_steps_stop_after_an_unchanged_iteration(self, tmp_path, monkeypatch):
        """The generator's last step asked for one point, the worst vertex
        itself, and got its value back: the iteration that changed nothing."""
        taus, v2 = self.ts_inputs(tmp_path, monkeypatch)
        objective = _ts_objective_of(monkeypatch, calibrate_variance_ts, taus, v2)
        x0 = np.array([math.log(v) for v in (v2[0], v2[-1], 2.0)])
        steps = calibrate_mod.nelder_mead_steps(x0, calibrate_mod._TS_NM_CONFIG)
        asked = next(steps)
        rounds = []
        while True:
            values = [objective(np.array(x)) for x in asked]
            rounds.append((asked, values))
            try:
                asked = steps.send(values)
            except StopIteration as stop:
                res = stop.value
                break
        assert all(type(v) is float for asked, _ in rounds for x in asked for v in x)
        assert res.iterations == calibrate_mod.TS_MAX_ITER + 1 and not res.converged
        assert len(rounds) < 1000
        (last,), (value,) = rounds[-1]
        same = [(x, v) for asked, values in rounds[:-1] for x, v in zip(asked, values)
                if x == last and v == value]
        assert same  # a vertex asked for before, bit for bit
        assert all(math.copysign(1.0, a) == math.copysign(1.0, b)
                   for a, b in zip(same[-1][0], last))


class TestOutliers:
    def test_monotone_stable_series_clean(self):
        assert detect_outliers([0.01, 0.0102, 0.0104, 0.0101]) == []

    def test_doubling_flagged(self):
        assert detect_outliers([0.01, 0.0102, 0.021, 0.0101]) == [2]

    def test_fortyish_percent_not_flagged(self):
        assert detect_outliers([0.01, 0.0102, 0.014, 0.0101]) == []

    @pytest.mark.parametrize("bad", [-0.35, 0.0, float("nan")])
    def test_value_not_positive_is_an_invariant_violation(self, bad):
        with pytest.raises(InvariantViolation, match=f"got {bad!r} at index 2"):
            detect_outliers([0.01, 0.0102, bad, 0.0101])

    def test_watching_a_negative_rho_raises_a_package_error(self):
        class R:
            def __init__(self, params):
                self.params = params
                self.start = params

        days = [R(HestonParams(0.01, 0.02, 2.0, 0.3, -0.4))] * 2
        with pytest.raises(FxsvolError, match="got -0.4 at index 0"):
            outlier_recalibration(days, ("rho",), lambda t, start, name: None)

    def test_recalibration_hook(self):
        class R:
            def __init__(self, params, start):
                self.params = params
                self.start = start

        days = [R(HestonParams(0.01, 0.02, 2.0, 0.3, -0.4),
                  HestonParams(0.01, 0.02, 2.0, 0.3, -0.4)),
                R(HestonParams(0.025, 0.02, 2.0, 0.3, -0.4),
                  HestonParams(0.012, 0.02, 2.0, 0.3, -0.4))]
        calls = []

        def redo(t, start, name):
            calls.append((t, name, start))
            return days[t]

        out = outlier_recalibration(days, ("nu0", "theta"), redo)
        assert out[0][1] is None
        assert out[1][1] is not None
        t, name, start = calls[0]
        assert (t, name) == (1, "nu0")
        assert start.nu0 == pytest.approx(0.024)  # doubled start value

    def test_sz_feller_theta_outlier_boosts_kappa(self):
        class R:
            def __init__(self, params, start):
                self.params = params
                self.start = start

        days = [R(SchobelZhuParams(0.1, 0.1, 1.0, 0.2, -0.3),
                  SchobelZhuParams(0.1, 0.1, 1.0, 0.2, -0.3)),
                R(SchobelZhuParams(0.1, 0.16, 1.0, 0.2, -0.3),
                  SchobelZhuParams(0.1, 0.1, 1.0, 0.2, -0.3))]
        calls = []

        def redo(t, start, name):
            calls.append((t, name, start))
            return days[t]

        outlier_recalibration(days, ("theta",), redo, sz_feller_mode=True)
        _, name, start = calls[0]
        assert name == "theta"
        assert start.theta == pytest.approx(0.2)
        assert start.kappa == pytest.approx(100.0)


@pytest.mark.parametrize("name,job", [("calibrate_full", full_job),
                                      ("two_stage_calibration", two_stage_job),
                                      ("calibration_risk", risk_job)])
def test_library_calls_are_their_jobs_run_alone(name, job):
    """Each library call keeps its name, takes and reports its job's
    parameters and has its docstring."""
    call = getattr(calibrate_mod, name)
    assert (call.__name__, call.__qualname__, call.__module__) == (
        name, name, "fxsvol.calibrate")
    assert inspect.signature(call) == inspect.signature(job)
    assert call.__doc__ == job.__doc__


class TestFullCalibration:
    def test_start_at_truth_converges_immediately(self, heston_surface,
                                                  heston_median_params):
        res = calibrate_full("heston", heston_surface, heston_median_params,
                             max_iter=400)
        assert res.cost_value < 1e-14
        assert res.rmse_vol < 1e-6

    def test_final_cost_never_exceeds_start_cost(self, heston_surface):
        start = HestonParams(0.009, 0.015, 2.5, 0.35, -0.30)
        start_cost = SurfaceCost(heston_surface)("heston", start)
        res = calibrate_full("heston", heston_surface, start, max_iter=80)
        assert res.cost_value <= start_cost

    def test_feller_mode_final_point_satisfies_bound(self, heston_surface):
        start = HestonParams(0.0082, 0.0143, 4.0, 0.2, -0.38)
        res = calibrate_full("heston", heston_surface, start, feller=True,
                             max_iter=400)
        p = res.params
        assert 2.0 * p.kappa * p.theta - p.omega ** 2 > 0.0
        assert res.feller_satisfied

    def test_residual_grid_matches_surface(self, heston_surface,
                                           heston_median_params):
        res = calibrate_full("heston", heston_surface, heston_median_params,
                             max_iter=50)
        assert len(res.residual_vols) == heston_surface.n_cells

    def test_rmse_report_shapes(self, heston_surface, heston_median_params):
        ctx = SurfaceCost(heston_surface)
        rmse_vol, rmse_vega, resid = rmse_report(ctx, "heston",
                                                 heston_median_params)
        assert rmse_vol < 1e-9
        assert rmse_vega < 1e-9
        assert len(resid) == 30

    def test_rmse_report_prices_the_surface_once(self, heston_surface,
                                                 heston_median_params, monkeypatch):
        ctx = SurfaceCost(heston_surface)
        expected = rmse_report(ctx, "heston", heston_median_params)
        calls = []
        kernel_calls = AttariLanes.calls

        def counting_calls(*args, **kwargs):
            calls.append(1)
            return kernel_calls(*args, **kwargs)

        monkeypatch.setattr(AttariLanes, "calls", counting_calls)
        assert rmse_report(ctx, "heston", heston_median_params) == expected
        assert len(calls) == 1
        # the vols are those of model_vols, bit for bit
        vols = ctx.model_vols("heston", heston_median_params)
        assert expected[2] == tuple(vols - ctx.market_vols)

    def test_single_cell_rmse_denominator(self):
        # rmse of one non-zero residual e among N cells is |e|/sqrt(N)
        errs = np.zeros(30)
        errs[7] = 0.003
        assert math.sqrt(np.mean(errs ** 2)) == pytest.approx(0.003 / math.sqrt(30))


class TestTwoStage:
    def test_symmetric_data_stays_near_symmetric_point(self, bates2f_params):
        surf = synth_surface("bates2f", bates2f_params)
        sym = (bates2f_params.f1.nu0 * 2, bates2f_params.f1.theta * 2,
               bates2f_params.f1.kappa, bates2f_params.f1.omega,
               bates2f_params.f1.rho)
        result, stage1 = two_stage_calibration(
            "bates2f", surf, sym, max_iter=300)
        assert result.cost_value <= stage1.fx + 1e-15
        assert result.rmse_vol < 5e-4
        f1, f2 = result.params.factors
        assert abs(f1.nu0 - f2.nu0) < 0.5 * (f1.nu0 + f2.nu0)

    def test_stage_caps(self, lane_surfaces):
        """By default stage 1 (5 tied coordinates) runs at most 1600
        iterations and stage 2 (10 coordinates) 800, the full fits' caps;
        a max_iter given caps both stages.  Both stop by the AND rule: stage 2
        (10 coordinates, whose initial simplex already meets the volume test)
        refuses stop_any, so the job takes no stop_any at all."""
        sym = (0.0041, 0.00715, 2.07, 0.30, -0.38)
        for max_iter, caps in [(None, (1600, 800)), (20, (20, 20))]:
            job = two_stage_job("bates2f", lane_surfaces[0], sym, max_iter=max_iter)
            stage1 = next(job)
            assert (len(stage1.layout.x0), stage1.config.max_iter) == (5, caps[0])
            fit = job.send(calibrate_mod.NMResult(x=stage1.layout.x0, fx=0.0, iterations=0,
                                                  converged=True))
            assert (len(fit.layout.x0), fit.config.max_iter) == (10, caps[1])
            assert stage1.config.stop_any is fit.config.stop_any is False
        with pytest.raises(TypeError, match="stop_any"):
            two_stage_job("bates2f", lane_surfaces[0], sym, max_iter=20, stop_any=True)

    def test_feller_truncation_leaves_ou_volatilities(self):
        """feller_truncated cuts each CIR-variance factor's omega to the
        bound and returns an OU-volatility set as it is."""
        tight = Factor(0.06, 0.02, 0.8, 0.3, -0.5)  # omega above sqrt(1.99 theta kappa)
        other = Factor(0.07, 0.05, 1.2, 0.2, -0.3)
        ouou = TwoFactorParams("ouou", tight, other)
        assert feller_truncated(ouou) is ouou
        sz = SchobelZhuParams(**asdict(tight))
        assert feller_truncated(sz) is sz
        cut = feller_truncated(TwoFactorParams("bates2f", tight, other))
        bound = math.sqrt(1.99 * 0.02 * 0.8)
        assert cut == TwoFactorParams("bates2f", replace(tight, omega=bound), other)
        assert cut.feller_satisfied()

    @pytest.mark.parametrize("pinned_rho", [None, (0.5, -0.5)], ids=["full", "pinned-rho"])
    def test_stop_any_refused_on_two_factor_fits(self, bates2f_params, lane_surfaces,
                                                 pinned_rho):
        """A two-factor fit's initial simplex (8 or 10 coordinates) already
        meets the OR rule's volume test, so stop_any is an error there."""
        job = full_job("bates2f", lane_surfaces[0], bates2f_params, pinned_rho=pinned_rho,
                       stop_any=True, max_iter=5)
        n = 8 if pinned_rho else 10
        with pytest.raises(InvariantViolation, match=f"{n}-coordinate fit"):
            next(job)

    def test_feller_truncation_formula(self):
        assert feller_truncate_omega(0.5, 0.0143, 2.07) == pytest.approx(
            math.sqrt(1.99 * 0.0143 * 2.07))
        assert feller_truncate_omega(0.1, 0.0143, 2.07) == 0.1


class TestCalibrationRisk:
    def test_exactly_attainable_fit_has_tiny_risk(self, heston_surface,
                                                  heston_median_params):
        risk = calibration_risk("heston", heston_surface, heston_median_params,
                                max_iter=600)
        assert max(risk.per_parameter.values()) < 1e-6

    def test_identical_cost_kinds_give_exact_zero(self, heston_surface,
                                                  heston_median_params):
        risk = calibration_risk("heston", heston_surface, heston_median_params,
                                cost_kinds=("mse", "mse", "mse"), max_iter=200)
        assert max(risk.per_parameter.values()) == 0.0

    def test_perturbed_surface_positive_and_reproducible(self, heston_surface,
                                                         heston_median_params):
        # perturb one smile node to break exact attainability
        from fxsvol.market_data import SmileNodes, TenorSlice, VolSurface
        sl = heston_surface.slices[2]
        vols = list(sl.vols.vols)
        vols[0] += 0.004
        bumped = TenorSlice(tenor=sl.tenor, tau=sl.tau, r_d=sl.r_d, r_f=sl.r_f,
                            forward=sl.forward, vols=SmileNodes(tuple(vols)),
                            strikes=sl.strikes)
        slices = tuple(bumped if s.tenor == sl.tenor else s
                       for s in heston_surface.slices)
        surf = VolSurface(date=heston_surface.date, spot=heston_surface.spot,
                          slices=slices)
        r1 = calibration_risk("heston", surf, heston_median_params, max_iter=250)
        r2 = calibration_risk("heston", surf, heston_median_params, max_iter=250)
        assert max(r1.per_parameter.values()) > 0.0
        assert r1.per_parameter == r2.per_parameter  # bit-reproducible

    @pytest.mark.parametrize("kind", ["heston", "sz"])
    def test_matches_reference_loop(self, kind, heston_surface, heston_median_params,
                                    sz_params):
        """calibration_risk, a job run fit by fit, is the old scalar loop bit
        for bit, on an attainable surface (tolerance stops) and another."""
        start = heston_median_params if kind == "heston" else sz_params
        for surface, max_iter in [(heston_surface, 400), (_surfaces()[4], 80)]:
            want = reference_calibration_risk(kind, surface, start, max_iter=max_iter)
            got = calibration_risk(kind, surface, start, max_iter=max_iter)
            _assert_same_results([got], [want])
        with pytest.raises(InvariantViolation):
            calibration_risk("bates2f", heston_surface, heston_median_params)


def _ripple(x):
    return float(np.sum(x * x) + 0.1 * np.sum(np.sin(1000.0 * x)))


def _rosen(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


def _overflow_right(x):
    if x[0] > 1.04:  # the first simplex point moves x[0] from 1.0 to 1.05
        raise NumericOverflow("characteristic function overflowed")
    return float(np.sum(x * x))


def _nan_late(x):
    return float("nan") if x[1] < 0.5 else _rosen(x)


def _plateau(x):
    # Feller-penalty-like plateau: equal values wherever x[0] > 1.05, and
    # rounded elsewhere, so new vertices often tie with old ones
    if x[0] > 1.05:
        return FELLER_PENALTY
    return round(float(np.sum(x * x)), 2)


def _signed_zero(x):
    # tells -0.0 from +0.0: the start's -0.0 coordinates cost 0.5 each, and
    # the offset rule turns them into +0.0 at the other simplex vertices
    return float(np.sum(x * x)) + 0.5 * sum(math.copysign(1.0, v) < 0.0 for v in x.tolist())


def _nan_off_start(x):
    # NaN at the second simplex vertex, whose x[0] is the start's -0.0 + 0.0
    return float("nan") if x[1] > 1.01 else float(np.sum(x * x))


def _inf_right(x):
    # +inf on a half-plane the initial simplex reaches at two vertices, so
    # vertices tie at +inf and the stable sort order decides
    return float("inf") if x[0] + x[1] > 2.02 else _rosen(x)


def _kink(x):
    # a valley with a kink steeper than eps1 per ulp: the simplex collapses
    # onto neighbouring floats about (0.3, 0.7), where its values still
    # spread by 1e14 and a contraction gives back the worst vertex itself
    d = x[0] - 0.3
    return 1e30 * (d if d > 0.0 else -2.0 * d) + 1e30 * abs(x[1] - 0.7)


def _start_at(x0, kind="test", fields=None):
    """A stand-in Layout: the start point x0 and, if given, the map fields."""
    return SimpleNamespace(kind=kind, x0=np.asarray(x0, dtype=float), fields=fields)


def _nm_job(x0, config):
    return (yield Fit(None, _start_at(x0), False, config))


def _outcome(f, x):
    try:
        return f(x)
    except FxsvolError as exc:
        return exc


def _reference_or_error(f, x0, config):
    try:
        return reference_nelder_mead(f, np.asarray(x0, dtype=float), config)
    except FxsvolError as exc:
        return exc


class TestLockstepNelderMead:
    """Lockstep lanes against the literal pre-generator Nelder-Mead loop."""

    LANES = [  # (objective, start, config): how each lane ends
        (lambda x: float(np.sum(x * x)), [1.0, 1.0], NelderMeadConfig()),  # tolerance
        (_rosen, [-1.2, 1.0], NelderMeadConfig(max_iter=30)),  # max_iter cap
        (_rosen, [-1.2, 1.0], NelderMeadConfig(eps1=1e-4, eps2=1e-30,
                                               stop_any=True)),  # stop_any
        (_ripple, [1.0, 1.0], NelderMeadConfig()),  # 6 shrinks
        (_ripple, [2.0, 0.5, -1.0], NelderMeadConfig()),  # 3-d, 7 shrinks
        (lambda x: float(np.sum(np.sqrt(np.abs(x)))), [0.0, 0.0],
         NelderMeadConfig()),  # zero start offsets, 55 shrinks
        (_overflow_right, [1.0, 1.0], NelderMeadConfig()),  # raises in the simplex
        (_nan_late, [-1.2, 1.0], NelderMeadConfig()),  # NaN after some iterations
        (lambda x: float("inf"), [0.0], NelderMeadConfig()),  # not finite at start
        (_plateau, [1.0, 1.0], NelderMeadConfig(max_iter=200)),  # ties with the worst
        (_ripple, [0.4 + 0.1 * k for k in range(10)],
         NelderMeadConfig(max_iter=150)),  # 10-d, the bates2f size
        (lambda x: 1e-12 * float(np.sum(x * x)), [1.0, 1.0],
         NelderMeadConfig()),  # AND: spread under eps1 from the start
        (_rosen, [-1.2, 1.0], NelderMeadConfig(eps1=0.0, eps2=1e-6,
                                               stop_any=True)),  # stop_any by volume
        (_signed_zero, [-0.0, 1.0, -0.0], NelderMeadConfig()),  # -0.0 start coordinates
        (_nan_off_start, [-0.0, 1.0], NelderMeadConfig()),  # NaN at a vertex with a 0.0
        (_inf_right, [1.0, 1.0], NelderMeadConfig()),  # +inf at two simplex vertices
        (_inf_right, [0.9, 1.0, 1.1], NelderMeadConfig(max_iter=300)),  # 3-d, +inf ties
    ]

    @staticmethod
    def assert_same(got, want):
        if isinstance(want, FxsvolError):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert np.array_equal(got.x, want.x)
        assert (got.fx, got.iterations, got.converged) == (
            want.fx, want.iterations, want.converged)

    def test_lanes_match_reference(self):
        want = [_reference_or_error(f, x0, cfg) for f, x0, cfg in self.LANES]
        assert [type(w) for w in want[6:9]] == [NumericOverflow, NonFiniteObjective,
                                                NonFiniteObjective]
        assert [w.converged for w in want[:6] + want[9:14] + want[15:]] == [
            True, False, True, True, True, True, False, False, True, True, True, True,
            True]
        assert type(want[14]) is NonFiniteObjective
        assert str(want[14]) == "objective NaN at [0.   1.05]"
        funcs = [f for f, _, _ in self.LANES]
        rounds = []

        def evaluate(rows):
            rounds.append(len(rows))
            return [_outcome(funcs[i], np.asarray(x)) for i, _, x in rows]

        got = lockstep([_nm_job(x0, cfg) for _, x0, cfg in self.LANES], evaluate)
        for g, w in zip(got, want):
            self.assert_same(g, w)
        # the first round prices every lane's start and initial simplex together
        assert rounds[0] == sum(len(x0) + 1 for _, x0, _ in self.LANES)

    def test_one_point_at_a_time_matches_reference(self):
        for f, x0, cfg in self.LANES:
            try:
                got = nelder_mead(lambda x: f(np.asarray(x)), np.asarray(x0, dtype=float), cfg)
            except FxsvolError as exc:
                got = exc
            self.assert_same(got, _reference_or_error(f, x0, cfg))

    def test_one_point_at_a_time_stops_at_the_first_failing_point(self):
        # a NaN at the first simplex point wins over an overflow at the second
        seen = []

        def f(x):
            seen.append(x)
            if len(seen) == 2:
                return float("nan")
            if len(seen) == 3:
                raise NumericOverflow("overflow")
            return 1.0

        with pytest.raises(NonFiniteObjective, match="objective NaN"):
            nelder_mead(f, np.array([1.0, 1.0]))
        assert len(seen) == 2

    def test_negative_max_iter_rejected(self):
        with pytest.raises(InvariantViolation):
            NelderMeadConfig(max_iter=-1)
        assert NelderMeadConfig(max_iter=0).max_iter == 0

    def test_same_bits(self):
        """The fixed-point test tells zeros apart by sign and never takes
        two NaN objects for the same bits."""
        same = calibrate_mod._same_bits
        nan = float("nan")
        assert same([1.0, -0.0, 0.0], [1.0, -0.0, 0.0])
        assert not same([0.0], [-0.0]) and not same([-0.0], [0.0])
        assert not same([1.0], [math.nextafter(1.0, 2.0)])
        assert same([nan], [nan]) and not same([nan], [float("nan")])

    def test_fixed_point_lane(self):
        """A lane whose objective value stalls, the simplex stuck on a kink
        where an iteration changes nothing, ends as the reference does at
        max_iter, after a tenth of its evaluations; the lanes run beside it
        are as before."""
        lanes = [(_kink, [1.0, 1.0], NelderMeadConfig(max_iter=3000))] + self.LANES[:2]
        counts = [[0] for _ in lanes]
        want = []
        for (f, x0, cfg), count in zip(lanes, counts):
            def counted(x, f=f, count=count):
                count[0] += 1
                return f(x)
            want.append(reference_nelder_mead(counted, np.asarray(x0, dtype=float), cfg))
        assert (want[0].iterations, want[0].converged) == (3001, False)
        funcs = [f for f, _, _ in lanes]
        rows = [0] * len(lanes)

        def evaluate(batch):
            for i, _, _ in batch:
                rows[i] += 1
            return [_outcome(funcs[i], np.asarray(x)) for i, _, x in batch]

        got = lockstep([_nm_job(x0, cfg) for _, x0, cfg in lanes], evaluate)
        for g, w in zip(got, want):
            self.assert_same(g, w)
        assert 10 * rows[0] < counts[0][0]
        assert rows[1:] == [c[0] for c in counts[1:]]
        one = nelder_mead(_kink, np.array([1.0, 1.0]), lanes[0][2])
        self.assert_same(one, want[0])

    def test_objectives_get_the_simplex_tuples(self):
        """nelder_mead and lockstep hand every objective a tuple of Python
        floats, and their points are the ones the reference loop evaluates,
        bit for bit and in order.  A lane that fails may have been handed
        more points of the round its failing point was in."""
        def bits(x):
            return np.asarray(x, dtype=float).view(np.uint64).tolist()

        def check(points, want, failed):
            assert all(type(x) is tuple and all(type(v) is float for v in x)
                       for x in points)
            got = [bits(x) for x in points]
            assert (got[:len(want)] if failed else got) == want

        want = []
        for f, x0, cfg in self.LANES:
            seen = []

            def recorded(x, f=f, seen=seen):
                seen.append(bits(x))
                return f(x)

            out = _reference_or_error(recorded, x0, cfg)
            want.append((seen, isinstance(out, FxsvolError)))
        for (f, x0, cfg), (seen, failed) in zip(self.LANES, want):
            points = []

            def recorded(x, f=f, points=points):
                points.append(x)
                return f(np.asarray(x))

            try:
                nelder_mead(recorded, x0, cfg)
            except FxsvolError:
                pass
            check(points, seen, False)
        funcs = [f for f, _, _ in self.LANES]
        lanes = [[] for _ in self.LANES]

        def evaluate(rows):
            for i, _, x in rows:
                lanes[i].append(x)
            return [_outcome(funcs[i], np.asarray(x)) for i, _, x in rows]

        lockstep([_nm_job(x0, cfg) for _, x0, cfg in self.LANES], evaluate)
        for points, (seen, failed) in zip(lanes, want):
            check(points, seen, failed)


def _surfaces():
    """Four Heston-draw surfaces on different dates, spots and rates, and one
    with four tenors (its own kernel group)."""
    rng = np.random.default_rng(77)
    out = [synth_surface("heston", draw_heston(rng), date=f"2014-06-0{2 + i}",
                         spot=1.30 + 0.02 * i, r_d=0.012 + 0.001 * i)
           for i in range(4)]
    out.append(synth_surface("heston", draw_heston(rng), date="2014-06-06",
                             tenors=("1M", "2M", "3M", "6M")))
    return out


@pytest.fixture(scope="module")
def lane_surfaces():
    return _surfaces()


def _overflow_on_surface(surface, monkeypatch, calls):
    """Make every kernel call that prices surface raise the CF's overflow
    error; calls gets the row count of every kernel call.  The drift-centred
    CF does not see the spot, so the lanes are told apart by the kernel's
    discounted spots."""
    bad = SurfaceCost(surface).kernel.s_df[0, 0, 0]
    plain = AttariLanes.calls

    def overflowing_calls(kernel, cf):
        calls.append(kernel.tau.shape[0])
        if np.any(kernel.s_df[:, 0, 0] == bad):
            raise NumericOverflow("characteristic function overflowed; reduce |u|*tau")
        return plain(kernel, cf)

    monkeypatch.setattr(AttariLanes, "calls", overflowing_calls)


def _result_or_error(job):
    """The job's result or error from the scalar reference driver."""
    try:
        return reference_run_job(job)
    except FxsvolError as exc:
        return exc


def _run_job_or_error(job):
    try:
        return run_job(job)
    except FxsvolError as exc:
        return exc


def _assert_same_results(got, want):
    for g, w in zip(got, want):
        if isinstance(w, FxsvolError):
            assert type(g) is type(w) and str(g) == str(w)
        elif isinstance(w, tuple):  # two-stage: (result, stage-1 NMResult)
            assert g[0] == w[0]
            assert np.array_equal(g[1].x, w[1].x) and g[1].fx == w[1].fx
        elif isinstance(w, CalibrationRisk):
            assert g.per_parameter == w.per_parameter
            assert len(g.results) == len(w.results)
            for (gk, gp, gr), (wk, wp, wr) in zip(g.results, w.results):
                assert (gk, gp, gr.fx, gr.iterations, gr.converged) == \
                    (wk, wp, wr.fx, wr.iterations, wr.converged)
                assert np.array_equal(gr.x, wr.x)
        else:
            assert g == w


class TestRunLanes:
    """run_lanes and run_job give every job the scalar reference driver's
    result bit for bit (nm_reference.reference_run_job)."""

    def heston_starts(self, surfaces):
        return [HestonParams(0.01, 0.015, 2.0, 0.3 + 0.02 * i, -0.4)
                for i in range(len(surfaces))]

    @pytest.mark.parametrize("target,feller", [("vega_weighted_price", False),
                                               ("implied_vol", False),
                                               ("vega_weighted_price", True)])
    def test_heston_full_fits(self, lane_surfaces, target, feller):
        starts = self.heston_starts(lane_surfaces)

        def jobs():
            return [full_job("heston", s, st, cost_spec=CostSpec(kind="mae", target=target),
                             feller=feller, max_iter=40)
                    for s, st in zip(lane_surfaces, starts)]

        want = [_result_or_error(j) for j in jobs()]
        assert want[0] == calibrate_full("heston", lane_surfaces[0], starts[0],
                                         cost_spec=CostSpec(kind="mae", target=target),
                                         feller=feller, max_iter=40)
        _assert_same_results(run_lanes(jobs()), want)
        _assert_same_results([_run_job_or_error(j) for j in jobs()], want)

    @pytest.mark.parametrize("kind", ["sz", "bates2f", "ouou"])
    def test_other_models(self, lane_surfaces, kind):
        surfaces = lane_surfaces[:3] + lane_surfaces[4:]
        if kind == "sz":
            starts = [SchobelZhuParams(0.09, 0.11, 1.4, 0.15 + 0.01 * i, -0.38)
                      for i in range(len(surfaces))]
            pinned = [None] * len(surfaces)
        else:
            f1 = Factor(0.0041, 0.00715, 2.07, 0.30, -0.38)
            f2 = Factor(0.0050, 0.00600, 1.10, 0.22, 0.10)
            starts = [TwoFactorParams(kind, f1, f2)] * len(surfaces)
            pinned = [None, (-0.38, 0.10), None, (-0.5, 0.2)]

        def jobs():
            return [full_job(kind, s, st, max_iter=15, pinned_rho=p,
                             feller=(kind == "bates2f"))
                    for s, st, p in zip(surfaces, starts, pinned)]

        _assert_same_results(run_lanes(jobs()), [_result_or_error(j) for j in jobs()])

    def test_two_stage_and_small_blocks(self, lane_surfaces, monkeypatch):
        sym = (0.0041, 0.00715, 2.07, 0.30, -0.38)

        def jobs():
            return [two_stage_job("bates2f", s, sym, feller=True, max_iter=15)
                    for s in lane_surfaces]

        want = [_result_or_error(j) for j in jobs()]
        assert want[0][0] == two_stage_calibration(
            "bates2f", lane_surfaces[0], sym, feller=True, max_iter=15)[0]
        # blocks of two lanes, so kernel calls of at most two rows, change nothing
        monkeypatch.setattr(calibrate_mod, "LANES_PER_BLOCK", 2)
        _assert_same_results(run_lanes(jobs()), want)

    def test_overflow_in_one_lane(self, lane_surfaces, monkeypatch):
        """A CF that overflows on one surface fails that lane only, with the
        error of its one-surface run; the chunks it shared are priced again
        row by row."""
        calls = []
        _overflow_on_surface(lane_surfaces[1], monkeypatch, calls)
        starts = self.heston_starts(lane_surfaces)

        def jobs():
            return [full_job("heston", s, st, max_iter=30)
                    for s, st in zip(lane_surfaces, starts)]

        want = [_result_or_error(j) for j in jobs()]
        assert isinstance(want[1], NumericOverflow)
        assert not any(isinstance(w, FxsvolError) for i, w in enumerate(want) if i != 1)
        calls.clear()
        got = run_lanes(jobs())
        _assert_same_results(got, want)
        assert max(calls) > 1 and 1 in calls  # batched, then row by row

    @pytest.mark.parametrize("target", ["vega_weighted_price", "implied_vol"])
    def test_pricer_never_calls_the_context(self, lane_surfaces, monkeypatch, target):
        """Every chunk, of one row or many, prices through the stacked
        kernel: run_job, run_lanes (whose four-tenor lane is a one-row chunk
        every round) and an overflowing lane's rows priced again as chunks
        of one never call SurfaceCost.__call__, the oracle's cost."""
        _overflow_on_surface(lane_surfaces[1], monkeypatch, [])
        starts = self.heston_starts(lane_surfaces)

        def jobs():
            return [full_job("heston", s, st, cost_spec=CostSpec(target=target),
                             max_iter=20) for s, st in zip(lane_surfaces, starts)]

        want = [_result_or_error(j) for j in jobs()]
        assert isinstance(want[1], NumericOverflow)

        def refused(*args, **kwargs):
            raise AssertionError("SurfaceCost.__call__ called")

        monkeypatch.setattr(SurfaceCost, "__call__", refused)
        _assert_same_results(run_lanes(jobs()), want)
        _assert_same_results([_run_job_or_error(j) for j in jobs()], want)

    def test_run_job_overflow_mid_fit(self, lane_surfaces, monkeypatch):
        """A vertex whose CF overflows after the initial simplex ends run_job
        with the reference driver's error, type and message."""
        evaluations = []

        def overflowing_factory(kind, params, jump=None):
            cf = cf_factory(kind, params, jump=jump)
            sets = params.factors[0]

            def wrapped(u, tau):
                evaluations.append(np.size(sets.nu0))
                if np.any(np.asarray(sets.nu0) > 0.0112):
                    raise NumericOverflow(f"characteristic function overflowed at "
                                          f"nu0 {np.max(sets.nu0)!r}")
                return cf(u, tau)
            return wrapped

        monkeypatch.setattr(calibrate_mod, "cf_factory", overflowing_factory)

        def job():
            return full_job("heston", lane_surfaces[0],
                            HestonParams(0.01, 0.015, 2.0, 0.3, -0.4), max_iter=40)

        want = _result_or_error(job())
        assert isinstance(want, NumericOverflow)
        assert sum(evaluations) > 6  # past the start and the initial simplex
        evaluations.clear()
        with pytest.raises(NumericOverflow) as got:
            run_job(job())
        assert str(got.value) == str(want)
        assert max(evaluations) > 1  # the initial simplex went as one chunk

    @pytest.mark.parametrize("kind", ["heston", "sz"])
    def test_risk_jobs(self, lane_surfaces, kind):
        """Risk jobs run their three cost kinds as the fits of one lane, some
        stopping on tolerance and some at the cap; a lane whose start raises
        fails alone."""
        if kind == "heston":
            starts = self.heston_starts(lane_surfaces)
        else:
            starts = [SchobelZhuParams(0.09, 0.11, 1.4, 0.15 + 0.01 * i, -0.38)
                      for i in range(len(lane_surfaces))]

        def jobs():
            out = [risk_job(kind, s, st, max_iter=150)
                   for s, st in zip(lane_surfaces, starts)]
            out[2] = risk_job("bates2f", lane_surfaces[2], starts[2])
            return out

        want = [_result_or_error(j) for j in jobs()]
        assert isinstance(want[2], InvariantViolation)
        assert all(isinstance(w, CalibrationRisk) for i, w in enumerate(want) if i != 2)
        _assert_same_results(run_lanes(jobs()), want)

    def test_parameter_overflow_fails_its_lane(self, lane_surfaces):
        """A point whose parameters overflow a float (math.exp in
        Layout.params, as in risk_job) is that lane's NumericOverflow; the
        other lanes go on."""
        layout = Layout("heston", [HestonParams(1.0, 1.0, 1.0, 0.3, -0.4)],
                        free=("nu0", "theta", "kappa"))

        def job(surface, x0):
            return (yield Fit(SurfaceCost(surface), _start_at(x0, "heston", layout.fields),
                              False, NelderMeadConfig(max_iter=20)))

        start = [math.log(0.01), math.log(0.015), math.log(2.0)]
        overflowing = [math.log(0.01), 800.0, math.log(2.0)]
        with pytest.raises(NumericOverflow):
            run_job(job(lane_surfaces[1], overflowing))
        got = run_lanes([job(lane_surfaces[0], start), job(lane_surfaces[1], overflowing)])
        assert isinstance(got[1], NumericOverflow)
        assert str(got[1]) == "parameter transform overflowed: math range error"
        want = run_job(job(lane_surfaces[0], start))
        assert np.array_equal(got[0].x, want.x) and got[0].fx == want.fx

    def test_pricer_maps_the_simplex_tuples(self, lane_surfaces, monkeypatch):
        """Every point the lane pricer maps through Layout.fields is the
        simplex's tuple of Python floats, for full, two-stage and risk fits;
        the results are the reference driver's.  Layout.params,
        which maps each fit's NMResult.x array, is not spied on."""
        starts = self.heston_starts(lane_surfaces)
        sym = (0.005, 0.007, 2.0, 0.3, -0.4)

        def jobs():
            return ([full_job("heston", s, st, max_iter=20)
                     for s, st in zip(lane_surfaces, starts)]
                    + [full_job("sz", lane_surfaces[0], SchobelZhuParams(
                           0.09, 0.11, 1.4, 0.15, -0.38), max_iter=20),
                       two_stage_job("bates2f", lane_surfaces[1], sym, max_iter=10),
                       risk_job("heston", lane_surfaces[2], starts[2], max_iter=20)])

        want = [_result_or_error(j) for j in jobs()]
        assert not any(isinstance(w, FxsvolError) for w in want)
        seen = []
        fields = Layout.fields

        def spy(layout, x):
            seen.append(x)
            return fields(layout, x)

        monkeypatch.setattr(Layout, "fields", spy)
        monkeypatch.setattr(Layout, "params",
                            lambda layout, x: model_params(layout.kind, fields(layout, x)))
        got = run_lanes(jobs())
        assert len(seen) > 100
        assert all(type(x) is tuple and all(type(v) is float for v in x) for x in seen)
        _assert_same_results(got, want)

    def test_one_kernel_call_a_round(self, lane_surfaces, monkeypatch):
        """Twenty one-factor lanes: every round after the initial simplices
        prices all its rows in one AttariLanes.calls, and the results are
        the reference driver's bit for bit."""
        rng = np.random.default_rng(29)
        starts = [draw_heston(rng) for _ in range(20)]

        def jobs():
            return [full_job("heston", lane_surfaces[i % 4], st, max_iter=30)
                    for i, st in enumerate(starts)]

        want = [_result_or_error(j) for j in jobs()]
        calls = []
        plain_calls = AttariLanes.calls

        def spy(kernel, cf):
            calls.append(kernel.tau.shape[0])
            return plain_calls(kernel, cf)

        rounds = []

        class Recording(calibrate_mod._SurfacePricer):
            def __call__(self, rows):
                first = len(calls)
                out = super().__call__(rows)
                rounds.append((len(rows), calls[first:]))
                return out

        monkeypatch.setattr(AttariLanes, "calls", spy)
        monkeypatch.setattr(calibrate_mod, "_SurfacePricer", Recording)
        got = run_lanes(jobs())
        _assert_same_results(got, want)
        block = calibrate_mod.LANES_PER_BLOCK
        assert rounds[0] == (20 * 6, [block, 20 * 6 - block])
        assert len(rounds) > 30
        assert all(made == [n] for n, made in rounds[1:])
        assert max(n for n, _ in rounds[1:]) > 16  # wider than one old chunk

    def test_invalid_point_fails_its_lane_with_the_set_error(self, lane_surfaces):
        """A point outside the parameter rule (nu0 = exp(-800) = 0) is its
        lane's InvariantViolation, model_params' own text, as the reference
        driver raises it; the other lane goes on."""
        layout = Layout("heston", [HestonParams(0.01, 0.015, 2.0, 0.3, -0.4)])
        bad = layout.x0.copy()
        bad[0] = -800.0

        def job(surface, x0):
            at_x0 = SimpleNamespace(kind="heston", x0=x0, params=layout.params,
                                    fields=layout.fields)
            return (yield Fit(SurfaceCost(surface), at_x0, False,
                              NelderMeadConfig(max_iter=20)))

        want = _result_or_error(job(lane_surfaces[1], bad))
        assert isinstance(want, InvariantViolation)
        assert str(want).startswith("heston factor needs nu0, kappa, omega > 0, theta > 0 "
                                    "and |rho| < 1: HestonParams(nu0=0.0, theta=")
        got = run_lanes([job(lane_surfaces[0], layout.x0), job(lane_surfaces[1], bad)])
        assert type(got[1]) is InvariantViolation and str(got[1]) == str(want)
        alone = run_job(job(lane_surfaces[0], layout.x0))
        assert np.array_equal(got[0].x, alone.x) and got[0].fx == alone.fx
        with pytest.raises(InvariantViolation) as one:
            layout.fields(bad)
        assert str(one.value) == str(want)

    def test_job_fits_of_two_surfaces(self, lane_surfaces):
        """A job whose fits price two surfaces, the second of another shape
        and model, gets the reference result: each row is priced through
        its own fit's kernel.  The first fits have caps of 6 to 9 iterations,
        so some rounds price both surfaces' rows."""
        def job(first, max_iter):
            res = yield Fit(SurfaceCost(first), Layout("heston", [HestonParams(
                0.01, 0.015, 2.0, 0.3, -0.4)]), False, NelderMeadConfig(max_iter=max_iter))
            sz = SchobelZhuParams(0.09, 0.11, 1.4, 0.15, -0.38)
            res2 = yield Fit(SurfaceCost(lane_surfaces[4], CostSpec(kind="mae")),
                             Layout("sz", [sz]), False, NelderMeadConfig(max_iter=10))
            return res.x.tolist(), res.fx, res2.x.tolist(), res2.fx

        def jobs():
            return [job(s, 6 + i) for i, s in enumerate(lane_surfaces[:4])]

        want = [_result_or_error(j) for j in jobs()]
        assert run_lanes(jobs()) == want
        assert [_run_job_or_error(j) for j in jobs()] == want


def _fresh_context_job(surface, start):
    """Two fits of one surface, each through a context of its own, so the
    first context is dropped while the run goes on."""
    first = Layout("heston", start.factors)
    res = yield Fit(SurfaceCost(surface), first, False, NelderMeadConfig(max_iter=25))
    second = Layout("heston", first.params(res.x).factors)
    res = yield Fit(SurfaceCost(surface, CostSpec(kind="mae")), second, False,
                    NelderMeadConfig(max_iter=25))
    return [res.x.tolist(), res.fx, res.iterations, res.converged]


class TestStackedKernels:
    """A lockstep run keeps the stacked constants of its last chunks; they
    never outlive the run and never stand in for other kernels."""

    @staticmethod
    def recording_pricer(monkeypatch):
        """Patch in a pricer that records, per call, how many rows its stacks
        hold in all, and weak references to itself and to every stacked
        kernel."""
        seen = SimpleNamespace(sizes=[], refs=[], stacked=0, built=0)

        class Recording(calibrate_mod._SurfacePricer):
            def __init__(self):
                super().__init__()
                seen.refs.append(weakref.ref(self))

            def __call__(self, rows):
                out = super().__call__(rows)
                seen.sizes.append(sum(len(key) for key in self.stacks))
                seen.refs.extend(weakref.ref(entry[0]) for entry in self.stacks.values())
                return out

            def _stacked(self, ctxs):
                seen.stacked += 1
                return super()._stacked(ctxs)

        real_stack = AttariLanes.stack.__func__

        def counting_stack(cls, kernels):
            seen.built += 1
            return real_stack(cls, kernels)

        monkeypatch.setattr(calibrate_mod, "_SurfacePricer", Recording)
        monkeypatch.setattr(AttariLanes, "stack", classmethod(counting_stack))
        return seen

    @staticmethod
    def jobs(surfaces, rng):
        out = [full_job("heston", s, draw_heston(rng), max_iter=40) for s in surfaces]
        out += [_fresh_context_job(s, draw_heston(rng)) for s in surfaces[:2]]
        return out

    @staticmethod
    def assert_run_freed(seen):
        gc.collect()
        assert seen.refs and all(ref() is None for ref in seen.refs)

    def test_no_stale_stacks_across_runs(self, lane_surfaces, monkeypatch):
        seen = self.recording_pricer(monkeypatch)
        want = [_result_or_error(j) for j in self.jobs(lane_surfaces, np.random.default_rng(3))]
        _assert_same_results(run_lanes(self.jobs(lane_surfaces, np.random.default_rng(3))),
                             want)
        assert max(seen.sizes) <= calibrate_mod.LANES_PER_BLOCK
        assert 0 < seen.built < seen.stacked  # stacks are reused across rounds
        self.assert_run_freed(seen)
        # every context of the first run is gone, so new ones may take their
        # addresses; the second run must price only its own surfaces
        del want
        gc.collect()
        rng = np.random.default_rng(78)
        others = [synth_surface("heston", draw_heston(rng), date=f"2014-07-0{1 + i}",
                                spot=1.25 + 0.03 * i) for i in range(4)]
        others.append(synth_surface("heston", draw_heston(rng), date="2014-07-07",
                                    tenors=("1M", "2M", "3M", "6M")))
        want = [_result_or_error(j) for j in self.jobs(others, np.random.default_rng(4))]
        _assert_same_results(run_lanes(self.jobs(others, np.random.default_rng(4))), want)
        _assert_same_results([_run_job_or_error(j)
                              for j in self.jobs(others, np.random.default_rng(4))], want)
        self.assert_run_freed(seen)

    def test_evicted_stacks(self, lane_surfaces, monkeypatch):
        """Blocks of four lanes make rounds of more rows than the cache holds
        (LANES_PER_BLOCK = 4 rows of stacks), the initial simplices and the
        shrinks, so stacks are evicted and built again, and a context dropped
        mid-run keeps its kernel alive only while a stack names it."""
        monkeypatch.setattr(calibrate_mod, "LANES_PER_BLOCK", 4)
        seen = self.recording_pricer(monkeypatch)
        want = [_result_or_error(j) for j in self.jobs(lane_surfaces, np.random.default_rng(5))]
        _assert_same_results(run_lanes(self.jobs(lane_surfaces, np.random.default_rng(5))),
                             want)
        assert max(seen.sizes) == 4
        assert seen.built > 4
        self.assert_run_freed(seen)


    def test_stacks_hold_their_kernels(self, lane_surfaces):
        """A cached stack keeps the kernels it was built from alive, so no
        kernel built later can take the id of one it names."""
        pricer = calibrate_mod._SurfacePricer()
        ctxs = [SurfaceCost(s) for s in lane_surfaces[:3]]
        refs = [weakref.ref(ctx.kernel) for ctx in ctxs]
        layout = Layout("heston", [HestonParams(0.01, 0.015, 2.0, 0.3, -0.4)])
        rows = [(i, Fit(ctx, layout, False, NelderMeadConfig()), layout.x0)
                for i, ctx in enumerate(ctxs)]
        pricer(rows)
        del rows, ctxs
        gc.collect()
        assert all(ref() is not None for ref in refs)
        del pricer
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestChunkCosts:
    """A chunk's costs, of one row to 16 rows, come from one _costs
    per cost spec, and each is the row-by-row oracle's cost bit for bit, as
    is SurfaceCost's own."""

    @staticmethod
    def one_row(ctx, kind, params):
        try:
            return reference_cost(ctx, ctx.model_calls(kind, params))
        except FxsvolError as exc:
            return exc

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w)
            assert g == w if isinstance(w, float) else str(g) == str(w)

    @pytest.mark.parametrize("target", ["vega_weighted_price", "implied_vol"])
    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_chunks_of_2_to_16_rows(self, lane_surfaces, kind, target, monkeypatch):
        rng = np.random.default_rng(11)
        ctxs = [SurfaceCost(s, CostSpec(kind=kind, target=target)) for s in lane_surfaces]
        real = calibrate_mod._costs
        specs = []

        def counted(spec, *args):
            specs.append(spec)
            return real(spec, *args)

        for n in range(1, 17):
            # one chunk over the six-tenor surfaces in turn, one on the
            # four-tenor surface, and one whose rows cycle through the cost
            # kinds as risk lanes do
            for mixed, chunk_ctxs in [
                    (False, [ctxs[j % 4] for j in range(n)]),
                    (False, [ctxs[4]] * n),
                    (True, [ctxs[j % 4].with_spec(
                        CostSpec(kind=COST_KINDS[j % len(COST_KINDS)], target=target))
                            for j in range(n)])]:
                rows = []
                for ctx in chunk_ctxs:
                    layout = Layout("heston", draw_heston(rng).factors)
                    rows.append((len(rows), Fit(ctx, layout, False, NelderMeadConfig()),
                                 layout.x0))
                want = [self.one_row(fit.ctx, fit.layout.kind, fit.layout.params(x))
                        for _, fit, x in rows]
                specs.clear()
                monkeypatch.setattr(calibrate_mod, "_costs", counted)
                got = calibrate_mod._SurfacePricer()(rows)
                monkeypatch.setattr(calibrate_mod, "_costs", real)
                self.assert_same(got, want)
                # one _costs per spec: a mixed chunk splits by cost kind
                assert len(specs) == (min(n, len(COST_KINDS)) if mixed else 1)
                assert len(set(specs)) == len(specs)

    @pytest.mark.parametrize("target", ["vega_weighted_price", "implied_vol"])
    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_surface_cost_call(self, lane_surfaces, kind, target):
        """SurfaceCost.__call__ is the oracle's cost, the Feller penalty where
        asked for and broken, and the oracle's error where it raises."""
        rng = np.random.default_rng(23)
        tiny = HestonParams(1e-14, 1e-14, 2.0, 1e-7, -0.3)  # prices below intrinsic
        params = [draw_heston(rng) for _ in range(6)] + [tiny]
        for surface in (lane_surfaces[0], lane_surfaces[4]):
            ctx = SurfaceCost(surface, CostSpec(kind=kind, target=target))
            for feller in (False, True):
                want = [FELLER_PENALTY if feller and not p.feller_satisfied()
                        else self.one_row(ctx, "heston", p) for p in params]
                got = []
                for p in params:
                    try:
                        got.append(ctx("heston", p, feller=feller))
                    except FxsvolError as exc:
                        got.append(exc)
                self.assert_same(got, want)
                assert FELLER_PENALTY in want if feller else FELLER_PENALTY not in want
            oob = isinstance(want[-1], OutOfBounds)
            assert oob if target == "implied_vol" else isinstance(want[-1], float)
