import math

import numpy as np
import pytest
from scipy.integrate import quad

from fxsvol import estimators
from fxsvol.charfn import HestonParams, cf_factory
from fxsvol.errors import (
    DegenerateMoments,
    NoValidRoot,
    ShortSeries,
    ZeroTotalVariance,
)
from fxsvol.estimators import (
    Estimate,
    durrleman,
    evp_split,
    gauthier_rivaille,
    gr_coefficients,
    gr_forward_price,
    gr_from_surface,
    guillaume_schoutens,
    half_relation,
    historical_omega_rho,
    icm_heston,
    icm_sz,
    mevp_split,
    smile_regression,
    two_factor_mixture_stats,
    variance_weight_integrals,
)
from fxsvol.market_data import SmileNodes, TenorSlice, VolSurface
from fxsvol.moments import ImpliedMomentSet
from fxsvol.pricer import OptionSpec, gil_pelaez_price

from conftest import draw_heston
from gr_reference import printed_gr_coefficients
from synthutil import synth_surface


def mset(tau, mu2, ey2, exy, mu3=0.0, mu4=0.0):
    return ImpliedMomentSet(tau=tau, mu2=mu2, mu3=mu3, mu4=mu4, skew=0.0,
                            kurt=3.0, a_factor=math.sqrt(1 + mu2), ey2=ey2,
                            exy=exy)


class TestIcmHeston:
    def test_arithmetic_example(self):
        est = icm_heston([mset(1.0, 0.01, 0.0003, -0.0006)])
        assert est.omega == pytest.approx(0.3)
        assert est.rho == pytest.approx(-0.4)

    def test_degenerate(self):
        with pytest.raises(DegenerateMoments):
            icm_heston([mset(1.0, 0.01, 0.0, 0.0)])
        with pytest.raises(DegenerateMoments):
            icm_heston([])

    def test_reorder_invariance(self):
        sets = [mset(0.25, 0.003, 0.0004, -0.0005),
                mset(1.0, 0.011, 0.0003, -0.0006),
                mset(2.0, 0.024, 0.0002, -0.0004)]
        a = icm_heston(sets)
        b = icm_heston(list(reversed(sets)))
        assert (a.omega, a.rho) == (b.omega, b.rho)

    def test_rho_clamped_with_flag(self):
        # icm_sz shares the aggregation and its clamp
        for est, raw in ((icm_heston([mset(1.0, 0.01, 0.0003, -0.01)]), "-6.6667"),
                         (icm_sz([mset(1.0, 0.01, 0.0008, -0.01)], nu0_sz=0.1), "-2.7795")):
            assert est.rho == -0.99
            assert est.flags == (f"rho {raw} clamped to +/-0.99",)

    def test_weight_integrals_match_quadrature(self):
        nu0, th, ka, tau = 0.0082, 0.0143, 2.07, 0.5
        ev = lambda s: th + (nu0 - th) * math.exp(-ka * s)
        i1q = quad(lambda s: (1 - math.exp(-ka * (tau - s))) / ka * ev(s), 0, tau)[0]
        i2q = quad(lambda s: (1 - math.exp(-ka * (tau - s))) ** 2 / ka ** 2 * ev(s),
                   0, tau)[0]
        i1, i2 = variance_weight_integrals(nu0, th, ka, tau)
        assert i1 == pytest.approx(i1q, abs=1e-15)
        assert i2 == pytest.approx(i2q, abs=1e-15)

    def test_exact_weights_variant_runs(self):
        sets = [mset(0.5, 0.005, 0.0004, -0.0005)]
        limit = icm_heston(sets)
        exact = icm_heston(sets, ts_params=(0.0082, 0.0143, 2.07))
        assert exact.omega != limit.omega  # different denominators


class TestIcmSz:
    def test_zero_ey2_gives_zero_omega2(self):
        with pytest.raises(DegenerateMoments):
            # -nu0^2/tau + sqrt(nu0^4)/tau = 0 exactly
            icm_sz([mset(1.0, 0.01, 0.0, 0.0)], nu0_sz=0.1)
        with pytest.raises(DegenerateMoments, match="no tenors supplied"):
            icm_sz([], nu0_sz=0.1)

    def test_arithmetic_example(self):
        nu0, tau, ey2, exy = 0.1, 1.0, 0.0008, -0.0004
        om2 = -nu0 ** 2 / tau + math.sqrt(nu0 ** 4 + 0.5 * ey2) / tau
        rhom = exy / (om2 * tau ** 2 + 2 * nu0 ** 2 * tau)
        est = icm_sz([mset(tau, 0.01, ey2, exy)], nu0_sz=nu0)
        assert est.omega == pytest.approx(math.sqrt(om2))
        assert est.rho == pytest.approx(rhom / math.sqrt(om2))

    def test_half_relation_mode(self):
        est = half_relation(Estimate(omega=0.4, rho=-0.4, flags=("ignored",)))
        assert est.omega == 0.2
        assert est.rho == -0.4
        assert est.flags == ("half-relation from CIR-variance estimates",)


def parabola_surface(slope, curv, atm=0.10, spot=1.30):
    """Two-tenor surface whose shortest smile is exactly the test parabola."""
    strikes = spot * np.array([0.93, 0.97, 1.0, 1.03, 1.07])
    slices = []
    for tenor, tau, scale in (("1M", 1 / 12, 1.0), ("2M", 2 / 12, 1.0)):
        x = strikes / spot - 1.0
        vols = atm + slope * x + 0.5 * curv * x * x
        # keep the exact parabola values; strikes already increase
        slices.append(TenorSlice(tenor=tenor, tau=tau, r_d=0.0, r_f=0.0,
                                 forward=spot, vols=SmileNodes(tuple(vols)),
                                 strikes=tuple(strikes)))
    return VolSurface(date="2014-06-02", spot=spot, slices=tuple(slices))


class TestDurrleman:
    def test_parabola_recovered_exactly(self):
        surf = parabola_surface(slope=-0.08, curv=0.9)
        s, c = smile_regression(surf)
        assert s == pytest.approx(-0.08, abs=1e-12)
        assert c == pytest.approx(0.9, abs=1e-12)

    def test_flat_smile_guarded(self):
        surf = parabola_surface(slope=0.0, curv=0.0)
        est = durrleman(surf, nu0_proxy=0.01)
        assert est.omega == 0.0
        assert est.rho == 0.0
        assert est.flags

    def test_sign_propagation_pure_skew(self):
        est = durrleman(parabola_surface(slope=-0.05, curv=0.0), nu0_proxy=0.01)
        assert est.rho < 0.0
        est = durrleman(parabola_surface(slope=0.05, curv=0.0), nu0_proxy=0.01)
        assert est.rho > 0.0

    def test_kappa_hat_diagnostic(self):
        est = durrleman(parabola_surface(-0.05, 0.8), nu0_proxy=0.01, theta=0.02)
        assert math.isfinite(est.kappa_hat)
        est = durrleman(parabola_surface(-0.05, 0.8), nu0_proxy=0.01)
        assert math.isnan(est.kappa_hat)

    def test_single_tenor_rejected(self):
        from fxsvol.errors import InvariantViolation
        surf = parabola_surface(-0.05, 0.8)
        single = VolSurface(date=surf.date, spot=surf.spot,
                            slices=surf.slices[:1])
        with pytest.raises(InvariantViolation):
            durrleman(single, nu0_proxy=0.01)

    def test_on_synthetic_heston(self, heston_surface, heston_median_params):
        from fxsvol.moments import surface_variance_ts
        ts = surface_variance_ts(heston_surface, -0.1, 0.1)
        est = durrleman(heston_surface, ts.v2_corrected[0])
        assert est.rho < 0.0  # sign recovered
        assert 0.0 < est.omega < 1.0


class TestGauthierRivaille:
    S, RD, RF, TAU = 1.30, 0.012, 0.006, 1.0
    NU0 = THETA = 0.0143
    KAPPA = 2.0

    def args(self):
        return (self.NU0, self.THETA, self.KAPPA, self.TAU, self.S, self.RD, self.RF)

    def test_self_inversion_exact(self):
        k1, k2 = 1.22, 1.38
        p1 = gr_forward_price(k1, *self.args(), 0.10, -0.35)
        p2 = gr_forward_price(k2, *self.args(), 0.10, -0.35)
        om, rho = gauthier_rivaille(p1, p2, k1, k2, *self.args())
        assert om == pytest.approx(0.10, abs=1e-10)
        assert rho == pytest.approx(-0.35, abs=1e-10)

    def test_coefficients_carry_positive_expansion_variance(self):
        from fxsvol.estimators import gr_coefficients
        co = gr_coefficients(1.25, *self.args())
        assert co.w_tau > 0.0
        assert len(list(co)) == 4

    def test_equal_strikes_raise(self):
        with pytest.raises(NoValidRoot):
            gauthier_rivaille(0.01, 0.01, 1.3, 1.3, *self.args())

    def test_recovery_from_model_prices(self):
        # tolerance from the expansion-error sweep at omega = 0.1
        hp = HestonParams(self.NU0, self.THETA, self.KAPPA, 0.10, -0.35)
        cf = cf_factory("heston", hp)
        k1, k2 = 1.22, 1.38
        p1 = gil_pelaez_price(cf, OptionSpec(self.S, k1, self.TAU, self.RD,
                                             self.RF, "put"))
        p2 = gil_pelaez_price(cf, OptionSpec(self.S, k2, self.TAU, self.RD,
                                             self.RF, "put"))
        om, rho = gauthier_rivaille(p1, p2, k1, k2, *self.args())
        assert om == pytest.approx(0.10, abs=0.005)
        assert rho == pytest.approx(-0.35, abs=0.005)

    def test_printed_form_agrees_only_at_the_anchor(self):
        """At nu0 = theta and tau = 1 the printed expansion variance is the
        integrated one, so every coefficient is the same float; elsewhere the
        printed one is far off the total variance."""
        assert gr_coefficients(1.25, *self.args()) == printed_gr_coefficients(
            1.25, *self.args())
        args = (0.0082, 0.0143, 2.07, 1.0 / 12.0, self.S, self.RD, self.RF)
        w = gr_coefficients(1.25, *args).w_tau
        want = 0.0143 / 12 - 0.0061 * (1 - math.exp(-2.07 / 12)) / 2.07
        assert w == pytest.approx(want, rel=1e-14)
        assert printed_gr_coefficients(1.25, *args).w_tau > 10.0 * w


@pytest.fixture(scope="module")
def gr_truth():
    """(true HestonParams, synthetic surface) for 12 seeded draw_heston sets."""
    rng = np.random.default_rng(11)
    truths = [draw_heston(rng) for _ in range(12)]
    return [(p, synth_surface("heston", p)) for p in truths]


class TestGauthierRivailleGroundTruth:
    """gr_from_surface on exact Heston surfaces, given the true (nu0, theta,
    kappa).  Over 40 draws from the same generator the integrated form
    solved all 40 with |d omega| <= 0.044 and |d rho| <= 0.023; the bounds
    below leave a little room above that."""

    def test_integrated_form_recovers_omega_and_rho(self, gr_truth):
        for p, surface in gr_truth:
            omega, rho = gr_from_surface(surface, p.nu0, p.theta, p.kappa)
            assert abs(omega - p.omega) <= 0.05
            assert abs(rho - p.rho) <= 0.025

    def test_printed_form_misses_the_truth(self, gr_truth, monkeypatch):
        """The oracle of the old expansion point: on the same surfaces each
        date either has no admissible root or an omega more than 1 off."""
        monkeypatch.setattr(estimators, "gr_coefficients", printed_gr_coefficients)
        misses = 0
        for p, surface in gr_truth:
            try:
                omega, _ = gr_from_surface(surface, p.nu0, p.theta, p.kappa)
            except NoValidRoot:
                misses += 1
                continue
            assert abs(omega - p.omega) > 1.0
        assert misses > 0


class TestGuillaumeSchoutens:
    def test_constant_series(self):
        nu0, theta = guillaume_schoutens([0.1] * 300, window_years=1.0)
        assert nu0 == pytest.approx(0.01)
        assert theta == pytest.approx(0.01)

    def test_single_point(self):
        nu0, theta = guillaume_schoutens([0.12], window_years=1.0)
        assert theta == nu0 == pytest.approx(0.0144)

    def test_sma_equals_mean_of_squares(self):
        ramp = np.linspace(0.08, 0.14, 126)
        nu0, theta = guillaume_schoutens(ramp, window_years=0.5, mode="SMA")
        assert theta == pytest.approx(float(np.mean(ramp ** 2)))

    def test_ewma_matches_recursive_oracle(self):
        v = np.linspace(0.08, 0.14, 90)
        window = 252
        lam = 1.0 - 1.0 / window
        acc = v[0] ** 2
        for x in v[1:] ** 2:
            acc = (1 - lam) * x + lam * acc
        _, theta = guillaume_schoutens(v, window_years=1.0, mode="EWMA")
        assert theta == pytest.approx(acc, rel=1e-14)
        # exactly the recursive loop, on a seeded series
        v = np.random.default_rng(7).uniform(0.05, 0.2, 300)
        window = max(1, int(round(252 * 0.5)))
        lam = 1.0 - 1.0 / window
        sq = v * v
        e = sq[0]
        for xval in sq[1:]:
            e = (1.0 - lam) * xval + lam * e
        _, theta = guillaume_schoutens(v, window_years=0.5, mode="EWMA")
        assert theta == float(e)

    def test_lvix_variant(self):
        nu0, theta = guillaume_schoutens([0.1], 1.0, latest_atm_strike=0.123)
        assert theta == pytest.approx(0.123 ** 2)

    def test_empty_raises(self):
        with pytest.raises(ShortSeries):
            guillaume_schoutens([], 1.0)


class TestHistoricalOmegaRho:
    def test_constant_vix_zero_omega_after_warmup(self):
        vix = np.full(80, 0.1)
        spot = np.linspace(1.2, 1.4, 80)
        om, rho = historical_omega_rho(vix, spot, model="heston")
        assert np.all(om[:62] == 0.1)  # warm-up fallback = index level
        assert np.all(om[62:] == 0.0)

    def test_sz_warmup_fallback_is_half(self):
        vix = np.full(80, 0.1)
        spot = np.linspace(1.2, 1.4, 80)
        om, rho = historical_omega_rho(vix, spot, model="sz")
        assert np.all(om[:62] == 0.05)
        assert np.all(rho[:62] == -0.1)

    def test_perfect_correlation(self):
        rng = np.random.default_rng(3)
        vix = 0.1 + 0.002 * np.cumsum(rng.standard_normal(200))
        vix = np.clip(vix, 0.05, 0.3)
        # build spot so that d(ln S) == d(VIX^2) exactly
        dv2 = np.diff(vix ** 2)
        spot = 1.3 * np.exp(np.concatenate([[0.0], np.cumsum(dv2)]))
        om, rho = historical_omega_rho(vix, spot, model="heston")
        assert np.max(np.abs(rho[62:] - 1.0)) < 1e-10

    def test_matches_recursive_ewma_oracle(self):
        rng = np.random.default_rng(11)
        n = 150
        vix = np.empty(n)
        vix[0] = 0.1
        for i in range(1, n):  # AR(1) in the vol index
            vix[i] = 0.1 + 0.9 * (vix[i - 1] - 0.1) + 0.004 * rng.standard_normal()
        spot = 1.3 * np.exp(0.002 * np.cumsum(rng.standard_normal(n)))
        om, rho = historical_omega_rho(vix, spot, model="heston")
        lam = 1.0 - 1.0 / 63
        dv = np.diff(vix ** 2)
        dls = np.diff(np.log(spot))
        e_dv2, e_ds2, e_cr = dv[0] ** 2, dls[0] ** 2, dls[0] * dv[0]
        for i in range(1, n - 1):
            e_dv2 = (1 - lam) * dv[i] ** 2 + lam * e_dv2
            e_ds2 = (1 - lam) * dls[i] ** 2 + lam * e_ds2
            e_cr = (1 - lam) * dls[i] * dv[i] + lam * e_cr
        assert om[-1] == pytest.approx(math.sqrt(e_dv2) / vix[-1], abs=1e-12)
        assert rho[-1] == pytest.approx(e_cr / math.sqrt(e_ds2 * e_dv2), abs=1e-12)

    def test_misaligned_series_raise(self):
        with pytest.raises(ShortSeries):
            historical_omega_rho([0.1, 0.1], [1.3], model="heston")


class TestSplits:
    def test_evp_preserves_total_variance_curve(self):
        start = evp_split(0.3, -0.4, 0.01, 0.02, 2.0)
        assert start.nu0 == (0.005, 0.005)
        assert start.theta == (0.01, 0.01)
        assert start.omega == (0.3, 0.3)
        assert start.rho == (-0.4, -0.4)
        assert not start.pin_rho

    def test_evp_symmetric_start_prices_like_one_factor(self):
        # CF equality of the split against the one-factor generator
        from fxsvol.charfn import cf_factory, model_params
        hp = HestonParams(0.0082, 0.0143, 2.07, 0.3, -0.38)
        start = evp_split(hp.omega, hp.rho, hp.nu0, hp.theta, hp.kappa)
        bp = model_params(start.kind, start.factors)
        u = np.array([0.4, 1.5, 6.0], dtype=complex)
        a = cf_factory("bates2f", bp)(u, 0.75)
        b = cf_factory("heston", hp)(u, 0.75)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_mevp_rho_zero(self):
        start = mevp_split(0.3, 0.0, 0.01, 0.02, 2.0, target="bates_feller")
        assert start.omega == (0.3, 0.3)
        assert start.rho == (0.99, -0.99)

    def test_mevp_boundary_clamp(self):
        rho = 1.0 / math.sqrt(2.0) + 1e-9
        start = mevp_split(0.3, rho, 0.01, 0.02, 2.0, target="bates_feller")
        assert start.omega[0] == pytest.approx(0.3 * math.sqrt(2.0), rel=1e-6)
        assert start.omega[1] == 0.001
        assert start.flags

    def test_mevp_arithmetic(self):
        start = mevp_split(0.3, -0.4, 0.01, 0.02, 2.0, target="bates_feller")
        s = math.sqrt(0.84)
        assert start.omega[0] == pytest.approx(0.3 * (s - 0.4))
        assert start.omega[1] == pytest.approx(0.3 * (s + 0.4))
        assert start.nu0 == (0.005, 0.005)

    def test_mevp_ouou_scaling(self):
        start = mevp_split(0.3, 0.0, 0.09, 0.11, 1.4, target="ouou")
        assert start.omega[0] == pytest.approx(0.3 / math.sqrt(2.0))
        assert start.nu0[0] == pytest.approx(0.09 / math.sqrt(2.0))
        assert start.theta[0] == pytest.approx(0.11 / math.sqrt(2.0))
        assert start.kappa == (1.4, 1.4)


class TestMixtureStats:
    def test_single_factor_collapse(self):
        om, rho, vr = two_factor_mixture_stats(0.01, 0.0, 0.3, 0.7, -0.4, 0.9)
        assert om == pytest.approx(0.3)
        assert rho == pytest.approx(-0.4)
        assert vr == 1.0

    def test_antisymmetric_rhos_cancel(self):
        om, rho, vr = two_factor_mixture_stats(0.01, 0.01, 0.3, 0.3, 0.6, -0.6)
        assert rho == pytest.approx(0.0, abs=1e-15)

    def test_zero_total_variance(self):
        with pytest.raises(ZeroTotalVariance):
            two_factor_mixture_stats(0.0, 0.0, 0.3, 0.3, 0.5, -0.5)

    def test_mevp_round_trip_exact(self):
        omega, rho = 0.3, -0.4
        start = mevp_split(omega, rho, 0.01, 0.02, 2.0, target="bates_feller",
                           rho_pin=1.0)
        om_t, rho_t, vr = two_factor_mixture_stats(
            0.5, 0.5, start.omega[0], start.omega[1], start.rho[0], start.rho[1])
        assert om_t == pytest.approx(omega, abs=1e-15)
        assert rho_t * om_t == pytest.approx(rho * omega, abs=1e-15)
        assert vr == 0.5

    def test_long_horizon_effective_quantities(self):
        # at the limiting variance ratio the effective (omega, rho omega) hit
        # the closed forms omega^2 (1 + 4 rho^2 - 4 rho^4), rho omega (3 - 2 rho^2)
        omega, rho = 0.3, -0.4
        s = math.sqrt(1.0 - rho * rho)
        om1, om2 = omega * (s + rho), omega * (s - rho)
        vr = 0.5 + rho * s
        om_t, rho_t, _ = two_factor_mixture_stats(vr, 1.0 - vr, om1, om2, 1.0, -1.0)
        assert om_t ** 2 == pytest.approx(
            omega ** 2 * (-4 * rho ** 4 + 4 * rho ** 2 + 1), abs=1e-12)
        assert rho_t * om_t == pytest.approx(
            omega * rho * (3 - 2 * rho ** 2), abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.6, -0.3, 0.0, 0.25, 0.55])
    def test_round_trip_any_rho(self, rho):
        omega = 0.27
        start = mevp_split(omega, rho, 0.01, 0.02, 2.0, target="bates_feller",
                           rho_pin=1.0)
        om_t, rho_t, _ = two_factor_mixture_stats(
            0.5, 0.5, start.omega[0], start.omega[1], start.rho[0], start.rho[1])
        assert om_t == pytest.approx(omega, abs=1e-14)
        assert rho_t == pytest.approx(rho, abs=1e-14)
