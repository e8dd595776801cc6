"""The converged whole-surface implied vol inside calibrations, and the
error bound its contract rests on.

Every (cells, prices) pair an implied-vol-target fit prices must meet the
contract of pricer._implied_vols against the scalar loop, and a whole fit
must stay within a stated tolerance of one run on the plain lockstep
bisection (tests/iv_reference.py).  The contract rests on
GKCells.price_error bounding the rounding of GKCells.price; a 50-digit
evaluation of the exact Black price checks that bound.
"""

import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from fxsvol import calibrate, pricer
from fxsvol.charfn import HestonParams
from fxsvol.pricer import VOL_BRACKET, GKCells, OptionSpec

from conftest import draw_heston
from iv_reference import reference_implied_vols
from synthutil import synth_surface
from test_pricer import assert_contract

START = HestonParams(nu0=0.011, theta=0.019, kappa=1.6, omega=0.42, rho=-0.21)


@pytest.fixture(scope="module")
def drawn_surface():
    return synth_surface("heston", draw_heston(np.random.default_rng(706)))


def _iv_fit(surface):
    return calibrate.calibrate_full("heston", surface, START,
                                    cost_spec=calibrate.CostSpec(target="implied_vol"),
                                    max_iter=60)


def _specs(surface):
    return [OptionSpec(surface.spot, k, sl.tau, sl.r_d, sl.r_f)
            for sl in surface.slices for k in sl.strikes]


@pytest.mark.parametrize("name", ["heston_surface", "drawn_surface"])
def test_calibration_pairs_match_oracle(name, request, monkeypatch):
    surface = request.getfixturevalue(name)
    pairs, plain = [], calibrate.implied_vol

    def recorded(cells, prices, *args):
        vols = plain(cells, prices, *args)
        pairs.append((cells, np.array(prices), vols))
        return vols

    monkeypatch.setattr(calibrate, "implied_vol", recorded)
    _iv_fit(surface)
    assert len(pairs) > 60
    for cells, prices, vols in pairs:
        assert_contract(_specs(surface), prices, vols, cells=cells)


# The fit on the converged vols against the fit on the bisection's: the
# cost moves in its last digits, by 3e-8 relative at most over the 40
# benchmark dates of seed 706, and the simplex takes the same path.
FIT_RTOL = 1e-6


@pytest.mark.parametrize("name", ["heston_surface", "drawn_surface"])
def test_calibration_within_tolerance_of_the_bisection(name, request, monkeypatch):
    surface = request.getfixturevalue(name)
    result = _iv_fit(surface)
    monkeypatch.setattr(pricer, "_implied_vols", reference_implied_vols)
    old = _iv_fit(surface)
    assert result.iterations == old.iterations and result.converged == old.converged
    for got, want in zip(asdict(result.params).values(), asdict(old.params).values()):
        assert got == pytest.approx(want, rel=FIT_RTOL)
    for field in ("cost_value", "rmse_vol", "rmse_vega"):
        assert getattr(result, field) == pytest.approx(getattr(old, field), rel=FIT_RTOL)
    assert np.allclose(result.residual_vols, old.residual_vols, rtol=0.0, atol=1e-10)


def test_calibrate_full_is_its_lane_in_run_lanes(drawn_surface, heston_surface):
    """The implied-vol target gives a fit the same bits alone and as one lane
    of several, whatever the other lanes' solves."""
    jobs = [calibrate.full_job("heston", s, START,
                               cost_spec=calibrate.CostSpec(target="implied_vol"), max_iter=60)
            for s in (drawn_surface, heston_surface, drawn_surface)]
    lanes = calibrate.run_lanes(jobs)
    assert lanes[0] == lanes[2] == _iv_fit(drawn_surface)
    assert lanes[1] == _iv_fit(heston_surface)


class NoisyCells(GKCells):
    """GKCells whose prices carry a made-up error of up to price_error / 2.

    The error is a hash of sigma's bits, so a vol prices the same wherever it
    sits in an array, in price() and in price_greeks(), and the prices stay
    within 1.5 price_error of the exact Black price: the premise of the
    solve's contract, on noise much larger than the rounding it stands for.
    """

    def _noise(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        shape = np.broadcast_shapes(sigma.shape, self.s_df.shape)
        bits = np.ascontiguousarray(np.broadcast_to(sigma, shape)).view(np.uint64)
        unit = ((bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)) / 2.0 ** 53
        return (unit - 0.5) * self.price_error

    def price(self, sigma):
        return super().price(sigma) + self._noise(sigma)

    def price_greeks(self, sigma):
        price, vega, curve = super().price_greeks(sigma)
        return price + self._noise(sigma), vega, curve


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-14, 1e-13, 1e-12])
def test_replay_holds_for_any_prices_within_the_bound(tol):
    rng = np.random.default_rng(11)
    taus = np.exp(rng.uniform(math.log(1 / 365), math.log(5.0), 3000))
    specs = [OptionSpec(1.30, 1.30 * math.exp(m), tau, 0.012, 0.006)
             for tau, m in zip(taus, rng.uniform(-1.2, 1.2, taus.size) * np.sqrt(taus))]
    vols = np.exp(rng.uniform(math.log(0.02), math.log(1.5), taus.size))
    cells = NoisyCells(specs)
    prices = cells.price(vols)
    lo, hi = cells.bracket_prices
    solvable = (lo <= prices) & (prices <= hi) & (cells.lo_bound <= prices)
    specs = [sp for sp, ok in zip(specs, solvable) if ok]
    prices = prices[solvable]
    assert prices.size > 2000
    # started a tenth off the vols that priced the cells
    cells = NoisyCells(specs, vols[solvable] * rng.choice([0.9, 1.1], prices.size))
    assert_contract(specs, prices, pricer.implied_vol(cells, prices, tol=tol), tol, cells,
                    1.5 * cells.price_error, reference_implied_vols(cells, prices, tol, 200))


def _exact_black(cells, i, sigma):
    """P of GKCells at sigma for cell i, in 50 digits from the cell's floats."""
    s_df, lm, sqrt_tau = (mpmath.mpf(float(v[i]))
                          for v in (cells.s_df, cells.log_moneyness, cells.sqrt_tau))
    st = mpmath.mpf(sigma) * sqrt_tau
    d1 = lm / st + st / 2
    return s_df * mpmath.ncdf(d1) - s_df * mpmath.exp(-lm) * mpmath.ncdf(d1 - st)


@mpmath.workdps(50)
def test_price_error_bounds_rounding():
    specs = [OptionSpec(1.30, 1.30 * math.exp(m), tau, 0.012, 0.006)
             for tau in (1 / 365, 7 / 365, 1 / 12, 0.5, 2.0, 5.0)
             for m in np.linspace(-1.5, 1.5, 13)]
    cells = GKCells(specs)
    sigmas = sorted(set(np.geomspace(*VOL_BRACKET, 25).tolist())
                    | {1e-4, 0.03, 0.3, 1.5, 4.9})
    for sigma in sigmas:
        prices = cells.price(sigma)
        for i in range(len(specs)):
            err = abs(mpmath.mpf(float(prices[i])) - _exact_black(cells, i, sigma))
            assert err <= cells.price_error[i], (specs[i], sigma)
