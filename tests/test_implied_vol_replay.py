"""The replayed whole-surface implied vol inside calibrations, and its error bound.

Every (cells, prices) pair an implied-vol-target fit prices must come out as
the scalar loop's vols, and the whole fit must equal one run on the plain
lockstep loop (tests/iv_reference.py).  The certificate of the replay rests
on GKCells.price_error bounding the rounding of GKCells.price; a 50-digit
evaluation of the exact Black price checks that bound.
"""

import math

import mpmath
import numpy as np
import pytest

from fxsvol import calibrate, pricer
from fxsvol.charfn import HestonParams
from fxsvol.pricer import VOL_BRACKET, GKCells, OptionSpec, implied_vol

from conftest import draw_heston
from iv_reference import reference_implied_vols
from synthutil import synth_surface

START = HestonParams(nu0=0.011, theta=0.019, kappa=1.6, omega=0.42, rho=-0.21)


@pytest.fixture(scope="module")
def drawn_surface():
    return synth_surface("heston", draw_heston(np.random.default_rng(706)))


def _iv_fit(surface):
    return calibrate.calibrate_full("heston", surface, START,
                                    cost_spec=calibrate.CostSpec(target="implied_vol"),
                                    max_iter=60)


@pytest.mark.parametrize("name", ["heston_surface", "drawn_surface"])
def test_calibration_pairs_match_oracle(name, request, monkeypatch):
    surface = request.getfixturevalue(name)
    pairs, plain = [], calibrate.implied_vol

    def recorded(cells, prices, *args):
        vols = plain(cells, prices, *args)
        pairs.append((np.array(prices), vols))
        return vols

    monkeypatch.setattr(calibrate, "implied_vol", recorded)
    result = _iv_fit(surface)
    specs = [OptionSpec(surface.spot, k, sl.tau, sl.r_d, sl.r_f)
             for sl in surface.slices for k in sl.strikes]
    assert len(pairs) > 60
    for prices, vols in pairs:
        oracle = [implied_vol(sp, p) for sp, p in zip(specs, prices.tolist())]
        assert np.array_equal(vols, oracle)
    monkeypatch.setattr(calibrate, "implied_vol", plain)
    monkeypatch.setattr(pricer, "_implied_vols", reference_implied_vols)
    assert _iv_fit(surface) == result


class NoisyCells(GKCells):
    """GKCells whose prices carry a made-up error of up to price_error / 2.

    The error is a hash of sigma's bits, so a vol prices the same wherever it
    sits in an array, and the prices stay within price_error of the exact
    Black price: the premise of the replay's certificate, on noise much
    larger than the rounding it stands for.
    """

    def price(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        shape = np.broadcast_shapes(sigma.shape, self.s_df.shape)
        bits = np.ascontiguousarray(np.broadcast_to(sigma, shape)).view(np.uint64)
        unit = ((bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)) / 2.0 ** 53
        return super().price(sigma) + (unit - 0.5) * self.price_error


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-14, 1e-13, 1e-12])
def test_replay_holds_for_any_prices_within_the_bound(tol):
    rng = np.random.default_rng(11)
    taus = np.exp(rng.uniform(math.log(1 / 365), math.log(5.0), 3000))
    specs = [OptionSpec(1.30, 1.30 * math.exp(m), tau, 0.012, 0.006)
             for tau, m in zip(taus, rng.uniform(-1.2, 1.2, taus.size) * np.sqrt(taus))]
    cells = NoisyCells(specs)
    prices = cells.price(np.exp(rng.uniform(math.log(0.02), math.log(1.5), taus.size)))
    lo, hi = cells.bracket_prices
    solvable = (lo <= prices) & (prices <= hi) & (cells.lo_bound <= prices)
    cells = NoisyCells([sp for sp, ok in zip(specs, solvable) if ok])
    prices = prices[solvable]
    assert prices.size > 2000
    assert np.array_equal(implied_vol(cells, prices, tol=tol),
                          reference_implied_vols(cells, prices, tol, 200))


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
