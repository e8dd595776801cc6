"""The whole-surface implied vol's converged solve: its start, its iteration
cap and its safeguards, against the scalar loop.

The scalar implied_vol is the oracle for GKCells, and the plain lockstep
loop of tests/iv_reference.py for NoisyCells, whose prices are not
gk_price's.  Whatever the start and whatever was solved before, every
result must meet the contract of pricer._implied_vols (assert_contract),
and a failing surface must raise the oracle's first message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxsvol import calibrate, pricer
from fxsvol.errors import OutOfBounds
from fxsvol.pricer import VOL_BRACKET, GKCells, OptionSpec, gk_price, implied_vol

from conftest import draw_heston
from iv_reference import reference_implied_vols
from synthutil import synth_surface
from test_implied_vol_replay import NoisyCells, _iv_fit
from test_pricer import assert_contract, count_evaluations, model_surface_cells, scalar_vols


def _loop_bracket(vol, steps):
    """The scalar loop's (lo, hi) after steps iterations on a cell whose
    price minus target has the sign of sigma - vol."""
    lo, hi = VOL_BRACKET
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid <= vol:  # f_mid <= 0
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.fixture(scope="module")
def fit_pairs():
    """(specs, quotes, pairs): the cells of an implied-vol-target fit's
    surface, its quoted vols, and (cells, prices) of every implied_vol call
    the fit makes."""
    surface = synth_surface("heston", draw_heston(np.random.default_rng(706)))
    pairs, plain = [], calibrate.implied_vol

    def recorded(cells, prices, *args):
        pairs.append((cells, np.array(prices)))
        return plain(cells, prices, *args)

    calibrate.implied_vol = recorded
    try:
        _iv_fit(surface)
    finally:
        calibrate.implied_vol = plain
    specs = [OptionSpec(surface.spot, k, sl.tau, sl.r_d, sl.r_f)
             for sl in surface.slices for k in sl.strikes]
    quotes = np.array([v for sl in surface.slices for v in sl.vols.vols])
    return specs, quotes, pairs


@pytest.mark.parametrize("warm", ["none", "previous", "low", "high", "nan", "other shape"])
def test_warm_state_does_not_change_results(fit_pairs, warm):
    """No solve leaves anything behind: after an earlier solve of any kind
    on the same cells, or on other cells, a solve gives a fresh solve's bits."""
    specs, quotes, pairs = fit_pairs
    assert len(pairs) > 60
    previous = pairs[-1][1]
    for cells, prices in pairs[::4]:
        fresh = implied_vol(GKCells(specs, quotes), prices)
        earlier = {"none": lambda: None,
                   "previous": lambda: implied_vol(cells, previous),
                   "low": lambda: implied_vol(cells, cells.price(1e-3)),
                   "high": lambda: implied_vol(cells, cells.price(VOL_BRACKET[1])),
                   "nan": lambda: implied_vol(cells, np.full(prices.shape, np.nan)),
                   "other shape": lambda: implied_vol(GKCells(specs[1:], quotes[1:]),
                                                      prices[1:])}[warm]
        _outcome(earlier)
        vols = implied_vol(cells, prices)
        assert np.array_equal(vols, fresh)
        assert_contract(specs, prices, vols, cells=cells)
        previous = prices


@pytest.mark.parametrize("max_iter", [16, 17, 18])
def test_iteration_cap_at_the_tree_depth(rng, fit_pairs, max_iter):
    """Caps around the 16 steps after which every other step bisects: no
    solve of a fit comes near them, and a cell they cut is unfinished."""
    specs, quotes, pairs = fit_pairs
    for cells, prices in pairs[::10]:
        assert np.array_equal(implied_vol(cells, prices, max_iter=max_iter),
                              implied_vol(cells, prices))
    for _ in range(4):
        specs, calls, _ = model_surface_cells(rng)
        cells = GKCells(specs, VOL_BRACKET[1])
        full, got = implied_vol(cells, calls), implied_vol(cells, calls, max_iter=max_iter)
        assert not np.any((got != full) & (np.abs(cells.price(got) - calls) < 1e-12))


class StretchedCells(GKCells):
    """GKCells whose price_greeks misreport the step's terms: vega divided
    by outer and volga / vega times inner, so every Halley step comes out
    about outer times its length, its curvature term inner times."""

    def __init__(self, specs, outer, inner):
        self.outer, self.inner = outer, inner
        super().__init__(specs)

    def price_greeks(self, sigma):
        price, vega, curve = super().price_greeks(sigma)
        return price, vega / self.outer, curve * self.inner


@pytest.mark.parametrize("outer, inner", [(1.0, 100.0), (1e3, 1.0), (1e3, 1e4), (0.1, 0.0)])
def test_the_checks_not_the_intervals_decide(rng, outer, inner):
    """Where the steps land sets only how many rounds a solve takes: a step
    that leaves the bracket bisects, from the 17th step on every other step
    bisects, and the stop rule decides the result."""
    for _ in range(3):
        specs, calls, _ = model_surface_cells(rng)
        for tol in (1e-12, 1e-15):
            vols = implied_vol(StretchedCells(specs, outer, inner), calls, tol)
            assert_contract(specs, calls, vols, tol)


@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_prices_at_the_loops_own_midpoints(tol):
    """A target priced at one of the scalar loop's midpoints, or at the
    solve's start, makes f exactly 0 there: tol 1e-12 stops at the start
    with no step, tol 0 does not stop there and goes on."""
    nodes = sorted({end for v in (0.03, 0.1234, 0.7, 2.2) for end in _loop_bracket(v, 17)})
    specs = [OptionSpec(1.30, k, tau, 0.02, 0.01)
             for tau in (1 / 12, 1.0) for k in (1.20, 1.30, 1.45)]
    specs, vols = zip(*[(sp, v) for sp in specs for v in nodes])
    prices = np.array([gk_price(sp, v) for sp, v in zip(specs, vols)])
    keep = prices > np.array([pricer._no_arbitrage_bounds(sp)[0] for sp in specs])
    specs, vols, prices = ([sp for sp, k in zip(specs, keep) if k], np.array(vols)[keep],
                           prices[keep])
    assert len(specs) > 20
    assert_contract(specs, prices, implied_vol(GKCells(specs), prices, tol), tol)
    at_start = implied_vol(GKCells(specs, vols), prices, tol)
    assert_contract(specs, prices, at_start, tol)
    if tol > 0.0:
        assert np.array_equal(at_start, vols)


def test_cold_solve_prices_at_most_three_times(fit_pairs, monkeypatch):
    """Every solve of a fit, each on cells just built from the surface's
    quotes, evaluates them at most three times."""
    specs, quotes, pairs = fit_pairs
    cells = [GKCells(specs, quotes) for _ in pairs]
    counts, solves = count_evaluations(monkeypatch), []
    for c, (_, prices) in zip(cells, pairs):
        counts.append(0)
        implied_vol(c, prices)
        solves.append(counts[-1])
    assert max(solves) <= 3, solves


@st.composite
def surfaces(draw):
    """(specs, prices, tol, max_iter, start): 1-40 call cells, 1D to 5Y at
    |log-moneyness| <= 1.5 sqrt(tau), each priced at a vol of VOL_BRACKET,
    some at a midpoint of the scalar loop, up to two of them one ulp outside
    their no-arbitrage bounds, and a start per cell anywhere in the bracket."""
    r_d, r_f = draw(st.floats(-0.01, 0.06)), draw(st.floats(-0.01, 0.06))
    specs, prices = [], []
    for _ in range(draw(st.integers(1, 40))):
        tau = draw(st.floats(1 / 365, 5.0))
        m = draw(st.floats(-1.5, 1.5)) * math.sqrt(tau)
        specs.append(OptionSpec(1.30, 1.30 * math.exp(m), tau, r_d, r_f))
        vol = draw(st.one_of(st.floats(*VOL_BRACKET),
                             st.tuples(st.floats(*VOL_BRACKET), st.integers(1, 40)).map(
                                 lambda v: _loop_bracket(*v)[0])))
        prices.append(gk_price(specs[-1], vol))
    outside = st.tuples(st.integers(0, len(specs) - 1), st.sampled_from([0, 1]))
    for i, side in draw(st.lists(outside, max_size=2)):
        bound = pricer._no_arbitrage_bounds(specs[i])[side]
        prices[i] = float(np.nextafter(bound, math.inf if side else -math.inf))
    tol = draw(st.sampled_from([1e-12, 1e-15, 0.0, -1.0]))
    max_iter = draw(st.sampled_from([0, 1, 16, 17, 18, 200]))
    start = draw(st.lists(st.floats(*VOL_BRACKET), min_size=len(specs), max_size=len(specs)))
    return specs, np.array(prices), tol, max_iter, start


def _outcome(solve):
    try:
        return solve()
    except OutOfBounds as exc:
        return str(exc)


def _assert_capped(cells, prices, tol, max_iter, got, full):
    """A solve capped at max_iter: a cell without the uncapped bits is
    unfinished, so |f| >= tol, and a cap of 0 returns the start."""
    assert not np.any((got != full) & (np.abs(cells.price(got) - prices) < tol))
    if max_iter == 0:
        assert np.array_equal(got, cells.start[0])


@settings(max_examples=100, deadline=None)
@given(surfaces())
def test_any_surface_any_warm_state_matches_scalar(case):
    specs, prices, tol, max_iter, start = case
    cells = GKCells(specs, start)
    got = _outcome(lambda: implied_vol(cells, prices, tol, max_iter))
    oracle = _outcome(lambda: scalar_vols(specs, prices, tol=tol))
    if isinstance(oracle, str):
        assert got == oracle
        return
    full = implied_vol(cells, prices, tol)
    assert_contract(specs, prices, full, tol, cells)
    _assert_capped(cells, prices, tol, max_iter, got, full)


@settings(max_examples=100, deadline=None)
@given(surfaces())
def test_any_surface_any_warm_state_matches_reference_on_noisy_cells(case):
    specs, prices, tol, max_iter, start = case
    cells = NoisyCells(specs, start)
    got = _outcome(lambda: implied_vol(cells, prices, tol, max_iter))
    reference = _outcome(lambda: reference_implied_vols(cells, prices, tol, 200))
    if isinstance(reference, str):
        assert got == reference
        return
    full = implied_vol(cells, prices, tol)
    assert_contract(specs, prices, full, tol, cells, 1.5 * cells.price_error, reference)
    _assert_capped(cells, prices, tol, max_iter, got, full)
