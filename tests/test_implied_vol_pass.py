"""The whole-surface implied vol's one priced pass: its bisection-tree table,
its warm start and its iteration cap, against the scalar loop.

The scalar implied_vol is the oracle for GKCells, and the plain lockstep
loop of tests/iv_reference.py for NoisyCells, whose prices are not
gk_price's.  Whatever the stored warm state, every result must be the
oracle's bit for bit, and a failing surface must raise the oracle's first
message.
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
from test_pricer import model_surface_cells, scalar_vols


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


def test_tree_is_the_loops_bracket_after_17_steps():
    tree = pricer._bisection_tree()
    assert tree.size == 2 ** 17 + 1 and not tree.flags.writeable
    assert pricer._bisection_tree() is tree
    assert np.all(np.diff(tree) > 0.0)
    rng = np.random.default_rng(30)
    lo, hi = VOL_BRACKET
    vols = np.concatenate((rng.uniform(lo, hi, 1000),
                           np.exp(rng.uniform(math.log(lo), math.log(hi), 960)),
                           tree[::3449], [lo, hi, tree[1], tree[-2]]))
    assert vols.size >= 2000
    leaf_lo, leaf_hi = pricer._tree_leaves(vols)
    for vol, t_lo, t_hi in zip(vols.tolist(), leaf_lo, leaf_hi):
        assert _loop_bracket(vol, 17) == (t_lo, t_hi), vol


@pytest.fixture(scope="module")
def fit_pairs():
    """(cells, prices) of every implied_vol call of an implied-vol-target fit."""
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
    return specs, pairs


@pytest.mark.parametrize("warm", ["none", "previous", "low", "high", "nan", "other shape"])
def test_warm_state_does_not_change_results(fit_pairs, warm):
    specs, pairs = fit_pairs
    assert len(pairs) > 60
    previous = None
    for cells, prices in pairs:
        oracle = scalar_vols(specs, prices)
        cells.last_vols = {"none": None, "previous": previous,
                           "low": np.full(prices.shape, VOL_BRACKET[0]),
                           "high": np.full(prices.shape, VOL_BRACKET[1]),
                           "nan": np.full(prices.shape, np.nan),
                           "other shape": np.full(prices.size + 1, 0.2)}[warm]
        vols = implied_vol(cells, prices)
        assert np.array_equal(vols, oracle)
        assert np.array_equal(vols, reference_implied_vols(cells, prices, 1e-12, 200))
        assert np.array_equal(cells.last_vols, vols)
        previous = vols


@pytest.mark.parametrize("max_iter", [16, 17, 18])
def test_iteration_cap_at_the_tree_depth(rng, fit_pairs, max_iter):
    specs, pairs = fit_pairs
    for cells, prices in pairs[::10]:
        assert np.array_equal(implied_vol(cells, prices, max_iter=max_iter),
                              scalar_vols(specs, prices, max_iter=max_iter))
    for _ in range(4):
        specs, calls = model_surface_cells(rng)
        assert np.array_equal(implied_vol(GKCells(specs), calls, max_iter=max_iter),
                              scalar_vols(specs, calls, max_iter=max_iter))


class SpannedCells(GKCells):
    """GKCells whose certificate intervals are scaled: outer and inner
    multiply the offsets of (a, b) and of [c, e] from the estimate."""

    def __init__(self, specs, outer, inner):
        super().__init__(specs)
        self.scale = np.array([[outer], [inner], [inner], [outer]])

    def certificate_terms(self, tol):
        margin, inner, spans = super().certificate_terms(tol)
        return margin, inner, spans * self.scale


@pytest.mark.parametrize("outer, inner", [(1.0, 100.0), (1e3, 1.0), (1e3, 1e4), (0.1, 0.0)])
def test_the_checks_not_the_intervals_decide(rng, outer, inner):
    """Where a, c, e and b lie sets only how many cells settle in the priced
    pass: an [c, e] reaching past where the loop stops fails its check."""
    for _ in range(3):
        specs, calls = model_surface_cells(rng)
        for tol in (1e-12, 1e-15):
            assert np.array_equal(implied_vol(SpannedCells(specs, outer, inner), calls, tol),
                                  scalar_vols(specs, calls, tol=tol))


@pytest.mark.parametrize("tol", [1e-12, 0.0])
def test_prices_at_the_loops_own_midpoints(tol):
    """A target priced at a tree node makes f exactly 0 at that midpoint:
    tol 0 does not stop there, the loop moves lo onto it and goes on."""
    tree = pricer._bisection_tree()
    nodes = tree[[1 << 16, 3 << 15, 12345, 98765, 2 ** 17 - 7]].tolist()
    specs = [OptionSpec(1.30, k, tau, 0.02, 0.01)
             for tau in (1 / 12, 1.0) for k in (1.20, 1.30, 1.45)]
    specs, vols = zip(*[(sp, v) for sp in specs for v in nodes])
    prices = np.array([gk_price(sp, v) for sp, v in zip(specs, vols)])
    keep = prices > np.array([pricer._no_arbitrage_bounds(sp)[0] for sp in specs])
    specs, prices = [sp for sp, k in zip(specs, keep) if k], prices[keep]
    assert len(specs) > 20
    assert np.array_equal(implied_vol(GKCells(specs), prices, tol),
                          scalar_vols(specs, prices, tol=tol))


def test_cold_solve_prices_at_most_three_times(rng):
    counts = []
    for _ in range(8):
        specs, calls = model_surface_cells(rng)
        cells = GKCells(specs)
        n, price = [0], cells.price

        def counted(sigma):
            n[0] += 1
            return price(sigma)

        cells.price = counted
        assert np.array_equal(implied_vol(cells, calls), scalar_vols(specs, calls))
        counts.append(n[0])
    assert max(counts) <= 3, counts


@st.composite
def surfaces(draw):
    """(specs, prices, tol, max_iter, warm): 1-40 call cells, 1D to 5Y at
    |log-moneyness| <= 1.5 sqrt(tau), each priced at a vol of VOL_BRACKET,
    some at a node of the loop's own midpoints, and up to two of them one
    ulp outside their no-arbitrage bounds."""
    tree = pricer._bisection_tree()
    r_d, r_f = draw(st.floats(-0.01, 0.06)), draw(st.floats(-0.01, 0.06))
    specs, prices = [], []
    for _ in range(draw(st.integers(1, 40))):
        tau = draw(st.floats(1 / 365, 5.0))
        m = draw(st.floats(-1.5, 1.5)) * math.sqrt(tau)
        specs.append(OptionSpec(1.30, 1.30 * math.exp(m), tau, r_d, r_f))
        vol = draw(st.one_of(st.floats(*VOL_BRACKET),
                             st.integers(0, 2 ** 17).map(lambda k: float(tree[k]))))
        prices.append(gk_price(specs[-1], vol))
    outside = st.tuples(st.integers(0, len(specs) - 1), st.sampled_from([0, 1]))
    for i, side in draw(st.lists(outside, max_size=2)):
        bound = pricer._no_arbitrage_bounds(specs[i])[side]
        prices[i] = float(np.nextafter(bound, math.inf if side else -math.inf))
    tol = draw(st.sampled_from([1e-12, 1e-15, 0.0, -1.0]))
    max_iter = draw(st.sampled_from([0, 1, 16, 17, 18, 200]))
    warm = draw(st.one_of(st.none(), st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                               min_size=len(specs), max_size=len(specs))))
    return specs, np.array(prices), tol, max_iter, warm


def _outcome(solve):
    try:
        return solve()
    except OutOfBounds as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(surfaces())
def test_any_surface_any_warm_state_matches_scalar(case):
    specs, prices, tol, max_iter, warm = case
    cells = GKCells(specs)
    cells.last_vols = None if warm is None else np.array(warm)
    got = _outcome(lambda: implied_vol(cells, prices, tol, max_iter))
    oracle = _outcome(lambda: scalar_vols(specs, prices, tol=tol, max_iter=max_iter))
    if isinstance(oracle, str):
        assert got == oracle
    else:
        assert np.array_equal(got, oracle)


@settings(max_examples=100, deadline=None)
@given(surfaces())
def test_any_surface_any_warm_state_matches_reference_on_noisy_cells(case):
    specs, prices, tol, max_iter, warm = case
    cells = NoisyCells(specs)
    cells.last_vols = None if warm is None else np.array(warm)
    got = _outcome(lambda: implied_vol(cells, prices, tol, max_iter))
    reference = _outcome(lambda: reference_implied_vols(cells, prices, tol, max_iter))
    if isinstance(reference, str):
        assert got == reference
    else:
        assert np.array_equal(got, reference)
