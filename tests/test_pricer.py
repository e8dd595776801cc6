import math

import numpy as np
import pytest

from fxsvol.charfn import (
    Factor,
    HestonParams,
    JumpParams,
    ParamLanes,
    SchobelZhuParams,
    TwoFactorParams,
    cf_factory,
)
from fxsvol.errors import AlphaInvalid, InvariantViolation, OutOfBounds
from fxsvol.market_data import PILLAR_DELTAS, strike_from_delta
from fxsvol.pricer import (
    CROSSCHECK_GRID,
    AttariLanes,
    DEFAULT_GRID,
    GKCells,
    IntegrationGrid,
    OptionSpec,
    VOL_BRACKET,
    attari_price,
    attari_strip,
    bs_vega,
    carr_madan_price,
    gil_pelaez_price,
    gil_pelaez_probabilities,
    gk_price,
    implied_vol,
    surface_prices,
)

from conftest import draw_heston, term_vol

S, RD, RF = 1.30, 0.012, 0.006
HP = HestonParams(nu0=0.0082, theta=0.0143, kappa=2.07, omega=0.30, rho=-0.38)
CF = cf_factory("heston", HP)


def spec(K, tau=0.5, side="call"):
    return OptionSpec(S, K, tau, RD, RF, side)


def one_tenor_strip(cf, S, strikes, tau, r_d, r_f, grid=DEFAULT_GRID):
    """The one-maturity kernel, operation for operation, as a bit-level
    oracle: each cell's weight on each folded probe summed alone."""
    _, u, _ = grid.nodes()
    u_eval, g, fold = grid.attari_factors
    k = fold.shape[0]
    ell = np.log(np.asarray(strikes) / S) - (r_d - r_f) * tau
    osc_g = np.exp(-1j * np.outer(ell, u)) * g
    folded = [[(row[:k] * fold[:, j]).sum() for j in range(fold.shape[1])]
              for row in osc_g]
    cell_weights = np.hstack((np.array(folded).reshape(len(osc_g), -1), osc_g[:, k:]))
    integrals = (cell_weights * cf(u_eval, tau)).real.sum(axis=1)
    return (S * math.exp(-r_f * tau)
            - strikes * math.exp(-r_d * tau) * (0.5 + integrals / math.pi))


class TestGrid:
    def test_default_grid_node_count(self):
        assert DEFAULT_GRID.n_nodes == 56
        w, u, weights = DEFAULT_GRID.nodes()
        assert w[0] == -17.0 and w[-1] == pytest.approx(5.0)
        assert weights[0] == weights[-1] == 0.2
        assert weights[1] == pytest.approx(0.4)

    def test_invalid_grid(self):
        with pytest.raises(InvariantViolation):
            IntegrationGrid(5.0, -17.0, 0.4)
        for bad in [(-17.0, math.inf, 0.4), (-17.0, 5.0, math.nan), (-17.0, 5.0, 0.0)]:
            with pytest.raises(InvariantViolation):
                IntegrationGrid(*bad)

    def test_nodes_built_once_read_only(self):
        grid = IntegrationGrid(-10.0, 3.0, 0.25)
        nodes = grid.nodes()
        assert all(a is b for a, b in zip(nodes, grid.nodes()))
        assert not any(a.flags.writeable for a in nodes)
        factors = grid.attari_factors
        assert factors is grid.attari_factors
        assert not any(a.flags.writeable for a in factors)
        w = -10.0 + 0.25 * np.arange(grid.n_nodes)
        weights = np.full(grid.n_nodes, 0.25)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        for got, want in zip(nodes, (w, np.exp(w), weights)):
            assert np.array_equal(got, want)
        u = np.exp(w)
        u_eval, g, fold = factors
        k = np.count_nonzero(w <= -4.6)  # 22 folded nodes into 8 probes
        assert fold.shape == (k, 8) and u_eval.dtype == complex
        assert np.array_equal(u_eval[8:], u[k:])
        assert 0.0 < u_eval.real.min() and u_eval[:8].real.max() < u[k - 1]
        assert np.array_equal(g, (1.0 - 1j / u) / (1.0 + u * u) * u * weights)
        assert grid == IntegrationGrid(-10.0, 3.0, 0.25)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, IntegrationGrid(-10.0, 3.0, 0.25),
                                      IntegrationGrid(-17.0, 9.0, 0.05)],
                             ids=["default", "coarse", "wide"])
    def test_fold_interpolates_degree_7(self, grid):
        """The fold's rows sum to 1 and reproduce every polynomial of degree
        at most 7 through the 8 probes, to rounding (u scaled by u_f)."""
        w, u, _ = grid.nodes()
        u_eval, _, fold = grid.attari_factors
        k = np.count_nonzero(w <= -4.6)
        assert fold.shape == (k, 8) and u_eval.size == grid.n_nodes - k + 8
        assert np.max(np.abs(fold.sum(axis=1) - 1.0)) <= 4 * 2.0 ** -52
        x, y = u_eval[:8].real / u[k - 1], u[:k] / u[k - 1]
        for degree in range(8):
            assert np.max(np.abs((fold * x ** degree).sum(axis=1) - y ** degree)) <= 1e-15
        # degree 8 is not: its error reaches 2^-15 on [0, 1]
        assert np.max(np.abs((fold * x ** 8).sum(axis=1) - y ** 8)) > 1e-5

    def test_few_low_nodes_fold_nothing(self):
        """A grid with 8 or fewer nodes at w <= -4.6 calls the CF on its own
        nodes through an identity fold."""
        for grid, k in ((IntegrationGrid(-4.0, 5.0, 0.4), 0),
                        (IntegrationGrid(-5.4, 5.0, 0.4), 3),
                        (IntegrationGrid(-7.4, 5.0, 0.4), 8)):
            _, u, _ = grid.nodes()
            u_eval, _, fold = grid.attari_factors
            assert np.array_equal(u_eval, u.astype(complex))
            assert np.array_equal(fold, np.eye(k))


class TestGarmanKohlhagen:
    def test_discounted_intrinsic_at_zero_vol(self):
        sp = OptionSpec(1.30, 1.20, 0.5, RD, RF, "call")
        intrinsic = math.exp(-RD * 0.5) * (sp.forward - 1.20)
        assert gk_price(sp, 1e-8) == pytest.approx(intrinsic, abs=1e-12)

    def test_tiny_strike_is_forward_claim(self):
        sp = OptionSpec(1.30, 1e-10, 1.0, RD, RF, "call")
        assert gk_price(sp, 0.1) == pytest.approx(1.30 * math.exp(-RF), abs=1e-9)

    def test_atm_value_against_erf_oracle(self):
        sp = OptionSpec(100.0, 100.0, 1.0, 0.0, 0.0, "call")
        phi = 0.5 * (1.0 + math.erf(0.1 / math.sqrt(2.0)))
        assert gk_price(sp, 0.2) == pytest.approx(100.0 * (2.0 * phi - 1.0),
                                                  abs=1e-12)

    def test_put_call_parity(self):
        sp_c, sp_p = spec(1.25, side="call"), spec(1.25, side="put")
        parity = math.exp(-RD * 0.5) * (sp_c.forward - 1.25)
        assert gk_price(sp_c, 0.1) - gk_price(sp_p, 0.1) == pytest.approx(
            parity, abs=1e-15)


class TestImpliedVol:
    def test_round_trip(self):
        sp = spec(1.28)
        price = gk_price(sp, 0.1234)
        assert implied_vol(sp, price) == pytest.approx(0.1234, abs=1e-8)

    def test_below_intrinsic_raises(self):
        sp = OptionSpec(1.30, 1.10, 0.5, RD, RF, "call")
        intrinsic = math.exp(-RD * 0.5) * (sp.forward - 1.10)
        with pytest.raises(OutOfBounds):
            implied_vol(sp, 0.9 * intrinsic)

    def test_above_spot_bound_raises(self):
        with pytest.raises(OutOfBounds):
            implied_vol(spec(1.30), 1.31)

    def test_atm_approximation_sanity(self):
        # C ~ 0.4 S sigma sqrt(tau) at r = q = 0
        sp = OptionSpec(1.0, 1.0, 1.0, 0.0, 0.0, "call")
        sigma = 0.1
        vol = implied_vol(sp, 0.4 * sigma)
        assert vol == pytest.approx(sigma, rel=0.01)


def scalar_vols(specs, prices, **kw):
    """The scalar oracle, cell by cell in order."""
    return np.array([implied_vol(sp, float(p), **kw) for sp, p in zip(specs, prices)])


def scalar_error(specs, prices):
    with pytest.raises(OutOfBounds) as err:
        scalar_vols(specs, prices)
    return str(err.value)


def assert_contract(specs, prices, vols, tol=1e-12, cells=None, eps=None, oracle=None):
    """vols, a whole-surface solve of (specs, prices) at tol, against the
    contract of pricer._implied_vols.

    With eps the bound on the error of cells.price (price_error unless
    given): every cell meets the stop rule, |f| < tol or, stopped by its
    bracket's width, |f| <= 3 eps; and against the oracle's vol v (the
    scalar loop's at the same tol unless given), |vols - v| min(vega(vols),
    vega(v)) <= 2 tol + 4 eps.
    """
    cells = GKCells(specs) if cells is None else cells
    eps = cells.price_error if eps is None else eps
    prices = np.asarray(prices, dtype=float)
    f = np.abs(cells.price(vols) - prices)
    assert np.all((f < tol) | (f <= 3.0 * eps)), np.flatnonzero(~((f < tol) | (f <= 3.0 * eps)))
    oracle = scalar_vols(specs, prices, tol=tol) if oracle is None else oracle
    vega = np.minimum(cells.price_greeks(vols)[1], cells.price_greeks(oracle)[1])
    assert np.all(np.abs(vols - oracle) * vega <= 2.0 * max(tol, 0.0) + 4.0 * eps)


def assert_matches_oracle(specs, prices, start=0.2, **kw):
    """The whole-surface path against the scalar loop on (specs, prices),
    each solve started at start.

    Cells the scalar loop rejects must make the whole surface raise its first
    message; the cells it solves must meet the contract (assert_contract).
    Returns how many it solved.
    """
    good = []
    for sp, p in zip(specs, prices):
        try:
            implied_vol(sp, float(p), tol=kw.get("tol", 1e-12))
            good.append((sp, float(p)))
        except OutOfBounds:
            pass
    if len(good) < len(specs):
        with pytest.raises(OutOfBounds) as err:
            implied_vol(GKCells(specs, start), prices, **kw)
        assert str(err.value) == scalar_error(specs, prices)
    if good:
        good_specs, good_prices = zip(*good)
        vols = implied_vol(GKCells(good_specs, start), good_prices, **kw)
        assert_contract(good_specs, good_prices, vols, kw.get("tol", 1e-12))
    return len(good)


STRESS_TAUS = (1 / 365, 7 / 365, 1 / 12, 0.5, 2.0, 5.0)
STRESS_VOLS = (1e-4, 0.03, 0.3, 1.5, 4.9)


def stress_specs():
    """1D to 5Y cells at log-moneyness -1.5 to 1.5."""
    return [OptionSpec(S, S * math.exp(m), tau, RD, RF)
            for tau in STRESS_TAUS for m in np.linspace(-1.5, 1.5, 13)]


def model_surface_cells(rng):
    """Pillar cells of a draw_heston surface, 1M to 2Y, priced by another draw.

    Returns (specs, calls, quotes): quotes are the first draw's vols, the
    surface's quoted vol for every cell.  (1W wings can price below zero on
    the production grid; see criterion 3.)
    """
    gen, model = draw_heston(rng), draw_heston(rng)
    specs, quotes, taus = [], [], (1 / 12, 2 / 12, 0.25, 0.5, 1.0, 2.0)
    for tau in taus:
        vol = term_vol(gen, tau)
        specs += [OptionSpec(S, strike_from_delta(S, RD, RF, tau, vol, d), tau, RD, RF)
                  for d in PILLAR_DELTAS.values()]
        quotes += [vol] * len(PILLAR_DELTAS)
    strikes = np.array([sp.K for sp in specs]).reshape(len(taus), -1)
    calls = attari_strip(cf_factory("heston", model), S, strikes, list(taus),
                         [RD] * len(taus), [RF] * len(taus))
    return specs, calls.ravel(), np.array(quotes)


def count_evaluations(monkeypatch):
    """A list whose last entry counts the GKCells.price and price_greeks
    calls from here on; append 0 to start a new count."""
    counts = [0]
    for name in ("price", "price_greeks"):
        plain = getattr(GKCells, name)

        def counted(cells, sigma, plain=plain):
            counts[-1] += 1
            return plain(cells, sigma)

        monkeypatch.setattr(GKCells, name, counted)
    return counts


class TestWholeSurfaceImpliedVol:
    """GKCells lanes against the scalar gk_price and implied_vol: price()
    bit for bit, the solve within its contract (assert_contract)."""

    def test_model_surfaces(self, rng):
        for _ in range(8):
            specs, calls, quotes = model_surface_cells(rng)
            cells = GKCells(specs, quotes)
            vols = implied_vol(cells, calls)
            assert_contract(specs, calls, vols)
            assert np.array_equal(cells.price(vols),
                                  [gk_price(sp, v) for sp, v in zip(specs, vols)])

    def test_edge_cells(self):
        # deep ITM/OTM strikes, 1D to 5Y; a deep ITM price at a tiny vol can
        # round below intrinsic, and then both paths must fail the same way
        specs = [OptionSpec(S, S * math.exp(m), tau, RD, RF)
                 for tau in (1 / 365, 7 / 365, 0.5, 5.0)
                 for m in (-1.5, -0.4, -0.05, 0.0, 0.05, 0.4, 1.5)]
        solved = 0
        for vol in (1e-4, 0.03, 0.3, 1.5, 4.9):
            prices = [gk_price(sp, vol) for sp in specs]
            solved += assert_matches_oracle(specs, prices)
        assert solved > 0.9 * 5 * len(specs)

    @pytest.mark.parametrize("max_iter", [0, 1, 5, 30, 33, 36, 40, 45, 60])
    def test_iteration_cutoff(self, rng, max_iter):
        # a cap ends only the cells still open: a cell of a capped solve
        # without the uncapped solve's bits is unfinished, |f| >= tol, and a
        # cap of 0 returns the start
        specs, calls, quotes = model_surface_cells(rng)
        for start in (quotes, 0.2, VOL_BRACKET[1]):
            cells = GKCells(specs, start)
            full = implied_vol(cells, calls)
            got = implied_vol(cells, calls, max_iter=max_iter)
            assert not np.any((got != full) & (np.abs(cells.price(got) - calls) < 1e-12))
            if max_iter == 0:
                assert np.array_equal(got, cells.start[0])
            if max_iter >= 30:
                assert np.array_equal(got, full)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-15, 0.0])  # 0: only the width stops
    def test_tolerance(self, rng, tol):
        specs, calls, quotes = model_surface_cells(rng)
        for start in (quotes, 0.2):
            assert_contract(specs, calls, implied_vol(GKCells(specs, start), calls, tol=tol), tol)

    @pytest.mark.parametrize("bad", ["below_intrinsic", "above_bracket", "nan"])
    def test_first_failing_cell_raises_scalar_message(self, rng, bad):
        specs, calls, _ = model_surface_cells(rng)
        itm = specs[5]  # 2M 10P strike: an in-the-money call
        intrinsic = math.exp(-RD * itm.tau) * (itm.forward - itm.K)
        prices = calls.copy()
        prices[5] = {"below_intrinsic": 0.5 * intrinsic,
                     "above_bracket": 0.5 * (gk_price(itm, 5.0) + S * math.exp(-RF * itm.tau)),
                     "nan": float("nan")}[bad]
        prices[20] = -1.0  # a later no-arbitrage miss
        message = scalar_error(specs, prices)
        with pytest.raises(OutOfBounds) as err:
            implied_vol(GKCells(specs), prices)
        assert str(err.value) == message
        assert f"price {float(prices[5])}" in message  # cell 5, not cell 20
        assert ("no vol in" in message) == (bad == "above_bracket")

    @pytest.mark.parametrize("vol", STRESS_VOLS)
    def test_stress_cells(self, vol):
        specs = stress_specs()
        prices = [gk_price(sp, vol) for sp in specs]
        assert assert_matches_oracle(specs, prices) > 0.6 * len(specs)
        for kw in ({"tol": 0.0}, {"tol": 1e-15}, {"max_iter": 36}):
            assert_matches_oracle(specs, prices, **kw)
        for start in VOL_BRACKET:
            assert_matches_oracle(specs, prices, start)

    def test_vega_near_floor(self):
        # vols that put d2 five to six standard deviations out: vega 1e-9..1e-7
        specs, prices = [], []
        for sp in stress_specs():
            for z in (5.0, 5.5, 6.0):
                lm = abs(math.log(sp.S / sp.K) + (RD - RF) * sp.tau)
                vol = lm / (z * math.sqrt(sp.tau))
                if 1e-6 < vol < 5.0 and 1e-9 < bs_vega(sp, vol) < 1e-7:
                    specs.append(sp)
                    prices.append(gk_price(sp, vol))
        assert len(specs) > 40
        assert assert_matches_oracle(specs, prices) > 0.5 * len(specs)
        assert_matches_oracle(specs, prices, tol=0.0)

    def test_prices_one_ulp_inside_the_bounds(self):
        specs = stress_specs()
        cells = GKCells(specs)
        low = [math.nextafter(b, math.inf) for b in cells.lo_bound.tolist()]
        high = [math.nextafter(b, -math.inf) for b in cells.hi_bound.tolist()]
        # out-of-the-money cells solve just above zero; in-the-money ones, and
        # every cell just below the upper bound, miss the bracket
        assert 0 < assert_matches_oracle(specs, low) < len(specs)
        assert assert_matches_oracle(specs, high) == 0

    def test_replay_prices_few_times(self, rng, monkeypatch):
        # started at the surface's quoted vols, a solve evaluates the cells
        # three or four times: the bisection loop made about 44 price calls
        counts, solves = count_evaluations(monkeypatch), []
        for _ in range(8):
            specs, calls, quotes = model_surface_cells(rng)
            cells = GKCells(specs, quotes)
            counts.append(0)
            vols = implied_vol(cells, calls)
            solves.append(counts[-1])
            assert_contract(specs, calls, vols)
        assert max(solves) <= 4, solves

    def test_any_start_inside_the_bracket(self, rng):
        specs, calls, _ = model_surface_cells(rng)
        lo, hi = VOL_BRACKET
        for start in (lo, hi, math.nextafter(lo, hi), rng.uniform(lo, hi, len(specs)),
                      np.exp(rng.uniform(math.log(lo), math.log(hi), len(specs)))):
            assert_contract(specs, calls, implied_vol(GKCells(specs, start), calls))

    def test_start_is_kept_inside_the_bracket(self):
        specs = stress_specs()[:4]
        cells = GKCells(specs, [0.0, -1.0, 7.0, math.inf])
        assert cells.start[0].tolist() == [*VOL_BRACKET[:1] * 2, *VOL_BRACKET[1:] * 2]
        assert np.array_equal(cells.start[1], cells.price(cells.start[0]))
        with pytest.raises(InvariantViolation):
            GKCells(specs, math.nan)

    def test_no_hidden_state(self, rng):
        # the same bits after any earlier solves, and a cell solved alone
        # equals that cell in the whole surface
        specs, calls, quotes = model_surface_cells(rng)
        cells = GKCells(specs, quotes)
        first = implied_vol(cells, calls)
        for prices in (cells.price(1.5 * quotes), cells.price(0.05), calls):
            implied_vol(cells, prices)
        with pytest.raises(OutOfBounds):
            implied_vol(cells, np.full(len(specs), np.nan))
        assert np.array_equal(implied_vol(cells, calls), first)
        assert not any(a.flags.writeable for a in (*cells.start, cells.price_error))
        for i in range(len(specs)):
            alone = implied_vol(GKCells(specs[i:i + 1], quotes[i:i + 1]), calls[i:i + 1])
            assert alone.tolist() == [first[i]]

    def test_bracket_prices(self):
        specs = stress_specs()
        cells = GKCells(specs)
        for got, vol in zip(cells.bracket_prices, VOL_BRACKET):
            assert np.array_equal(got, cells.price(vol))
            assert np.array_equal(got, [gk_price(sp, vol) for sp in specs])

    def test_calls_only(self):
        with pytest.raises(InvariantViolation):
            GKCells([spec(1.3), spec(1.3, side="put")])

    def test_empty(self):
        assert implied_vol(GKCells([]), []).shape == (0,)


class TestVega:
    def test_matches_central_difference(self):
        sp = spec(1.27, tau=0.8)
        h = 1e-5
        fd = (gk_price(sp, 0.11 + h) - gk_price(sp, 0.11 - h)) / (2.0 * h)
        assert bs_vega(sp, 0.11) == pytest.approx(fd, rel=1e-7)

    def test_same_for_call_and_put(self):
        assert bs_vega(spec(1.27, side="call"), 0.1) == bs_vega(
            spec(1.27, side="put"), 0.1)

    def test_peaks_near_forward(self):
        strikes = np.linspace(0.9, 1.8, 91)
        vegas = [bs_vega(spec(k, tau=1.0), 0.1) for k in strikes]
        peak = strikes[int(np.argmax(vegas))]
        fwd = spec(1.0, tau=1.0).forward
        assert abs(peak - fwd) < 0.05

    def test_vanishes_at_short_maturity(self):
        assert bs_vega(spec(1.3, tau=1e-10), 0.1) < 1e-4


class TestCfPricers:
    def test_degenerate_heston_matches_gk(self):
        p = HestonParams(nu0=0.01, theta=0.01, kappa=2.0, omega=1e-6, rho=0.0)
        cf = cf_factory("heston", p)
        for tau in (1 / 12, 0.5, 2.0):
            vol = 0.1
            for pillar, delta in PILLAR_DELTAS.items():
                k = strike_from_delta(S, RD, RF, tau, vol, delta)
                sp = OptionSpec(S, k, tau, RD, RF, "call")
                assert attari_price(cf, sp) == pytest.approx(
                    gk_price(sp, vol), abs=1e-5)

    def test_attari_put_call_parity(self):
        sp_c, sp_p = spec(1.25, side="call"), spec(1.25, side="put")
        parity = math.exp(-RD * 0.5) * (sp_c.forward - 1.25)
        diff = attari_price(CF, sp_c) - attari_price(CF, sp_p)
        assert diff == pytest.approx(parity, abs=1e-9 * S)

    def test_attari_deep_itm_near_intrinsic(self):
        sp = spec(0.9 * S, tau=0.25)
        intrinsic = math.exp(-RD * 0.25) * (sp.forward - sp.K)
        price = attari_price(CF, sp)
        assert price > intrinsic - 1e-9
        assert price == pytest.approx(intrinsic, abs=2e-3)

    def test_attari_strip_matches_scalar(self):
        strikes = [1.20, 1.30, 1.40]
        calls = attari_strip(CF, S, strikes, 0.5, RD, RF)
        for k, c in zip(strikes, calls):
            assert c == pytest.approx(attari_price(CF, spec(k)), abs=1e-14)

    @pytest.mark.parametrize("cf", [
        CF,
        cf_factory("bates2f", TwoFactorParams("bates2f",
                                              Factor(0.0041, 0.00715, 2.07, 0.30, -0.38),
                                              Factor(0.0050, 0.00600, 1.10, 0.22, 0.10)),
                   jump=JumpParams(lam=0.8, khat=-0.05, delta=0.15)),
    ], ids=["heston", "bates2f-jumps"])
    def test_attari_strip_tenor_axis_equals_per_tenor_calls(self, cf):
        taus = [1 / 12, 0.25, 0.5, 1.0, 2.0]
        r_ds = [0.010, 0.011, 0.012, 0.013, 0.015]
        r_fs = [0.004, 0.005, 0.006, 0.007, 0.009]
        strikes = np.array([S * np.exp(np.linspace(-0.15, 0.15, 5) * math.sqrt(t))
                            for t in taus])
        calls = attari_strip(cf, S, strikes, taus, r_ds, r_fs)
        per_tenor = [attari_strip(cf, S, list(k), t, rd, rf)
                     for k, t, rd, rf in zip(strikes, taus, r_ds, r_fs)]
        assert calls.shape == strikes.shape
        assert np.array_equal(calls, np.array(per_tenor))
        reference = [one_tenor_strip(cf, S, k, t, rd, rf)
                     for k, t, rd, rf in zip(strikes, taus, r_ds, r_fs)]
        assert np.array_equal(calls, np.array(reference))

    def test_gil_pelaez_probabilities_in_unit_interval(self):
        for k in (1.1, 1.3, 1.5):
            p1, p2 = gil_pelaez_probabilities(CF, spec(k))
            assert -1e-9 <= p1 <= 1.0 + 1e-9
            assert -1e-9 <= p2 <= 1.0 + 1e-9

    def test_gil_pelaez_tiny_strike_sure_exercise(self):
        p1, p2 = gil_pelaez_probabilities(CF, spec(0.4, tau=0.25))
        assert p2 == pytest.approx(1.0, abs=1e-6)

    def test_carr_madan_alpha_values_agree(self):
        sp = spec(1.31)
        a11 = carr_madan_price(CF, sp, alpha=1.1)
        a15 = carr_madan_price(CF, sp, alpha=1.5)
        assert abs(a11 - a15) < 1e-5

    def test_gil_pelaez_and_carr_madan_put_parity(self):
        sp_c, sp_p = spec(1.27, side="call"), spec(1.27, side="put")
        parity = math.exp(-RD * 0.5) * (sp_c.forward - 1.27)
        for pricer in (gil_pelaez_price, carr_madan_price):
            diff = pricer(CF, sp_c) - pricer(CF, sp_p)
            assert diff == pytest.approx(parity, abs=1e-12)

    def test_carr_madan_rejects_bad_alpha(self):
        with pytest.raises(AlphaInvalid):
            carr_madan_price(CF, spec(1.3), alpha=-1.0)

    @pytest.mark.parametrize("alpha", [15.0, 40.0, 400.0])
    def test_carr_madan_rejects_alpha_past_the_moment_explosion(self, alpha):
        # E[(S_T/F_T)^(alpha+1)] explodes before tau = 1 from alpha = 10.5 on;
        # past that the CF's formula stays finite, -1.53 - 1.85i at alpha = 40
        # and -1.02e7 + 7.41e6i at alpha = 400, where the price read -0.0108
        # and 50.16
        cf = cf_factory("heston", HestonParams(0.01, 0.02, 1.5, 0.5, -0.3))
        sp = OptionSpec(1.3, 1.3, 1.0, 0.01, 0.005)
        with pytest.raises(AlphaInvalid, match="not finite up to"):
            carr_madan_price(cf, sp, alpha=alpha)
        assert 0.0 < carr_madan_price(cf, sp, alpha=9.0) < sp.S
        assert carr_madan_price(cf, sp, alpha=1.5) == pytest.approx(
            gil_pelaez_price(cf, sp), abs=1e-6 * sp.S)

    @pytest.mark.parametrize("alpha", [10.0, 10.3, 10.4])
    def test_carr_madan_refuses_alpha_just_below_the_explosion(self, alpha):
        # the moment check to alpha + 1 passed these, and the prices were
        # 1.7e-6 off Gil-Pelaez's 0.0563090 at 10, 0.306 at 10.3 and 1.38e25
        # at 10.4; the margin to alpha + 2 refuses them
        cf = cf_factory("heston", HestonParams(0.01, 0.02, 1.5, 0.5, -0.3))
        sp = OptionSpec(1.3, 1.3, 1.0, 0.01, 0.005)
        with pytest.raises(AlphaInvalid, match="not finite up to p = alpha [+] 2"):
            carr_madan_price(cf, sp, alpha=alpha)

    def test_carr_madan_alphas_it_takes_agree_with_gil_pelaez(self):
        cf = cf_factory("heston", HestonParams(0.01, 0.02, 1.5, 0.5, -0.3))
        sp = OptionSpec(1.3, 1.3, 1.0, 0.01, 0.005)
        want = gil_pelaez_price(cf, sp)
        assert want == pytest.approx(0.0563090, abs=1e-7)
        for alpha in (0.5, 1.5, 3.0, 5.0, 7.0, 8.0, 9.0):
            assert carr_madan_price(cf, sp, alpha=alpha) == pytest.approx(
                want, abs=1e-6 * sp.S)

    def test_cross_method_agreement_median_params(self):
        # production pricer vs the two dense cross-validators on pillar strikes
        for tau in (1 / 12, 0.25, 1.0, 2.0):
            vol = term_vol(HP, tau)
            for pillar, delta in PILLAR_DELTA_ITEMS:
                k = strike_from_delta(S, RD, RF, tau, vol, delta)
                sp = OptionSpec(S, k, tau, RD, RF, "call")
                a = attari_price(CF, sp)
                g = gil_pelaez_price(CF, sp)
                c = carr_madan_price(CF, sp, alpha=1.5)
                assert abs(a - g) < 1e-5 * S
                assert abs(a - c) < 1e-5 * S
                assert abs(g - c) < 1e-6 * S  # the dense validators agree tighter

    def test_call_price_monotone_in_strike(self):
        # production grid inside the quoted-strike envelope
        strikes = np.linspace(1.15, 1.45, 31)
        calls = attari_strip(CF, S, strikes, 0.5, RD, RF)
        assert np.all(np.diff(calls) < 0.0)
        # wide sweep needs the truncation-free grid (the fixed production grid
        # carries ~5e-6 ripple at 3-sigma strikes)
        wide = np.linspace(1.0, 1.7, 36)
        calls = attari_strip(CF, S, wide, 0.5, RD, RF, grid=CROSSCHECK_GRID)
        assert np.all(np.diff(calls) < 0.0)

    def test_no_arbitrage_bounds(self, rng):
        for _ in range(5):
            p = draw_heston(rng)
            cf = cf_factory("heston", p)
            for tau in (1 / 12, 0.5, 2.0):
                vol = term_vol(p, tau)
                for pillar, delta in PILLAR_DELTA_ITEMS:
                    k = strike_from_delta(S, RD, RF, tau, vol, delta)
                    sp = OptionSpec(S, k, tau, RD, RF, "call")
                    c = attari_price(cf, sp)
                    lower = max(math.exp(-RD * tau) * (sp.forward - k), 0.0)
                    assert c >= lower - 1e-7
                    assert c <= S * math.exp(-RF * tau) + 1e-12


PILLAR_DELTA_ITEMS = tuple(PILLAR_DELTAS.items())


class TestSurfacePrices:
    def test_reproduces_generating_vols(self, heston_surface):
        out = surface_prices(CF, heston_surface)
        for sl in heston_surface.slices:
            prices, vols = out[sl.tenor]
            assert np.max(np.abs(vols - np.asarray(sl.vols.vols))) < 1e-10

    def test_cell_count_preserved(self, heston_surface):
        out = surface_prices(CF, heston_surface)
        assert sum(len(v[0]) for v in out.values()) == heston_surface.n_cells

    def test_empty_surface_empty_grid(self):
        from fxsvol.market_data import VolSurface
        empty = VolSurface(date="2014-06-02", spot=1.30, slices=())
        assert surface_prices(CF, empty) == {}
        assert empty.n_cells == 0

    def test_flat_degenerate_model_flat_vols(self):
        from synthutil import synth_surface
        p = HestonParams(nu0=0.01, theta=0.01, kappa=2.0, omega=1e-6, rho=0.0)
        surf = synth_surface("heston", p)
        out = surface_prices(cf_factory("heston", p), surf)
        for tenor, (prices, vols) in out.items():
            assert np.max(np.abs(vols - 0.1)) < 2e-4


def _lane_params(kind, rng):
    if kind == "heston":
        return draw_heston(rng)
    if kind == "sz":
        return SchobelZhuParams(rng.uniform(0.07, 0.12), rng.uniform(0.08, 0.14),
                                rng.uniform(0.8, 2.0), rng.uniform(0.1, 0.25),
                                rng.uniform(-0.6, -0.2))

    def factor():
        return Factor(rng.uniform(0.003, 0.008), rng.uniform(0.004, 0.009),
                      rng.uniform(0.8, 3.0), rng.uniform(0.15, 0.35),
                      rng.uniform(-0.7, 0.5))
    return TwoFactorParams(kind, factor(), factor())


class TestAttariLanes:
    """Lane l of AttariLanes.calls is the scalar attari_strip of its
    parameter set on its surface, bit for bit."""

    @pytest.mark.parametrize("kind", ["heston", "sz", "bates2f", "ouou"])
    @pytest.mark.parametrize("jump", [None, JumpParams(lam=0.8, khat=-0.05, delta=0.15)],
                             ids=["diffusion", "jumps"])
    def test_rows_equal_scalar_strips(self, kind, jump):
        rng = np.random.default_rng(11)
        n_lanes, taus = 4, np.array([1 / 12, 2 / 12, 0.25, 0.5, 1.0, 2.0])
        spots = S * np.exp(rng.normal(0.0, 0.05, n_lanes))
        lane_taus = taus * rng.uniform(0.98, 1.02, (n_lanes, 1))
        r_ds = rng.uniform(0.0, 0.03, (n_lanes, taus.size))
        r_fs = rng.uniform(0.0, 0.03, (n_lanes, taus.size))
        strikes = spots[:, None, None] * np.exp(
            np.linspace(-0.2, 0.2, 5) * np.sqrt(lane_taus)[:, :, None])
        lanes = np.array([2, 0, 2, 3, 1, 3])  # any order, repeats allowed
        kernel = AttariLanes(spots[lanes], strikes[lanes], lane_taus[lanes], r_ds[lanes],
                             r_fs[lanes])
        sets = [_lane_params(kind, rng) for _ in lanes]
        calls = kernel.calls(cf_factory(kind, ParamLanes.stack(kind, sets), jump=jump))
        assert calls.shape == (lanes.size,) + strikes.shape[1:]
        for row, (lane, params) in enumerate(zip(lanes, sets)):
            want = attari_strip(cf_factory(kind, params, jump=jump), spots[lane],
                                strikes[lane], lane_taus[lane], r_ds[lane], r_fs[lane])
            assert np.array_equal(calls[row], want)
        whole = AttariLanes(spots[:1], strikes[:1], lane_taus[:1], r_ds[:1], r_fs[:1])
        assert np.array_equal(whole.calls(cf_factory(kind, sets[1], jump=jump))[0],
                              calls[1])

    def test_weights_independent_of_stack_shape(self):
        """One surface's per-cell weights have the same bits built alone as
        inside stacks of other (L, T) shapes, per lane and per tenor."""
        rng = np.random.default_rng(13)
        spots = S * np.exp(rng.normal(0.0, 0.05, 3))
        taus = np.array([1 / 12, 2 / 12, 0.25, 0.5, 1.0, 2.0]) * rng.uniform(0.98, 1.02, (3, 1))
        r_ds, r_fs = rng.uniform(0.0, 0.03, (2, 3, 6))
        strikes = spots[:, None, None] * np.exp(np.linspace(-0.2, 0.2, 5)
                                                * np.sqrt(taus)[:, :, None])

        def weights(lanes, tenors):
            kernel = AttariLanes(spots[lanes], strikes[lanes][:, tenors], taus[lanes][:, tenors],
                                 r_ds[lanes][:, tenors], r_fs[lanes][:, tenors])
            return kernel.weights.view(np.uint64)

        alone = weights([1], slice(None))[0]
        assert alone.shape == (6, 5, 64)  # 32 complex weights a cell
        for lanes in ([0, 1, 2], [1, 1], [2, 0, 1, 0]):
            stacked = weights(lanes, slice(None))
            for row in np.flatnonzero(np.array(lanes) == 1):
                assert np.array_equal(stacked[row], alone)
        for t in range(6):
            assert np.array_equal(weights([1], slice(t, t + 1))[0, 0], alone[t])
            assert np.array_equal(weights([0, 1], slice(t, None))[1, 0], alone[t])

    @pytest.mark.parametrize("kind", ["heston", "bates2f"])
    def test_stack_equals_indexed_lanes(self, kind, monkeypatch):
        rng = np.random.default_rng(12)
        spots = S * np.exp(rng.normal(0.0, 0.05, 3))
        taus = np.array([1 / 12, 0.25, 1.0]) * rng.uniform(0.98, 1.02, (3, 1))
        r_ds, r_fs = rng.uniform(0.0, 0.03, (2, 3, 3))
        strikes = spots[:, None, None] * np.exp(np.linspace(-0.2, 0.2, 5)
                                                * np.sqrt(taus)[:, :, None])
        lanes = [2, 0, 2, 1]
        # one kernel built from the inputs of those lanes, in that order
        kernel = AttariLanes(spots[lanes], strikes[lanes], taus[lanes], r_ds[lanes],
                             r_fs[lanes])
        ones = [AttariLanes(spots[k:k + 1], strikes[k:k + 1], taus[k:k + 1],
                            r_ds[k:k + 1], r_fs[k:k + 1]) for k in range(3)]
        assert AttariLanes.stack(ones[1:2]) is ones[1]
        monkeypatch.setattr(AttariLanes, "__init__", None)  # stack computes nothing
        stacked = AttariLanes.stack([ones[k] for k in lanes])
        cf = cf_factory(kind, ParamLanes.stack(kind, [_lane_params(kind, rng)
                                                      for _ in lanes]))
        assert np.array_equal(stacked.calls(cf), kernel.calls(cf))
