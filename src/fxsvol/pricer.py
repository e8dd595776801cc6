"""European vanilla pricing: Garman-Kohlhagen closed form and three
characteristic-function integration methods.

The production route is the single-integral method on a log-transformed
trapezoid grid (w = ln u on [-17, 5] with 0.4 spacing).  Its 32 nodes at
w <= -4.6 take the CF from 8 Chebyshev points through a fixed linear fold,
so the CF is called on 32 nodes, not 56.  The two-integral Gil-Pelaez
inversion and the damped-call transform exist to cross-validate it and run
on denser grids of their own.  Every method takes the
drift-centred CF cf(u, tau) of log(S_T / F_T) and applies the log-moneyness
ln(K/S) - (r_d - r_f) tau and the forward factor itself.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlphaInvalid, InvariantViolation, NumericOverflow, OutOfBounds

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_INV_CDF = statistics.NormalDist().inv_cdf


def norm_pdf(x):
    return np.exp(-0.5 * x * x) / SQRT_2PI


def norm_cdf(x):
    """The standard normal CDF, Phi(x) = erfc(-x / sqrt 2) / 2 by math.erfc.

    A float gives a float; an array gives an array of the same shape whose
    every element is the float call's bits.  Within (2 + x^2) 2^-52 of the
    exact value, relatively, plus 2^-1074 where it is subnormal (x below
    -37.5): the x^2 is the rounding of the argument, which erfc's slope
    magnifies in the lower tail.
    """
    if isinstance(x, np.ndarray):
        return np.array([norm_cdf(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return 0.5 * math.erfc(x * -_SQRT_HALF)


def norm_ppf(q):
    """The inverse standard normal CDF Phi^-1(q), for q strictly inside (0, 1).

    statistics.NormalDist().inv_cdf, Wichura's AS241 (Applied Statistics
    37(3), 1988), within 4 units of 2^-52 of the exact value, relatively,
    down to q = 5e-324.  Arrays work element by element, as in norm_cdf.
    """
    if isinstance(q, np.ndarray):
        return np.array([_INV_CDF(v) for v in q.ravel().tolist()]).reshape(q.shape)
    return _INV_CDF(q)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationGrid:
    """Trapezoid grid over w = ln(u)."""
    w_min: float = -17.0
    w_max: float = 5.0
    dw: float = 0.4

    def __post_init__(self):
        finite = all(map(math.isfinite, (self.w_min, self.w_max, self.dw)))
        if not (finite and self.w_min < self.w_max and self.dw > 0.0):
            raise InvariantViolation(f"bad grid {self}")

    @property
    def n_nodes(self):
        return int(math.floor((self.w_max - self.w_min) / self.dw + 1e-12)) + 1

    def nodes(self):
        """(w, u = e^w, trapezoid weights), built once per grid and read-only."""
        return self._nodes

    @cached_property
    def attari_factors(self):
        """(u_eval, g, fold): the single-integral kernel's grid constants.

        g = (1 - 1j/u) / (1 + u*u) * u * weights is the kernel's constant at
        each node.  The k nodes with w <= _FOLD_W are folded: up to their
        largest, u_f, the drift-centred CF is a polynomial in u to below one
        ulp, so its values there are fold (k, _FOLD_PROBES) times its values
        at _FOLD_PROBES Chebyshev points of the first kind on [0, u_f], fold
        holding their barycentric Lagrange values l_j(u_n).  u_eval, complex,
        is those probes followed by the nodes above u_f, so the CF is called
        on 32 nodes of the default grid's 56; the fold matrix F of the whole
        grid, (n_nodes, len(u_eval)), is diag(fold, identity).  A grid with
        _FOLD_PROBES or fewer nodes at or below u_f folds nothing: its probes
        are those nodes and fold is the identity.  Built on first use.
        """
        w, u, weights = self.nodes()
        k = int(np.count_nonzero(w <= _FOLD_W))
        if k > _FOLD_PROBES:
            theta = (2 * np.arange(_FOLD_PROBES) + 1) * (math.pi / (2 * _FOLD_PROBES))
            probes = u[k - 1] * np.sin(0.5 * theta) ** 2   # u_f (1 - cos theta) / 2
            # barycentric weights of first-kind points; each row's common
            # factor cancels in the quotient
            terms = (-1.0) ** np.arange(_FOLD_PROBES) * np.sin(theta) / (u[:k, None] - probes)
            fold = terms / terms.sum(axis=1, keepdims=True)
        else:
            probes, fold = u[:k], np.eye(k)
        arrays = (np.concatenate((probes, u[k:])).astype(complex),
                  (1.0 - 1j / u) / (1.0 + u * u) * u * weights, fold)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def _nodes(self):
        w = self.w_min + self.dw * np.arange(self.n_nodes)
        weights = np.full(self.n_nodes, self.dw)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        arrays = (w, np.exp(w), weights)
        for a in arrays:
            a.flags.writeable = False
        return arrays


# The low-frequency fold of IntegrationGrid.attari_factors: the nodes with
# w <= _FOLD_W are priced through the CF at _FOLD_PROBES Chebyshev points.
# Its error, max |folded - unfolded| over every cell, was one ulp of the
# prices, 3.4e-16 S, for every model: draw_heston sets mapped to each model
# with variances scaled by 1, 10, 50 and 200 (vols near 140%), 250 sets on
# the heston and sz fixture surfaces and criterion 3's 50 on their own cells;
# test_charfn.TestFoldedKernel holds 1e-15 S at each of the four scales.
# With 6 probes ouou reaches 8.9e-15 S at 200 times; with 8 probes and the
# boundary at w = -3, 2.1e-13 S.  An earlier prototype of the same fold
# measured up to 4.9e-12 S (ouou) and 1.1e-13 S (sz) at 200 times; this
# construction does not reach those figures on these sets.
_FOLD_W = -4.6
_FOLD_PROBES = 8

DEFAULT_GRID = IntegrationGrid()
# denser/wider log grid used by the cross-validation pricers; spacing chosen so
# that their own quadrature error sits well below the 1e-5*S agreement budget
CROSSCHECK_GRID = IntegrationGrid(w_min=-17.0, w_max=6.5, dw=0.005)


@dataclass(frozen=True)
class OptionSpec:
    S: float
    K: float
    tau: float
    r_d: float
    r_f: float
    side: str = "call"

    def __post_init__(self):
        if min(self.S, self.K, self.tau) <= 0.0:
            raise InvariantViolation(f"S, K, tau must be > 0: {self}")
        if self.side not in ("call", "put"):
            raise InvariantViolation(f"side must be call or put: {self.side}")

    @property
    def forward(self):
        return self.S * math.exp((self.r_d - self.r_f) * self.tau)


def _put_from_call(call, spec):
    return call - math.exp(-spec.r_d * spec.tau) * (spec.forward - spec.K)


# ---------------------------------------------------------------------------
# Garman-Kohlhagen
# ---------------------------------------------------------------------------

def gk_price(spec, sigma):
    """Closed-form price; put by parity C - P = e^{-r_d tau}(F - K).

    N(d) is erfc(z) / 2 at z = -d / sqrt 2, formed directly: with h = sigma
    sqrt(tau / 2), z1 = -lm / (2 h) - h / 2 and z2 = z1 + h, lm being the
    log-moneyness ln(S/K) + (r_d - r_f) tau.  The 1/2 rides on the discount
    factors, exactly.
    """
    h = sigma * math.sqrt(0.5 * spec.tau)
    z1 = -0.5 * (math.log(spec.S / spec.K) + (spec.r_d - spec.r_f) * spec.tau) / h - 0.5 * h
    call = (0.5 * (spec.S * math.exp(-spec.r_f * spec.tau)) * math.erfc(z1)
            - 0.5 * (spec.K * math.exp(-spec.r_d * spec.tau)) * math.erfc(z1 + h))
    return call if spec.side == "call" else _put_from_call(call, spec)


def bs_vega(spec, sigma):
    """K e^{-r_d tau} sqrt(tau) phi(d2); identical for call and put."""
    st = sigma * math.sqrt(spec.tau)
    d2 = (math.log(spec.S / spec.K) + (spec.r_d - spec.r_f) * spec.tau) / st - 0.5 * st
    return spec.K * math.exp(-spec.r_d * spec.tau) * math.sqrt(spec.tau) * float(norm_pdf(d2))


VOL_BRACKET = (1e-6, 5.0)


def _no_arbitrage_bounds(spec):
    df_d = math.exp(-spec.r_d * spec.tau)
    df_f = math.exp(-spec.r_f * spec.tau)
    if spec.side == "call":
        return max(df_d * (spec.forward - spec.K), 0.0), spec.S * df_f
    return max(df_d * (spec.K - spec.forward), 0.0), spec.K * df_d


def _outside_bounds(price, lo_bound, hi_bound):
    return OutOfBounds(f"price {price} outside no-arbitrage [{lo_bound}, {hi_bound}]")


def _outside_bracket(price):
    lo, hi = VOL_BRACKET
    return OutOfBounds(f"no vol in [{lo}, {hi}] reproduces price {price}")


class GKCells:
    """Garman-Kohlhagen constants of many call cells, for whole-surface implied vols.

    Built once per surface from the same math.* expressions gk_price and
    implied_vol evaluate per call (numpy's SIMD log/exp need not match libm),
    so every lane of price() does the IEEE operations of the scalar gk_price,
    bit for bit, and takes both erfc terms of every cell in one math.erfc
    pass.

    bracket_prices are price() at the two ends of VOL_BRACKET, which do not
    depend on the quotes.  price_error is eps, a bound on |price(sigma) -
    P(sigma)| for sigma in VOL_BRACKET.  P(sigma) = s_df N(d1) - s_df e^-lm
    N(d1 - st), with d1 = lm/st + st/2 and st = sigma sqrt_tau, is the exact
    Black price on the cell's float constants (lm = log_moneyness), and it
    increases with sigma.  price() takes N(d) = erfc(z) / 2 from math.erfc
    at z = -d / sqrt 2, formed as gk_price forms it (z1 = (-lm/2) / h - h/2,
    z2 = z1 + h, h = sigma sqrt(tau / 2)), the 1/2 folded exactly into s_df
    and k_df.  The rounding of z1 reaches both terms alike, and s_df N'(d1)
    = s_df e^-lm N'(d2) cancels it to first order.  What is left, in units
    of 2^-52 (s_df + k_df): h's rounding, 3 2^-53 relative, moves the price
    as sigma would, by at most 3 sqrt_tau units (vega sigma < 0.4 s_df st,
    st <= 5 sqrt_tau); z2's rounding, under 1/4; math.erfc's, 2 at 2 ulp
    (under 1 ulp measured); the products and the difference, 1; and the gap
    between k_df and s_df e^-lm, (5 + 2 |lm|) / 2.  That is about (16 + 3
    sqrt_tau) units for |lm| up to 10.  eps is 32 (1 + sqrt_tau) such units,
    twice that or more; a 50-digit evaluation of P on 1D to 5Y cells with
    |lm| <= 1.5 stays under one unit (0.74 measured).

    start is where every whole-surface implied_vol on these cells begins:
    (x, price, vega, volga / vega), price_greeks at x, x being vols (one per
    cell, or one for all) clipped to VOL_BRACKET.  SurfaceCost and
    surface_prices pass the surface's quoted vols, near which a fit's model
    vols lie, and the start price is then the market price.  It is computed
    here, once: no array of a GKCells is writeable, and nothing on it changes
    after it is built.
    """

    def __init__(self, specs, vols=0.2):
        specs = tuple(specs)
        if any(sp.side != "call" for sp in specs):
            raise InvariantViolation("GKCells holds call cells only")
        self.sqrt_tau = np.array([math.sqrt(sp.tau) for sp in specs])
        self.log_moneyness = np.array([math.log(sp.S / sp.K) + (sp.r_d - sp.r_f) * sp.tau
                                       for sp in specs])
        self.s_df = np.array([sp.S * math.exp(-sp.r_f * sp.tau) for sp in specs])
        self.k_df = np.array([sp.K * math.exp(-sp.r_d * sp.tau) for sp in specs])
        self.lo_bound, self.hi_bound = np.array([_no_arbitrage_bounds(sp)
                                                 for sp in specs]).reshape(-1, 2).T
        self.price_error = 2.0 ** -47 * (self.s_df + self.k_df) * (1.0 + self.sqrt_tau)
        # gk_price's constants in z = -d / sqrt 2, the 1/2 of N folded in
        self._h_tau = np.array([math.sqrt(0.5 * sp.tau) for sp in specs])
        self._z_lm = -0.5 * self.log_moneyness
        self._half_dfs = 0.5 * np.concatenate((self.s_df, self.k_df))
        self._vega_scale = self.s_df * self.sqrt_tau / SQRT_2PI  # vega = this * e^(-z1^2)
        self.bracket_prices = tuple(self.price(v) for v in VOL_BRACKET)
        self._solvable = (np.maximum(self.lo_bound, self.bracket_prices[0]),
                         np.minimum(self.hi_bound, self.bracket_prices[1]))
        x = np.clip(np.broadcast_to(np.asarray(vols, dtype=float), self.s_df.shape), *VOL_BRACKET)
        if np.isnan(x).any():
            raise InvariantViolation("GKCells start vols must not be NaN")
        self.start = (x, *self.price_greeks(x))
        for a in (*vars(self).values(), *self.bracket_prices, *self._solvable, *self.start):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def price(self, sigma):
        """gk_price of every cell at sigma (a scalar or one vol per cell)."""
        return self._price_z(sigma)[0]

    def price_greeks(self, sigma):
        """(price, vega, volga / vega) of every cell at sigma, one vol per cell.

        price is price()'s, bit for bit; volga / vega = d1 d2 / sigma = 2 z1
        z2 / sigma is the second-order term of Halley's step.
        """
        price, z1, z2 = self._price_z(sigma)
        return price, self._vega_scale * np.exp(-z1 * z1), 2.0 * z1 * z2 / sigma

    def _price_z(self, sigma):
        """(price, z1, z2): gk_price's operations, both erfc terms in one pass."""
        h = sigma * self._h_tau
        z1 = self._z_lm / h - 0.5 * h
        z2 = z1 + h
        n = z1.size
        terms = self._half_dfs * np.fromiter(map(math.erfc, z1.tolist() + z2.tolist()),
                                             float, 2 * n)
        return terms[:n] - terms[n:], z1, z2


def implied_vol(spec, price, tol=1e-12, max_iter=200):
    """Invert gk_price on VOL_BRACKET = [1e-6, 5].

    spec is one OptionSpec with a float price: a bisection, which stops at
    the first midpoint whose price is within tol of the target or whose
    bracket is under 1e-16 wide, or after max_iter midpoints.  Or spec is
    GKCells with one price per cell: then every cell is solved at once by
    _implied_vols, to the same stop rule from the cells' start vols, and
    the result is an array.  It is not the bisection's bits: a cell's vol v
    and this loop's v' have |v - v'| min(vega(v), vega(v')) <= 2 tol + 4
    cells.price_error.  Either way a price outside the no-arbitrage bounds
    or the bracket's prices raises OutOfBounds, for GKCells the scalar
    message of the first such cell in cell order.
    """
    if isinstance(spec, GKCells):
        return _implied_vols(spec, np.asarray(price, dtype=float), tol, max_iter)
    lo_bound, hi_bound = _no_arbitrage_bounds(spec)
    if not lo_bound <= price <= hi_bound:
        raise _outside_bounds(price, lo_bound, hi_bound)
    lo, hi = VOL_BRACKET
    f_lo = gk_price(spec, lo) - price
    f_hi = gk_price(spec, hi) - price
    if f_lo > 0.0 or f_hi < 0.0:
        raise _outside_bracket(price)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = gk_price(spec, mid) - price
        if abs(f_mid) < tol or (hi - lo) < 1e-16:
            return mid
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _implied_vols(cells, prices, tol, max_iter):
    """Every cell's implied vol: a bracketed Halley iteration from cells.start.

    After the scalar loop's bound and bracket checks, each cell has an
    iterate x, its start first, and a bracket (lo, hi), VOL_BRACKET first.
    At each x, with f = price() - target, f > 0 moves hi to x and any other
    f moves lo to x, as in the scalar loop.  The cell stops at x by the
    scalar loop's rule, |f| < tol or hi - lo < 1e-16.  Otherwise its next x
    is Halley's, x - s / clip(1 - s c / 2, 1/2, 2) with s = f / vega and c =
    volga / vega; or the midpoint (lo + hi) / 2, if that is not finite or
    not strictly inside (lo, hi), and at every other step from the 17th on,
    so that the bracket at least halves every two steps however the Halley
    steps fall.  A cell still open after max_iter steps returns its last x.
    A stopped cell is frozen, and every operation is per cell, so a cell's
    result depends only on its own constants, start and price: not on the
    other cells, nor on any earlier solve.

    Contract, with eps = cells.price_error and P the exact Black price (see
    GKCells), increasing in sigma and within eps of price(): a cell stopped
    by |f| < tol has |P(x) - target| < tol + eps.  One stopped by the width
    has an f of the other sign within 1e-16 of x, across which P moves by
    less than eps, so |P(x) - target| <= 2 eps and |f| <= 3 eps.  The scalar
    loop's vol v obeys the same, so |x - v| min(vega(x), vega(v)) <= 2 tol +
    4 eps, vega being unimodal in sigma.  With tol under about 3 eps, a cell
    above 0.5, where adjacent floats lie more than 1e-16 apart, may run all
    max_iter steps.  Started at a fit's quoted vols, most cells stop after
    two steps: 2.2 price_greeks calls a solve over the 40 seed-706
    implied-vol-target fits of the benchmark.
    """
    with np.errstate(all="ignore"):
        lo_ok, hi_ok = cells._solvable
        if np.count_nonzero((lo_ok <= prices) & (prices <= hi_ok)) < prices.size:
            raise _first_miss(cells, prices)
        (x, price, vega, curve), (lo, hi) = cells.start, VOL_BRACKET
        for steps in itertools.count():
            f = price - prices
            up = f > 0.0
            # a stopped cell's x is already the end its f moves, so these
            # leave its bracket as it was
            hi = np.where(up, x, hi)
            lo = np.where(up, lo, x)
            done = (np.abs(f) < tol) | (hi - lo < 1e-16)
            if steps >= max_iter or np.count_nonzero(done) == done.size:
                return x if steps else x.copy()  # never cells.start's own array
            x_next = 0.5 * (lo + hi)
            if steps < 16 or steps % 2:  # from the 17th step on, every other one bisects
                step = f / vega
                step /= np.minimum(np.maximum(1.0 - 0.5 * step * curve, 0.5), 2.0)
                step = x - step
                np.copyto(x_next, step, where=(lo < step) & (step < hi))
            np.copyto(x_next, x, where=done)
            x = x_next
            price, vega, curve = cells.price_greeks(x)


def _first_miss(cells, prices):
    """The scalar loop's OutOfBounds for the first cell it cannot solve."""
    p_lo, p_hi = cells.bracket_prices
    outside = ~((cells.lo_bound <= prices) & (prices <= cells.hi_bound))
    i = int(np.argmax(outside | (p_lo - prices > 0.0) | (p_hi - prices < 0.0)))
    if outside[i]:
        return _outside_bounds(float(prices[i]), float(cells.lo_bound[i]),
                               float(cells.hi_bound[i]))
    return _outside_bracket(float(prices[i]))


# ---------------------------------------------------------------------------
# CF integration methods
# ---------------------------------------------------------------------------

def attari_price(cf, spec, grid=DEFAULT_GRID):
    """Single-integral price of one option: attari_strip on its strike, a
    put by parity.

    C = S e^{-r_f tau} - K e^{-r_d tau} (1/2 + (1/pi) I),
    I = sum Re[e^{-i u l} phi(u) (1 - i/u)/(1 + u^2)] u dw,  u = e^w,
    l = ln(K/S) - (r_d - r_f) tau, phi the drift-centred CF cf(u, tau).
    """
    call = float(attari_strip(cf, spec.S, [spec.K], spec.tau, spec.r_d, spec.r_f, grid)[0])
    return call if spec.side == "call" else _put_from_call(call, spec)


class AttariLanes:
    """Single-integral kernel constants of L surfaces, built once.

    spots is (L,), strikes (L, T, P) and taus, r_ds, r_fs (L, T): lane l is
    one surface of T maturities and P strikes each.  Everything that does
    not depend on the model parameters is computed here, once: the per-cell
    weights W = sum_n exp(-i u_n ell) g_n F[n, :] over the grid's nodes u_n,
    of the log-moneyness ell, the grid constant g and the fold matrix F of
    IntegrationGrid.attari_factors, one weight per CF evaluation node (an
    (L, T, P, 32) complex tensor on the default grid, about 15 kB a 6 x 5
    surface), and the math.exp discount factors.  Each cell's weights are
    sums over the last axis alone, so their bits do not depend on the
    (L, T, P) stack they are built in.  calls() then prices every lane with
    one CF call, each lane bit for bit the one-lane kernel of its surface.
    stack() joins the lanes of kernels built apart without computing
    anything again.
    """

    _LANE_FIELDS = ("tau", "weights", "s_df", "k_df")

    def __init__(self, spots, strikes, taus, r_ds, r_fs, grid=DEFAULT_GRID):
        _, u, _ = grid.nodes()
        self.uc, g, fold = grid.attari_factors
        S = np.asarray(spots, dtype=float).reshape(-1, 1, 1)
        self.tau, r_d, r_f = (np.asarray(v, dtype=float)[:, :, None]
                              for v in (taus, r_ds, r_fs))
        strikes = np.asarray(strikes, dtype=float)
        ell = np.log(strikes / S) - (r_d - r_f) * self.tau
        osc_g = np.exp(-1j * (ell[..., None] * u)) * g
        k = fold.shape[0]  # F is diag(fold, identity)
        self.weights = np.concatenate(
            ((osc_g[..., None, :k] * fold.T).sum(axis=-1), osc_g[..., k:]), axis=-1)
        # math.exp, not np.exp: the discount factors must match the scalar route
        df_f = [math.exp(x) for x in (-r_f * self.tau).ravel().tolist()]
        df_d = [math.exp(x) for x in (-r_d * self.tau).ravel().tolist()]
        self.s_df = S * np.reshape(df_f, self.tau.shape)
        self.k_df = strikes * np.reshape(df_d, self.tau.shape)

    @classmethod
    def stack(cls, kernels):
        """One AttariLanes whose lanes are those of kernels, in order.

        The kernels must share the grid and the surface shape (T, P); their
        constants are copied, not computed again.
        """
        if len(kernels) == 1:
            return kernels[0]
        out = cls.__new__(cls)
        out.uc = kernels[0].uc
        for name in cls._LANE_FIELDS:
            setattr(out, name, np.concatenate([getattr(k, name) for k in kernels]))
        return out

    def calls(self, cf):
        """(L, T, P) call prices of the lanes,
        s_df - k_df (0.5 + Re sum W cf(u_eval, tau) / pi).

        cf takes the lanes' (L, T, 1) tau; row l of its parameters must
        belong to lane l.
        """
        phi = cf(self.uc, self.tau)
        integrals = (self.weights * phi[:, :, None, :]).real.sum(axis=3)
        return self.s_df - self.k_df * (0.5 + integrals / math.pi)


def attari_strip(cf, S, strikes, tau, r_d, r_f, grid=DEFAULT_GRID):
    """Vectorized single-integral call prices for many strikes and maturities.

    With scalar tau, r_d, r_f the strikes are one maturity's (P,) strip and
    the result has shape (P,).  With length-T arrays the strikes are (T, P),
    one row per maturity, and so is the result.  The CF is called once, with
    (1, T, 1) columns against the grid's evaluation nodes, and reused across
    strikes; each row matches a scalar call on that maturity bit for bit.
    """
    scalar = np.ndim(tau) == 0
    tau, r_d, r_f = (np.asarray(v, dtype=float).reshape(1, -1) for v in (tau, r_d, r_f))
    strikes = np.asarray(strikes, dtype=float).reshape(1, tau.shape[1], -1)
    calls = AttariLanes([S], strikes, tau, r_d, r_f, grid).calls(cf)[0]
    return calls[0] if scalar else calls


def gil_pelaez_probabilities(cf, spec):
    """(P1, P2) of the two-integral method on CROSSCHECK_GRID.

    P2 from the drift-centred phi directly; P1 from the single-CF variant
    phi1(u) = phi(u - i)/phi(-i), both against the log-moneyness ell.  Same
    u = e^w substitution as the production pricer (the 1/u of the kernel
    cancels the Jacobian).
    """
    w, u, weights = CROSSCHECK_GRID.nodes()
    uc = u.astype(complex)

    def phi(uu):
        return cf(uu, spec.tau)

    phi1 = phi(uc - 1j) / phi(np.asarray(-1j, dtype=complex))
    osc = np.exp(-1j * u * (math.log(spec.K / spec.S) - (spec.r_d - spec.r_f) * spec.tau))
    p1 = 0.5 + float(np.dot((osc * phi1 / 1j).real, weights)) / math.pi
    p2 = 0.5 + float(np.dot((osc * phi(uc) / 1j).real, weights)) / math.pi
    return p1, p2


def gil_pelaez_price(cf, spec):
    """Two-probability inversion C = S e^{-r_f tau} P1 - K e^{-r_d tau} P2."""
    p1, p2 = gil_pelaez_probabilities(cf, spec)
    call = (spec.S * math.exp(-spec.r_f * spec.tau) * p1
            - spec.K * math.exp(-spec.r_d * spec.tau) * p2)
    return call if spec.side == "call" else _put_from_call(call, spec)


CARR_MADAN_N = 4001
CARR_MADAN_V_MAX = math.exp(6.5)


def carr_madan_price(cf, spec, alpha=1.5):
    """Damped-call transform price.

    C = S e^{-r_f tau} (e^{-alpha l}/pi) int_0^vmax Re[e^{-i v l} psi(v)] dv,
    psi(v) = phi(v - (alpha+1)i) / (alpha^2 + alpha - v^2 + i(2 alpha + 1) v),
    l = ln(K/S) - (r_d - r_f) tau, phi the drift-centred CF, evaluated per
    strike on a linear trapezoid grid of CARR_MADAN_N nodes up to vmax =
    CARR_MADAN_V_MAX (no FFT batching).  alpha is refused unless phi(-p i) =
    E[(S_T/F_T)^p] is a finite positive real at 65 powers p from 1 to alpha +
    2, an imaginary part within 1e-8 of the real part counting as rounding:
    past the moment's explosion the CF's formula stays finite but is not.
    The transform itself reads the moment at alpha + 1; the margin of one
    power past it refuses the alphas whose damped integrand sits so near the
    explosion that the sum loses its digits.  With HestonParams(0.01, 0.02,
    1.5, 0.5, -0.3), S = K = 1.3, tau = 1 (explosion at p = 11.51), a check
    to alpha + 1 let through alpha 10, 1.3e-6 S off Gil-Pelaez, 10.3, which
    gave 0.306, and 10.4, which gave 1.4e25; the margin refuses them from
    alpha 9.5 on, and alpha 9 prices within 2e-10 S.
    """
    if alpha <= 0.0:
        raise AlphaInvalid(f"alpha must be > 0, got {alpha}")
    ell = math.log(spec.K / spec.S) - (spec.r_d - spec.r_f) * spec.tau
    try:
        m = cf(-1j * np.linspace(1.0, alpha + 2.0, 65), spec.tau)
    except NumericOverflow:
        m = np.array([np.nan])
    if not np.all(np.isfinite(m) & (m.real > 0.0) & (np.abs(m.imag) <= 1e-8 * m.real)):
        raise AlphaInvalid(f"E[(S_T/F_T)^p] is not finite up to p = alpha + 2 = "
                           f"{alpha + 2.0}, one power past the alpha + 1 the transform reads")
    v = np.linspace(0.0, CARR_MADAN_V_MAX, CARR_MADAN_N)
    weights = np.full(CARR_MADAN_N, v[1] - v[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    phi = cf(v - (alpha + 1.0) * 1j, spec.tau)
    denom = alpha * alpha + alpha - v * v + 1j * (2.0 * alpha + 1.0) * v
    integral = float(np.dot((np.exp(-1j * v * ell) * phi / denom).real, weights))
    call = spec.S * math.exp(-spec.r_f * spec.tau) * math.exp(-alpha * ell) / math.pi * integral
    return call if spec.side == "call" else _put_from_call(call, spec)


def surface_prices(cf, surface):
    """Model call price and model implied vol for every (tenor, pillar) cell,
    priced on DEFAULT_GRID.

    Returns {tenor: (prices array, vols array)} in pillar order.
    """
    slices = surface.slices
    if not slices:
        return {}
    calls = attari_strip(cf, surface.spot, [sl.strikes for sl in slices],
                         [sl.tau for sl in slices], [sl.r_d for sl in slices],
                         [sl.r_f for sl in slices])
    cells = GKCells((OptionSpec(surface.spot, K, sl.tau, sl.r_d, sl.r_f, "call")
                     for sl in slices for K in sl.strikes),
                    [v for sl in slices for v in sl.vols.vols])
    vols = implied_vol(cells, calls.ravel()).reshape(calls.shape)
    return {sl.tenor: (row, v) for sl, row, v in zip(slices, calls, vols)}
