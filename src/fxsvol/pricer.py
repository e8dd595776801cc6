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

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.special import ndtr

from .errors import AlphaInvalid, InvariantViolation, NumericOverflow, OutOfBounds

SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_pdf(x):
    return np.exp(-0.5 * x * x) / SQRT_2PI


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
    """Closed-form price; put by parity C - P = e^{-r_d tau}(F - K)."""
    st = sigma * math.sqrt(spec.tau)
    d1 = (math.log(spec.S / spec.K) + (spec.r_d - spec.r_f) * spec.tau) / st + 0.5 * st
    d2 = d1 - st
    call = (spec.S * math.exp(-spec.r_f * spec.tau) * ndtr(d1)
            - spec.K * math.exp(-spec.r_d * spec.tau) * ndtr(d2))
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
    so every lane of price() and of the lockstep bisection in implied_vol
    does the IEEE operations of the scalar code, bit for bit.

    bracket_prices are price() at the two ends of VOL_BRACKET, which do not
    depend on the quotes.  price_error is eps, a bound on |price(sigma) -
    P(sigma)| for sigma in VOL_BRACKET.  P(sigma) = s_df N(d1) - s_df e^-lm
    N(d1 - st), with d1 = lm/st + st/2 and st = sigma sqrt_tau, is the exact
    Black price on the cell's float constants (lm = log_moneyness), and it
    increases with sigma.  Adding up the rounding of st, d1 and d2 (times the
    normal density), of scipy's ndtr, of the products and the difference, and
    the gap between k_df and s_df e^-lm gives about (14 + 11 sqrt_tau) units
    of 2^-52 (s_df + k_df) for |lm| up to 10.  eps is 32 (1 + sqrt_tau) such
    units, over twice that; a 50-digit evaluation of P on 1D to 5Y cells with
    |lm| <= 1.5 stays under one unit.

    last_vols holds the vols the last whole-surface implied_vol on these
    cells returned (None before the first): the next solve starts its
    estimate from them.  Successive solves of one surface in a fit are
    close, so fewer steps certify; the certificates make any start give the
    same bits, so last_vols changes how fast a solve runs, never its result.
    """

    def __init__(self, specs):
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
        self.bracket_prices = tuple(self.price(v) for v in VOL_BRACKET)
        self.last_vols = None
        self._certificate = (None,)

    def certificate_terms(self, tol):
        """(margin, inner, spans) of _implied_vols' certificates at tol.

        With eps = price_error: margin = tol + 2 eps rounded up, inner = t -
        2 eps rounded down, t the float below tol, and spans (4, cells) the
        numerators of the offsets of a, c, e and b from the estimate:
        -(margin + 2 eps), -(tol - 3 eps), tol - 3 eps and margin + 2 eps.
        Kept for the last tol asked; a fit asks one tol throughout.
        """
        terms = self._certificate  # one read, so a concurrent solve cannot mix tols
        if terms[0] != tol:
            eps2 = 2.0 * self.price_error
            with np.errstate(invalid="ignore"):
                margin = np.nextafter(max(tol, 0.0) + eps2, np.inf)
                inner = np.nextafter(np.nextafter(tol, -np.inf) - eps2, -np.inf)
                outer, half = margin + eps2, tol - 1.5 * eps2
            terms = self._certificate = (tol, margin, inner,
                                         np.array((-outer, -half, half, outer)))
        return terms[1:]

    def price(self, sigma):
        """gk_price of every cell at sigma (a scalar or one vol per cell)."""
        st = sigma * self.sqrt_tau
        d1 = self.log_moneyness / st + 0.5 * st
        d2 = d1 - st
        return self.s_df * ndtr(d1) - self.k_df * ndtr(d2)

    def price_greeks(self, sigma):
        """(price, vega, volga / vega) of every cell at sigma, for the vol estimate.

        volga / vega = d1 d2 / sigma is the second-order term of Halley's step.
        """
        st = sigma * self.sqrt_tau
        d1 = self.log_moneyness / st + 0.5 * st
        d2 = d1 - st
        price = self.s_df * ndtr(d1) - self.k_df * ndtr(d2)
        return price, self.s_df * self.sqrt_tau * norm_pdf(d1), d1 * d2 / sigma


def implied_vol(spec, price, tol=1e-12, max_iter=200):
    """Invert gk_price by bisection on [1e-6, 5].

    spec is one OptionSpec with a float price, or GKCells with one price per
    cell: then all cells are bisected in lockstep and the result is an array,
    bit for bit the scalar loop's per cell.  A failing cell raises the scalar
    OutOfBounds, the first in cell order.
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
    """The lockstep bisection of implied_vol, nearly every cell settled by
    one price() call.

    Every lane ends bit for bit where the scalar loop ends: the scalar
    implied_vol is the oracle.  After the bracket check, with eps =
    cells.price_error and f = price() - target as the loop computes it:

    1. Estimate: _estimate gives a vol x and the vega there per cell.
    2. Outer certificate: margin = tol + 2 eps, rounded up, and delta =
       (margin + 2 eps) / vega.  a = x - delta and b = x + delta, kept inside
       the bracket, are certified if f(a) < -margin and f(b) > margin.  Both
       are strict, and rounding is monotone, so they hold for the exact
       differences too.  P (see GKCells) is increasing and price() is within
       eps of it, so a midpoint mid <= a has price(mid) - target <= f(a) +
       2 eps < -tol: the loop's f_mid <= -tol, so |f_mid| < tol fails and it
       sets lo = mid.  A midpoint mid >= b has price(mid) - target > tol >= 0:
       f_mid > 0 and |f_mid| >= tol, so it sets hi = mid.  With tol = 0 the
       margin is 2 eps, f_mid <= 0 gives lo = mid and f_mid > 0 gives hi =
       mid; a negative tol stops nothing and counts as 0.
    3. Inner certificate: with t the float below tol and inner = t - 2 eps,
       rounded down, c = x - (tol - 3 eps) / vega and e = x + (tol - 3 eps) /
       vega, kept inside the bracket, are certified if f(c) > -inner and f(e)
       < inner.  By the same monotone-price argument a midpoint c <= mid <= e
       has price(mid) - target >= f(c) - 2 eps > -inner - 2 eps >= -t, and
       likewise < t, all exactly; -t and t are floats, so the loop's f_mid
       lies in [-t, t], |f_mid| < tol, and the loop stops at mid.  When tol
       <= 2 eps, inner <= 0 and the interval counts as empty.
    4. Walk: per cell, in Python floats, the loop's own midpoints 0.5 * (lo +
       hi), each decided against (a, b), up to the first midpoint m inside
       (a, b) or the end of the cell's iterations.  With max_iter >=
       _TREE_DEPTH and no node of _bisection_tree inside (a, b), the first
       _TREE_DEPTH midpoints all lie outside it and leave the bracket on the
       two nodes around (a, b): one searchsorted finds them.  lo only moves
       to midpoints <= a and hi to midpoints >= b, so the bracket stays at
       least min(hi, b) - max(lo, a) wide, as of the walk's start; a walk
       runs only if that is >= 1e-16, so the loop's width stop cannot fire
       in it, m included.  Unless m lies in [c, e], the walk goes on from
       each child bracket of m, (lo, m) and (m, hi), to its next midpoint
       inside (a, b).
    5. One priced pass: a, c, e, b, m and those two midpoints, in one
       price() call.  On a cell whose outer certificate holds, m ends the
       loop if it lies in a certified [c, e]; otherwise f(m) decides it as
       the loop does, and f of the next midpoint on the side it takes
       decides that one.
    6. Exact tail: _lockstep runs every cell still open, uncertified or with
       a longer chain or a walk that did not run, from its own (lo, hi) and
       the iterations it has left; a settled cell is collapsed onto its
       result.
    """
    lo, hi = VOL_BRACKET
    p_lo, p_hi = cells.bracket_prices
    outside = ~((cells.lo_bound <= prices) & (prices <= cells.hi_bound))
    miss = outside | (p_lo - prices > 0.0) | (p_hi - prices < 0.0)
    if miss.any():
        i = int(np.argmax(miss))
        if outside[i]:
            raise _outside_bounds(float(prices[i]), float(cells.lo_bound[i]),
                                  float(cells.hi_bound[i]))
        raise _outside_bracket(float(prices[i]))
    margin, inner, spans = cells.certificate_terms(tol)
    ends = _estimate(cells, prices, spans)
    a_l, c_l, e_l, b_l = ends.tolist()
    n = len(a_l)
    walks, kids = [None] * n, [None] * n
    rows = [a_l[:], a_l[:], a_l[:]]  # m, then the next midpoints on its sides; a if none
    deep = max_iter >= _TREE_DEPTH
    if deep:
        leaf_lo, leaf_hi = _tree_leaves(ends[0])
    for i in range(n):
        a_i, b_i = a_l[i], b_l[i]
        if not b_i - a_i >= 1e-16:
            continue
        if deep and leaf_hi[i] >= b_i:
            x_lo, x_hi, left = leaf_lo[i], leaf_hi[i], max_iter - _TREE_DEPTH
        else:
            x_lo, x_hi, left = lo, hi, max_iter
        for steps in range(left):  # _walk, written out for speed
            m = 0.5 * (x_lo + x_hi)
            if m <= a_i:
                x_lo = m
            elif m >= b_i:
                x_hi = m
            else:
                left -= steps
                break
        else:
            walks[i] = (x_lo, x_hi, 0)
            continue
        walks[i] = (x_lo, x_hi, left)
        rows[0][i] = m
        if c_l[i] <= m <= e_l[i]:
            continue
        kids[i] = sides = (_walk(x_lo, m, left - 1, a_i, b_i),
                           _walk(m, x_hi, left - 1, a_i, b_i))
        for row, (s_lo, s_hi, _, s_found) in zip(rows[1:], sides):
            if s_found:
                row[i] = 0.5 * (s_lo + s_hi)
    with np.errstate(all="ignore"):
        f = cells.price(np.concatenate((ends, rows))) - prices
    sure = ((f[0] < -margin) & (f[3] > margin)).tolist()
    tight = ((f[1] > -inner) & (f[2] < inner)).tolist()
    f_m, *f_sides = f[4:].tolist()
    for i, walk in enumerate(walks):
        if walk is None or not sure[i]:
            x_lo, x_hi, left = lo, hi, max_iter
        else:
            x_lo, x_hi, left = walk
            m = rows[0][i]
            if left <= 0:
                pass
            elif tight[i] and c_l[i] <= m <= e_l[i]:
                x_lo, x_hi, left = m, m, 0
            else:
                x_lo, x_hi, left = _decide(x_lo, x_hi, left, f_m[i], tol)
                side = 0 if f_m[i] > 0.0 else 1
                if left and kids[i] is not None:
                    x_lo, x_hi, left, found = kids[i][side]
                    if found:
                        x_lo, x_hi, left = _decide(x_lo, x_hi, left, f_sides[side][i], tol)
        if left <= 0:  # the loop returns its midpoint
            x_lo = x_hi = 0.5 * (x_lo + x_hi)
            left = 0
        walks[i] = (x_lo, x_hi, left)
    lows, highs, lefts = zip(*walks) if walks else ((), (), ())
    if any(lefts):
        vols = _lockstep(cells, prices, tol, np.array(lows), np.array(highs), np.array(lefts))
    else:
        vols = np.array(lows)
    cells.last_vols = vols.copy()
    return vols


def _estimate(cells, prices, spans):
    """Stages 1 and 2 of _implied_vols: the rows a, c, e and b, x + spans /
    vega kept inside the bracket, for a vol x per cell and the vega at the
    start of its last step.

    Newton steps with Halley's second-order term, its denominator kept at
    0.5 or more, start warm from cells.last_vols or, when there are none of
    prices' shape, cold from Corrado-Miller on the discounted spot and
    strike.  They take 2 steps warm and 3 cold, then more while a step
    exceeds 1e-7, 6 in all at most.  The start sets only how many cells
    certify, never a result.
    """
    lo, hi = VOL_BRACKET
    x = cells.last_vols
    warm = x is not None and x.shape == prices.shape
    with np.errstate(all="ignore"):
        if not warm:
            s_df, k_df = cells.s_df, cells.k_df
            excess = prices - 0.5 * (s_df - k_df)
            root = np.sqrt(np.maximum(excess * excess - (s_df - k_df) ** 2 / math.pi, 0.0))
            x = np.maximum(SQRT_2PI / (s_df + k_df) * (excess + root) / cells.sqrt_tau, lo)
        for steps in range(1, 7):
            p, vega, curve = cells.price_greeks(x)
            step = (p - prices) / vega
            step /= np.maximum(1.0 - 0.5 * step * curve, 0.5)
            x = np.maximum(x - step, lo)
            if steps >= (2 if warm else 3) and not (np.abs(step) > 1e-7).any():
                break
        return np.minimum(np.maximum(x + spans / vega, lo), hi)


# The loop's midpoints of VOL_BRACKET are tabled to this depth: _TREE_DEPTH
# levels, 2^_TREE_DEPTH + 1 nodes with the two ends.
_TREE_DEPTH = 17


@cache
def _bisection_tree():
    """The implied_vol loop's first _TREE_DEPTH levels of midpoints, in order.

    131,073 floats (1 MB), read-only, built on first use: the two ends of
    VOL_BRACKET at 0 and 2^17, and at an odd multiple of 2^(17 - d) the
    level-d midpoint 0.5 * (lo + hi) of the nodes 2^(17 - d) to either side,
    the loop's own expression on its own bracket.  So the loop's bracket
    after d levels is two nodes 2^(17 - d) apart, whatever the cell.
    """
    size = 1 << _TREE_DEPTH
    tree = np.empty(size + 1)
    tree[0], tree[size] = VOL_BRACKET
    step = size
    while step > 1:
        half = step // 2
        mids = tree[half::step]
        np.add(tree[:-half:step], tree[step::step], out=mids)
        mids *= 0.5
        step = half
    tree.flags.writeable = False
    return tree


def _tree_leaves(a):
    """The nodes of _bisection_tree around each of a's cells, as two lists:
    the last node <= a and the first above it."""
    tree = _bisection_tree()
    j = np.minimum(np.searchsorted(tree, a, "right"), tree.size - 1)
    return tree[j - 1].tolist(), tree[j].tolist()


def _walk(lo, hi, left, a, b):
    """Stage 4 of _implied_vols from the loop's bracket (lo, hi) with left
    iterations: the loop on a cell certified on (a, b).

    Returns (lo, hi, left, found).  found: the next midpoint 0.5 * (lo + hi)
    lies inside (a, b) and left counts it.  Otherwise left is 0 and the loop
    returns 0.5 * (lo + hi), or the walk did not run, the bracket's width
    bound being under 1e-16.
    """
    if min(hi, b) - max(lo, a) < 1e-16:
        return lo, hi, left, False
    for steps in range(left):
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            return lo, hi, left - steps, True
    return lo, hi, 0, False


def _decide(lo, hi, left, f_mid, tol):
    """The loop's iteration at its midpoint 0.5 * (lo + hi), whose price
    minus target is f_mid: (lo, hi, left) after it, collapsed onto the
    midpoint if the loop stops there.  The bracket is 1e-16 wide or more."""
    mid = 0.5 * (lo + hi)
    if abs(f_mid) < tol:
        return mid, mid, 0
    return (lo, mid, left - 1) if f_mid > 0.0 else (mid, hi, left - 1)


def _lockstep(cells, prices, tol, lo, hi, left):
    """The scalar implied_vol's loop on every lane at once, from its own (lo, hi).

    Lane i ends at its midpoint once its left[i] iterations are spent.
    """
    last = int(left.max(initial=0))
    first = int(left.min(initial=last))
    for j in range(last):
        mid = 0.5 * (lo + hi)
        f_mid = cells.price(mid) - prices
        done = (np.abs(f_mid) < tol) | ((hi - lo) < 1e-16)
        if j >= first:  # a lane out of iterations ends at this midpoint
            done |= left <= j
        if np.count_nonzero(done) == done.size:  # done.all(), in a third of the time
            return mid
        # a stopped lane collapses its bracket onto its midpoint, which every
        # later iteration reproduces exactly and keeps stopped
        up = f_mid > 0.0
        np.copyto(hi, mid, where=done | up)
        np.copyto(lo, mid, where=done | ~up)
    return 0.5 * (lo + hi)


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
    cells = GKCells(OptionSpec(surface.spot, K, sl.tau, sl.r_d, sl.r_f, "call")
                    for sl in slices for K in sl.strikes)
    vols = implied_vol(cells, calls.ravel()).reshape(calls.shape)
    return {sl.tenor: (row, v) for sl, row, v in zip(slices, calls, vols)}
