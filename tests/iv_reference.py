"""The whole-surface implied vol as the scalar loop's bisection.

A literal copy of the plain lockstep loop over GKCells: every lane bisects
from the full bracket, one GKCells.price call per iteration, and ends bit
for bit where the scalar implied_vol ends.  Tests patch it in for
pricer._implied_vols to hold whole calibrations on the converged solve
within a stated tolerance of the bisection's, and use it as the oracle on
cells whose prices are not gk_price's.
"""

import numpy as np

from fxsvol.pricer import VOL_BRACKET, _outside_bounds, _outside_bracket


def reference_implied_vols(cells, prices, tol, max_iter):
    lo, hi = VOL_BRACKET
    outside = ~((cells.lo_bound <= prices) & (prices <= cells.hi_bound))
    miss = outside | (cells.price(lo) - prices > 0.0) | (cells.price(hi) - prices < 0.0)
    if miss.any():
        i = int(np.argmax(miss))
        if outside[i]:
            raise _outside_bounds(float(prices[i]), float(cells.lo_bound[i]),
                                  float(cells.hi_bound[i]))
        raise _outside_bracket(float(prices[i]))
    lo = np.full(prices.shape, lo)
    hi = np.full(prices.shape, hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = cells.price(mid) - prices
        done = (np.abs(f_mid) < tol) | ((hi - lo) < 1e-16)
        if np.count_nonzero(done) == done.size:
            return mid
        up = f_mid > 0.0
        np.copyto(hi, mid, where=done | up)
        np.copyto(lo, mid, where=done | ~up)
    return 0.5 * (lo + hi)
