"""The row-by-row surface cost, as fxsvol.calibrate computed it before one
row-wise function (calibrate._costs) costed every chunk of rows and every
SurfaceCost call; kept as the oracle of both.

reference_cost(ctx, calls) is the cost under ctx.spec of the model call
prices of every cell of ctx's surface (row-major by tenor): the implied-vol
target compares the cells' implied vols with the market vols, the price
target the vega-scaled prices with the vega-scaled market prices, each by
the cost kind's error sum.
"""

import numpy as np

from fxsvol.pricer import implied_vol


def _error_sum(kind, model, market):
    """The cost kind's error sums of model against market over the last
    (cell) axis: a row's sum is numpy's sum of that row alone."""
    diff = model - market
    if kind == "mse":
        return np.sum(diff * diff, axis=-1)
    if kind == "mae":
        return np.sum(np.abs(diff), axis=-1)
    return np.sum(np.abs(diff / market), axis=-1)


def reference_cost(ctx, calls):
    """The cost of model call prices of every cell (row-major by tenor)."""
    if ctx.spec.target == "implied_vol":
        return float(_error_sum(ctx.spec.kind, implied_vol(ctx.cells, calls),
                                ctx.market_vols))
    return float(_error_sum(ctx.spec.kind, calls / ctx.vegas, ctx.market_scaled))
