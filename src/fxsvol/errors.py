"""Exception types raised by the toolkit.

Every error that is part of a function's contract has its own class so
callers (and tests) can catch precisely the failure they care about.
"""


class FxsvolError(Exception):
    """Base class for all toolkit errors."""


# market data ----------------------------------------------------------------

class NonPositivePillarVol(FxsvolError):
    """A strategy-quote combination produced a pillar vol <= 0."""


class InvalidForward(FxsvolError):
    """Forward price implied by the quotes is not positive."""


class DeltaOutOfRange(FxsvolError):
    """The argument of the inverse normal CDF left (0, 1)."""


class ParseError(FxsvolError):
    """CSV cell could not be parsed; carries row/column context."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class InvariantViolation(FxsvolError):
    """A constructed object failed one of its documented invariants."""


# characteristic functions ---------------------------------------------------

class NumericOverflow(FxsvolError):
    """CF evaluation or a parameter transform overflowed; raised, never clamped."""


# pricing --------------------------------------------------------------------

class OutOfBounds(FxsvolError):
    """Target price is outside no-arbitrage bounds or the vol bracket."""


class AlphaInvalid(FxsvolError):
    """Carr-Madan damping parameter fails the moment condition."""


# moments --------------------------------------------------------------------

class InsufficientStrikes(FxsvolError):
    """Option strip too short to replicate the power payouts."""


class NonPositiveVariance(FxsvolError):
    """Second central moment came out <= 0."""


class NegativeAdjusted(FxsvolError):
    """Convexity adjustment exceeded 1, expected vol would be negative."""


# estimators -----------------------------------------------------------------

class DegenerateMoments(FxsvolError):
    """Implied moments do not identify the parameters (e.g. omega = 0)."""


class NegativeRadicand(FxsvolError):
    """Smile shape outside the domain of the closed-form estimator."""


class SingularRegression(FxsvolError):
    """Smile regression design matrix is rank deficient."""


class NoValidRoot(FxsvolError):
    """No root of the price-expansion system is admissible."""


class ShortSeries(FxsvolError):
    """Historical series too short for the requested estimator."""


class ZeroTotalVariance(FxsvolError):
    """Both factor variances are zero; mixture stats undefined."""


# calibration ----------------------------------------------------------------

class NonFiniteObjective(FxsvolError):
    """Objective returned NaN/Inf during minimization."""
