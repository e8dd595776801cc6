"""Drift-centred characteristic functions, of log(S_T / F_T), for four models.

Every parameter set carries its model kind (.kind) and a tuple of
independent factors (.factors: one for heston and sz, two for bates2f and
ouou), and every model's CF is one exponentially affine body over them,

    phi(u) = exp(sum_k [A_k + B_k nu0_k (+ C_k nu0_k^2)]),

with phi(0) = phi(-i) = 1: spot and rates never enter it.  Heston and Bates
two-factor factors are CIR variances: heston_terms gives their A, B in the
G-form of Albrecher et al., which keeps the complex log away from its branch
cut for all maturities.  Schobel-Zhu and OUOU factors are OU volatilities:
sz_terms gives their A, B, C, and the exponent is quadratic in nu0.

model_params(kind, factors) builds a model's parameter set from its factors'
fields; its class, and factor_count(kind), come from the one table _PARAMS.
Every set is checked, and its Feller condition read, by one rule each,
valid_factors and feller_holds, keyed on variance_factors(kind): a CIR
variance needs theta > 0 and may break Feller, an OU volatility allows
theta = 0 and has no Feller bound.  Both read plain (nu0, theta, kappa,
omega, rho) tuples, so the calibration's lane path checks its points by
them without building a set.

cf_factory(kind, params, jump=None) is the one way to build a CF: a closure
cf(u, tau), which the pricers call and nothing else.  u is complex (a
scalar or a numpy array).  tau may be a scalar or a (T, 1) column array,
one row per maturity; the result then has shape (T, len(u)), and each row
equals a scalar-tau call bit for bit.

Lanes: ParamLanes.stack(kind, [p_1, ..., p_L]) stacks L parameter sets of
one model (ParamLanes.of_fields their field tuples) into one Factor per
model factor whose fields are (L, 1, 1) arrays, and cf_factory accepts it
in place of one parameter set.  With tau an (L, T, 1) array (lane l
holding the maturities of the surface p_l is priced on), the CF returns
(L, T, len(u)) and lane l equals the scalar-parameter call on those
maturities bit for bit: every lane does the scalar's IEEE operations in
the scalar's order, and squares of parameters go through _sq, the C pow
that Python's float ** uses.

The G-form's log term, _log1p_over, works node by node, so lanes stay the
scalar call bit for bit through it as well.  Its value is held to the ulp
bounds its docstring states against the exact log(1 + w)/w, not to the bits
of any earlier form (tests/charfn_reference.py keeps the power series and
complex-log form it replaced).

The difference beta - d is always evaluated as omega^2 * X / (beta + d) (X
the Riccati constant term), which is exact and avoids the catastrophic
cancellation of the literal subtraction in the vol-of-vol -> 0 limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericOverflow


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """One variance/volatility factor: nu0/theta are variances (per annum)
    for a CIR variance, volatilities for an OU volatility."""
    nu0: float
    theta: float
    kappa: float
    omega: float
    rho: float


class _ParamSet:
    """What every model's parameter set shares: a kind, a tuple of factors,
    and the one validation rule and one Feller rule (valid_factors,
    feller_holds) read on its factors' fields."""

    def __post_init__(self):
        if _PARAMS.get(self.kind) is not type(self):
            raise InvariantViolation(f"{type(self).__name__} has no kind {self.kind!r}")
        cir = variance_factors(self.kind)
        for f in self.factors:
            if not valid_factors(self.kind, [factor_fields(f)]):
                raise InvariantViolation(
                    f"{self.kind} factor needs nu0, kappa, omega > 0, theta "
                    f"{'>' if cir else '>='} 0 and |rho| < 1: {f}")

    def feller_satisfied(self):
        """2 kappa theta > omega^2 on every factor; always true for OU
        volatilities, which have no positivity constraint."""
        return feller_holds(self.kind, [factor_fields(f) for f in self.factors])


@dataclass(frozen=True)  # again: Factor's own __init__ calls no __post_init__
class _OneFactorParams(_ParamSet, Factor):
    """A one-factor model's parameter set: its own one factor."""

    @property
    def factors(self):
        return (self,)


class HestonParams(_OneFactorParams):
    """CIR-variance model: nu0/theta are variances (per annum)."""
    kind = "heston"


class SchobelZhuParams(_OneFactorParams):
    """OU-volatility model: nu0/theta are volatilities."""
    kind = "sz"


@dataclass(frozen=True)
class TwoFactorParams(_ParamSet):
    kind: str  # "bates2f" | "ouou"
    f1: Factor
    f2: Factor

    @property
    def factors(self):
        return (self.f1, self.f2)


# each model's parameter class, and the fields of every factor
_PARAMS = {"heston": HestonParams, "sz": SchobelZhuParams,
           "bates2f": TwoFactorParams, "ouou": TwoFactorParams}
_FACTOR_FIELDS = ("nu0", "theta", "kappa", "omega", "rho")  # factor_fields' order


def factor_fields(f):
    """A factor's (nu0, theta, kappa, omega, rho) as a tuple."""
    return f.nu0, f.theta, f.kappa, f.omega, f.rho


def valid_factors(kind, fields):
    """The one validation rule, on the (nu0, theta, kappa, omega, rho) of
    each factor of a model kind's set: nu0, kappa, omega > 0 and |rho| < 1,
    and theta > 0 for a CIR variance, theta >= 0 for an OU volatility."""
    cir = variance_factors(kind)
    for nu0, theta, kappa, omega, rho in fields:
        if (min(nu0, kappa, omega) <= 0.0 or theta < 0.0
                or cir and theta == 0.0 or abs(rho) >= 1.0):
            return False
    return True


def feller_holds(kind, fields):
    """The one Feller rule, on the (nu0, theta, kappa, omega, rho) of each
    factor of a model kind's set: 2 kappa theta > omega^2 on every CIR
    variance; OU volatilities have no such bound."""
    if variance_factors(kind):
        for _, theta, kappa, omega, _ in fields:
            if not 2.0 * kappa * theta - omega ** 2 > 0.0:
                return False
    return True


@dataclass(frozen=True)
class ParamLanes:
    """L parameter sets of one model stacked as lanes of one CF call.

    factors holds one Factor per model factor (one for heston and sz, two
    for bates2f and ouou) whose fields are (L, 1, 1) arrays, lane l holding
    the l-th set.  stack takes parameter sets, validated when they were
    built, and of_fields the factors' field tuples of sets, checked by
    valid_factors before; a single set stays scalar (stack returns it,
    of_fields holds its Python floats).
    """
    kind: str
    factors: tuple

    @classmethod
    def stack(cls, kind, params):
        if any(p.kind != kind for p in params):
            raise InvariantViolation(f"expected {kind} params, got {[p.kind for p in params]}")
        if len(params) == 1:
            return params[0]
        return cls.of_fields(kind, [[factor_fields(f) for f in p.factors] for p in params])

    @classmethod
    def of_fields(cls, kind, sets):
        """The lanes of sets, each a sequence of one (nu0, theta, kappa,
        omega, rho) tuple per model factor."""
        if len(sets) == 1:
            return cls(kind, tuple(Factor(*f) for f in sets[0]))
        return cls(kind, tuple(
            Factor(*(v.reshape(-1, 1, 1) for v in np.array(rows).T.copy()))
            for rows in zip(*sets)))


@dataclass(frozen=True)
class JumpParams:
    lam: float      # jump intensity per year
    khat: float     # mean-jump parameter, 1 + khat > 0
    delta: float    # jump volatility

    def __post_init__(self):
        if self.lam < 0.0 or self.delta < 0.0 or 1.0 + self.khat <= 0.0:
            raise InvariantViolation(f"bad jump parameters {self}")


@dataclass
class CFTerms:
    """One factor's terms of the affine exponent, A + B nu0 (+ C nu0^2)."""
    A: complex
    B: complex
    C: complex = 0.0 + 0.0j


# ---------------------------------------------------------------------------
# complex helpers
# ---------------------------------------------------------------------------

def _sq(v):
    """v ** 2 as Python evaluates it for a float (C pow), lane by lane for an
    array: numpy's array ** 2 is v * v, which differs from pow in the last
    bit for about one value in a thousand."""
    if isinstance(v, np.ndarray):
        return np.array([x ** 2 for x in v.ravel().tolist()]).reshape(v.shape)
    return v ** 2


def _log1p_over(w):
    """log(1 + w) / w for complex w, stable as w -> 0 (value 1).

    Nodes with |w| < 1e-2 take the 7-term series 1 - w/2 + ... + w^6/7 in
    Horner form; its truncation bounds the error by 8 ulp of the result.
    The other nodes take log(1 + w) from real float64 ufuncs: the real part
    is 0.5 log1p(|1 + w|^2 - 1) with |1 + w|^2 - 1 formed from w, so 1 + w is
    never rounded, or log|1 + w| where that form cancels (|1 + w|^2 <= 1/2)
    or overflows; the imaginary part is arctan2.  That branch is within 4
    ulp of the result.  An ulp here is 2^-52 times the exact modulus.
    Each branch runs on its own nodes only, element by element: a node's
    bits do not depend on the array it sits in.
    """
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-2
    big = ~small
    out = np.empty_like(w)
    s = w[small]
    r = 1.0 / 7.0
    for c in (-1.0 / 6.0, 1.0 / 5.0, -1.0 / 4.0, 1.0 / 3.0, -1.0 / 2.0, 1.0):
        # not in place: numpy's in-place complex product of a 1-element
        # array skips the SIMD (FMA) kernel and rounds differently
        r = c + s * r
    out[small] = r
    b = w[big]
    br, bi = b.real, b.imag
    xr = 1.0 + br
    with np.errstate(over="ignore"):
        t = br * (2.0 + br) + bi * bi    # |1 + b|^2 - 1; inf once |b| > 1e154
    log_b = np.empty_like(b)
    log_b.real = 0.5 * np.log1p(np.maximum(t, -0.5))
    near = ~((t > -0.5) & (t < np.inf))
    if near.any():
        log_b.real[near] = np.log(np.hypot(xr[near], bi[near]))
    log_b.imag = np.arctan2(bi, xr)
    out[big] = log_b / b
    return out


def _exp_checked(expo):
    """exp of the affine exponent; overflow raises instead of clamping."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        phi = np.exp(expo)
    if not np.all(np.isfinite(phi)):
        raise NumericOverflow("characteristic function overflowed; reduce |u|*tau")
    return phi


# ---------------------------------------------------------------------------
# Heston / Bates-factor terms (CIR variance)
# ---------------------------------------------------------------------------

def heston_terms(u, tau, p):
    """A, B of the CIR-variance exponent, G-form with exp(-d tau); each
    factor free of tau is formed before it meets tau, each product once."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a = -0.5
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = p.kappa - p.rho * p.omega * iu
    d = np.sqrt(beta * beta - om2 * X)   # IEEE csqrt: the principal root, Re d >= +0
    bpd = beta + d
    bpd2 = bpd * bpd
    G = om2 * X / bpd2                   # (beta - d) / (beta + d), cancellation-free
    X_bpd = X / bpd
    kt = p.kappa * p.theta
    E = np.exp(-d * tau)
    one_m_e = 1.0 - E
    B = X_bpd * one_m_e / (1.0 - G * E)
    ratio = one_m_e / (1.0 - G)
    # kappa theta 2 log((1 - G E)/(1 - G)) / omega^2, G/omega^2 = X/bpd^2 kept exact
    log_term = kt * (2.0 * X / bpd2) * ratio * _log1p_over(G * ratio)
    return CFTerms(A=kt * X_bpd * tau - log_term, B=B)


# ---------------------------------------------------------------------------
# Schobel-Zhu / OUOU-factor terms (OU volatility)
# ---------------------------------------------------------------------------

def sz_terms(u, tau, p):
    """A, B, C of the OU-volatility exponent.

    The theta-dependent part of A takes the compact closed form, with fewer
    operations than the algebraically equal form of Lord and Kahl.
    """
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a = -0.5
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = 2.0 * (p.kappa - 1j * p.omega * p.rho * u)
    d = np.sqrt(beta * beta - 4.0 * om2 * X)   # the principal root, Re d >= +0
    bpd = beta + d
    bmd = 4.0 * om2 * X / bpd            # beta - d, cancellation-free
    G = bmd / bpd
    X4_bpd = 4.0 * X / bpd
    kt = p.kappa * p.theta
    Eh = np.exp(-0.5 * d * tau)
    E = Eh * Eh
    one_m_e = 1.0 - E
    denom = 1.0 - G * E
    d_denom = d * denom
    C = (X / bpd) * one_m_e / denom
    B = kt * X4_bpd * (1.0 - Eh) ** 2 / d_denom
    w = G * (one_m_e / (1.0 - G))
    log_ratio = w * _log1p_over(w)       # log((1 - G E)/(1 - G))
    inner = (0.5 * bpd * tau
             + (4.0 * beta * Eh - (2.0 * beta - d) * E - (2.0 * beta + d)) / d_denom)
    A = 0.25 * bmd * tau - 0.5 * log_ratio + _sq(kt) * X4_bpd / (d * d) * inner
    return CFTerms(A=A, B=B, C=C)


# each model's factor terms; an OU-volatility factor's exponent is quadratic
# in its nu0
_FACTOR_TERMS = {"heston": heston_terms, "bates2f": heston_terms,
                 "sz": sz_terms, "ouou": sz_terms}


def model_params(kind, factors):
    """Model kind's parameter set from its factors, each a sequence
    (nu0, theta, kappa, omega, rho): one factor for heston and sz, two for
    bates2f and ouou."""
    if kind not in _PARAMS or len(factors) != factor_count(kind):
        raise InvariantViolation(f"no {kind!r} parameter set has {len(factors)} factor(s)")
    if _PARAMS[kind] is TwoFactorParams:
        return TwoFactorParams(kind, Factor(*factors[0]), Factor(*factors[1]))
    return _PARAMS[kind](*factors[0])


def factor_count(kind):
    """How many factors model kind's parameter sets hold."""
    return 2 if _PARAMS[kind] is TwoFactorParams else 1


def variance_factors(kind):
    """Whether model kind's factors are CIR variances, which the Feller
    condition bounds (OU volatilities have no such bound)."""
    return _FACTOR_TERMS[kind] is heston_terms


# ---------------------------------------------------------------------------
# the CF of every model
# ---------------------------------------------------------------------------

def bates_jump_multiplier(u, tau, jp):
    """Compound-Poisson log-normal jump factor multiplying any base CF.

    The jump exponent is a function of i*u: at u = -i it is exactly 1, so
    the compensated drift keeps the martingale property of the base CF.
    """
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    log1k = np.log1p(jp.khat)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        inner = np.exp(iu * log1k + jp.delta ** 2 * (-0.5 * iu + 0.5 * iu * iu))
        expo = jp.lam * tau * (inner - 1.0) - jp.lam * jp.khat * iu * tau
    return _exp_checked(expo)


def cf_factory(kind, params, jump=None):
    """Bind a model to a closure cf(u, tau): the CF of log(S_T / F_T).

    params is one parameter set of the model, or ParamLanes of it (then tau
    carries the leading lane axis); jump applies to every lane.
    """
    if params.kind != kind:
        raise InvariantViolation(f"expected {kind} params, got {params.kind}")
    terms = _FACTOR_TERMS[kind]
    quadratic = terms is sz_terms
    factors = params.factors

    def cf(u, tau):
        u = np.asarray(u, dtype=complex)
        parts = []
        for f in factors:
            t = terms(u, tau, f)
            e = t.A + t.B * f.nu0
            parts.append(e + t.C * _sq(f.nu0) if quadratic else e)
        phi = _exp_checked(sum(parts[1:], parts[0]))
        if jump is not None:
            phi = phi * bates_jump_multiplier(u, tau, jump)
        return phi

    return cf
