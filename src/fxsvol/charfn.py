"""Closed-form characteristic functions of log-price for four models.

Heston and Bates two-factor use the variance-process (CIR) solution in the
G-form of Albrecher et al., which keeps the complex log away from its branch
cut for all maturities.  Schobel-Zhu and OUOU use the volatility-process (OU)
solution whose exponent is affine in (1, nu0, nu0^2).

All functions accept complex u (scalars or numpy arrays).  tau, r_d and r_f
may be scalars or (T, 1) column arrays, one row per maturity; the result
then has shape (T, len(u)), and each row equals a scalar-tau call bit for
bit.  Every CF built by cf_factory has the signature
cf(u, x0, tau, r_d, r_f, j), and the pricers call nothing else.

Lanes: ParamLanes.stack(kind, [p_1, ..., p_L]) stacks L parameter sets of
one model into one Factor per model factor whose fields are (L, 1, 1)
arrays, and cf_factory accepts it in place of one parameter set.  With x0
an (L, 1, 1) array and tau, r_d, r_f (L, T, 1) arrays (lane l holding the
surface p_l is priced on), the CF returns (L, T, len(u)) and lane l equals
the scalar-parameter call on that surface bit for bit: every lane does the
scalar's IEEE operations in the scalar's order, and squares of parameters
go through _sq, the C pow that Python's float ** uses.

The difference beta - d is always evaluated as omega^2 * X / (beta + d) (X
the Riccati constant term), which is exact and avoids the catastrophic
cancellation of the literal subtraction in the vol-of-vol -> 0 limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericOverflow, StepUnderflow


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HestonParams:
    """CIR-variance model: nu0/theta are variances (per annum)."""
    nu0: float
    theta: float
    kappa: float
    omega: float
    rho: float
    eta: float = 0.0  # variance risk premium; identically 0 in risk-neutral calibration

    def __post_init__(self):
        if min(self.nu0, self.theta, self.kappa, self.omega) <= 0.0:
            raise InvariantViolation(f"nu0, theta, kappa, omega must be > 0: {self}")
        if abs(self.rho) >= 1.0:
            raise InvariantViolation(f"|rho| must be < 1: {self.rho}")

    def feller_satisfied(self):
        return 2.0 * self.kappa * self.theta - self.omega ** 2 > 0.0


@dataclass(frozen=True)
class SchobelZhuParams:
    """OU-volatility model: nu0/theta are volatilities."""
    nu0: float
    theta: float
    kappa: float
    omega: float
    rho: float
    eta: float = 0.0

    def __post_init__(self):
        if min(self.nu0, self.kappa, self.omega) <= 0.0:
            raise InvariantViolation(f"nu0, kappa, omega must be > 0: {self}")
        if self.theta < 0.0:
            raise InvariantViolation(f"theta must be >= 0: {self.theta}")
        if abs(self.rho) >= 1.0:
            raise InvariantViolation(f"|rho| must be < 1: {self.rho}")

    def feller_satisfied(self):
        return True  # an OU volatility has no positivity constraint


@dataclass(frozen=True)
class Factor:
    """One variance/volatility factor of a two-factor model."""
    nu0: float
    theta: float
    kappa: float
    omega: float
    rho: float
    eta: float = 0.0


@dataclass(frozen=True)
class TwoFactorParams:
    kind: str  # "bates2f" | "ouou"
    f1: Factor
    f2: Factor

    def __post_init__(self):
        if self.kind not in ("bates2f", "ouou"):
            raise InvariantViolation(f"unknown two-factor kind {self.kind!r}")
        for f in (self.f1, self.f2):
            if min(f.nu0, f.kappa, f.omega) <= 0.0:
                raise InvariantViolation(f"factor fields must be > 0: {f}")
            if f.theta < 0.0 or (self.kind == "bates2f" and f.theta <= 0.0):
                raise InvariantViolation(f"bad theta in factor {f}")
            if abs(f.rho) >= 1.0:
                raise InvariantViolation(f"|rho| must be < 1: {f.rho}")

    @property
    def factors(self):
        return (self.f1, self.f2)

    def feller_satisfied(self):
        if self.kind == "ouou":
            return True  # OU volatility factors have no positivity constraint
        return all(2.0 * f.kappa * f.theta - f.omega ** 2 > 0.0 for f in self.factors)


_FACTOR_FIELDS = ("nu0", "theta", "kappa", "omega", "rho", "eta")


@dataclass(frozen=True)
class ParamLanes:
    """L parameter sets of one model stacked as lanes of one CF call.

    factors holds one Factor per model factor (one for heston and sz, two
    for bates2f and ouou) whose fields are (L, 1, 1) arrays, lane l holding
    the l-th set.  The sets were validated when they were built.
    """
    kind: str
    factors: tuple

    @classmethod
    def stack(cls, kind, params):
        sets = [p.factors if kind in ("bates2f", "ouou") else (p,) for p in params]
        factors = tuple(
            Factor(*(np.array([getattr(fs[k], name) for fs in sets]).reshape(-1, 1, 1)
                     for name in _FACTOR_FIELDS))
            for k in range(len(sets[0])))
        return cls(kind, factors)


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
    """Affine-exponent terms: phi = exp(i u x0 + A + B nu0 (+ C nu0^2))."""
    A: complex
    B: complex
    C: complex = 0.0 + 0.0j


# ---------------------------------------------------------------------------
# complex helpers
# ---------------------------------------------------------------------------

def _aj_bj(j, kappa, omega, rho, eta):
    if j == 1:
        return 0.5, kappa + eta - omega * rho
    if j == 2:
        return -0.5, kappa + eta
    raise InvariantViolation(f"j must be 1 or 2, got {j!r}")


def _sq(v):
    """v ** 2 as Python evaluates it for a float (C pow), lane by lane for an
    array: numpy's array ** 2 is v * v, which differs from pow in the last
    bit for about one value in a thousand."""
    if isinstance(v, np.ndarray):
        return np.array([x ** 2 for x in v.ravel().tolist()]).reshape(v.shape)
    return v ** 2


def _log1p_over(w):
    """log(1 + w) / w for complex w, stable as w -> 0 (value 1).

    Nodes with |w| < 1e-2 take the 7-term series and the rest the complex
    log; each branch is evaluated on its own nodes only.
    """
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-2
    big = ~small
    out = np.empty_like(w)
    s = w[small]
    out[small] = (1.0 - s / 2.0 + s ** 2 / 3.0 - s ** 3 / 4.0
                  + s ** 4 / 5.0 - s ** 5 / 6.0 + s ** 6 / 7.0)
    b = w[big]
    out[big] = np.log(1.0 + b) / b
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

def heston_terms(u, tau, p, j=2, r_d=0.0, r_f=0.0, drift_weight=1.0):
    """A, B of the CIR-variance exponent, G-form with exp(-d tau)."""
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = _aj_bj(j, p.kappa, p.omega, p.rho, p.eta)
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = b - p.rho * p.omega * iu
    d = np.sqrt(beta * beta - om2 * X)   # IEEE csqrt: the principal root, Re d >= +0
    bpd = beta + d
    bpd2 = bpd * bpd
    G = om2 * X / bpd2                   # (beta - d) / (beta + d), cancellation-free
    E = np.exp(-d * tau)
    one_m_e = 1.0 - E
    one_m_g = 1.0 - G
    denom = 1.0 - G * E
    B = (X / bpd) * one_m_e / denom
    w = G * one_m_e / one_m_g
    # log((1 - G E)/(1 - G)) / omega^2, with G/omega^2 = X/bpd^2 kept exact
    log_ratio_over_om2 = (X / bpd2) * (one_m_e / one_m_g) * _log1p_over(w)
    A = (drift_weight * (r_d - r_f) * iu * tau
         + p.kappa * p.theta * (X * tau / bpd - 2.0 * log_ratio_over_om2))
    return CFTerms(A=A, B=B)


def heston_cf(u, x0, tau, r_d, r_f, p, j=2):
    """phi_j(u) = exp(i u x0 + A + B nu0) for the CIR-variance model."""
    t = heston_terms(u, tau, p, j=j, r_d=r_d, r_f=r_f)
    return _exp_checked(1j * np.asarray(u, dtype=complex) * x0 + t.A + t.B * p.nu0)


# ---------------------------------------------------------------------------
# Schobel-Zhu / OUOU-factor terms (OU volatility)
# ---------------------------------------------------------------------------

def sz_terms(u, tau, p, j=2, r_d=0.0, r_f=0.0, drift_weight=1.0):
    """A, B, C of the OU-volatility exponent.

    The theta-dependent part of A takes the compact closed form, with fewer
    operations than the algebraically equal form of Lord and Kahl.
    """
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a, b = _aj_bj(j, p.kappa, p.omega, p.rho, p.eta)
    om2 = _sq(p.omega)
    X = 2.0 * a * iu - u * u
    beta = 2.0 * (b - 1j * p.omega * p.rho * u)
    d = np.sqrt(beta * beta - 4.0 * om2 * X)   # the principal root, Re d >= +0
    bpd = beta + d
    bmd = 4.0 * om2 * X / bpd            # beta - d, cancellation-free
    G = bmd / bpd
    E = np.exp(-d * tau)
    Eh = np.exp(-0.5 * d * tau)
    denom = 1.0 - G * E
    C = (X / bpd) * (1.0 - E) / denom
    B = p.kappa * p.theta * (4.0 * X / bpd) * (1.0 - Eh) ** 2 / (d * denom)
    w = G * (1.0 - E) / (1.0 - G)
    log_ratio = w * _log1p_over(w)       # log((1 - G E)/(1 - G))
    A_tilde = (drift_weight * (r_d - r_f) * iu * tau
               + 0.25 * bmd * tau - 0.5 * log_ratio)
    inner = (0.5 * tau * bpd
             + (4.0 * beta * Eh - (2.0 * beta - d) * E - 2.0 * beta - d)
             / (d * denom))
    A_hat = _sq(p.kappa * p.theta) * (4.0 * X / bpd) / (d * d) * inner
    return CFTerms(A=A_tilde + A_hat, B=B, C=C)


def sz_cf(u, x0, tau, r_d, r_f, p, j=2):
    """phi_j(u) = exp(i u x0 + A + B nu0 + C nu0^2) for the OU-vol model."""
    t = sz_terms(u, tau, p, j=j, r_d=r_d, r_f=r_f)
    return _exp_checked(1j * np.asarray(u, dtype=complex) * x0
                        + t.A + t.B * p.nu0 + t.C * _sq(p.nu0))


# ---------------------------------------------------------------------------
# two-factor models
# ---------------------------------------------------------------------------

def bates2f_cf(u, x0, tau, r_d, r_f, p, j=2):
    """Two independent CIR variance factors; each A_k carries half the drift."""
    if p.kind != "bates2f":
        raise InvariantViolation(f"expected bates2f params, got {p.kind}")
    expo = 1j * np.asarray(u, dtype=complex) * x0
    for f in p.factors:
        t = heston_terms(u, tau, f, j=j, r_d=r_d, r_f=r_f, drift_weight=0.5)
        expo = expo + t.A + t.B * f.nu0
    return _exp_checked(expo)


def ouou_cf(u, x0, tau, r_d, r_f, p, j=2):
    """Two independent OU volatility factors; each A_k carries half the drift."""
    if p.kind != "ouou":
        raise InvariantViolation(f"expected ouou params, got {p.kind}")
    expo = 1j * np.asarray(u, dtype=complex) * x0
    for f in p.factors:
        t = sz_terms(u, tau, f, j=j, r_d=r_d, r_f=r_f, drift_weight=0.5)
        expo = expo + t.A + t.B * f.nu0 + t.C * _sq(f.nu0)
    return _exp_checked(expo)


def bates_jump_multiplier(u, tau, jp, j=2):
    """Compound-Poisson log-normal jump factor multiplying any base CF.

    The jump exponent is a function of i*u: at u = -i (j = 2) it is exactly 1,
    so the compensated drift keeps the martingale property of the base CF.
    """
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    a = 0.5 if j == 1 else -0.5
    log1k = np.log1p(jp.khat)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        inner = np.exp(iu * log1k + jp.delta ** 2 * (a * iu + 0.5 * iu * iu))
        expo = (jp.lam * tau * (1.0 + jp.khat) ** (a + 0.5) * (inner - 1.0)
                - jp.lam * jp.khat * iu * tau)
    return _exp_checked(expo)


def cf_factory(kind, params, jump=None):
    """Bind a model to a closure cf(u, x0, tau, r_d, r_f, j=2).

    params is one parameter set, or ParamLanes of the model (then x0, tau,
    r_d and r_f carry the leading lane axis); jump applies to every lane.
    """
    if isinstance(params, ParamLanes) and kind in ("heston", "sz"):
        params = params.factors[0]
    base = {
        "heston": heston_cf,
        "sz": sz_cf,
        "bates2f": bates2f_cf,
        "ouou": ouou_cf,
    }[kind]

    def cf(u, x0, tau, r_d, r_f, j=2):
        phi = base(u, x0, tau, r_d, r_f, params, j=j)
        if jump is not None:
            phi = phi * bates_jump_multiplier(u, tau, jump, j=j)
        return phi

    return cf


# ---------------------------------------------------------------------------
# numeric oracle: fixed-step RK4 on the term ODEs
# ---------------------------------------------------------------------------

def ode_oracle_terms(model, u, tau, params, j=2, r_d=0.0, r_f=0.0,
                     steps=2000, drift_weight=1.0):
    """Integrate the exponent ODE system numerically for testing.

    model "heston": dA = w (r_d - r_f) iu + B kappa theta,
                    dB = a iu - u^2/2 + (rho omega iu - b) B + omega^2 B^2 / 2.
    model "sz":     dA = w (r_d - r_f) iu + B kappa theta + omega^2 B^2/2 + omega^2 C,
                    dB = -b B + rho omega iu B + 2 omega^2 B C + 2 kappa theta C,
                    dC = -2 b C + 2 rho omega iu C + a iu - u^2/2 + 2 omega^2 C^2.

    Two-factor models are two independent one-factor systems with
    drift_weight = 1/2; call once per factor.
    """
    if steps < 1000:
        raise StepUnderflow(f"need >= 1000 steps, got {steps}")
    u, tau_arr = np.broadcast_arrays(np.asarray(u, dtype=complex),
                                     np.asarray(tau, dtype=float))
    u = u.astype(complex)
    a, b = _aj_bj(j, params.kappa, params.omega, params.rho, params.eta)
    iu = 1j * u
    om2 = params.omega ** 2
    kt = params.kappa * params.theta
    drift = drift_weight * (r_d - r_f) * iu
    const = a * iu - 0.5 * u * u
    lin_b = params.rho * params.omega * iu - b

    if model == "heston":
        def deriv(A, B, C):
            return (drift + kt * B,
                    const + lin_b * B + 0.5 * om2 * B * B,
                    np.zeros_like(A))
    elif model == "sz":
        def deriv(A, B, C):
            return (drift + kt * B + 0.5 * om2 * B * B + om2 * C,
                    lin_b * B + 2.0 * om2 * B * C + 2.0 * kt * C,
                    const + 2.0 * lin_b * C + 2.0 * om2 * C * C)
    else:
        raise InvariantViolation(f"unknown oracle model {model!r}")

    A = np.zeros_like(u)
    B = np.zeros_like(u)
    C = np.zeros_like(u)
    h = tau_arr / steps
    for _ in range(steps):
        k1 = deriv(A, B, C)
        k2 = deriv(A + 0.5 * h * k1[0], B + 0.5 * h * k1[1], C + 0.5 * h * k1[2])
        k3 = deriv(A + 0.5 * h * k2[0], B + 0.5 * h * k2[1], C + 0.5 * h * k2[2])
        k4 = deriv(A + h * k3[0], B + h * k3[1], C + h * k3[2])
        A = A + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        B = B + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        C = C + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return CFTerms(A=A, B=B, C=C)
