import cmath
import dataclasses
import math
import types
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fxsvol import charfn
from fxsvol.calibrate import LANES_PER_BLOCK
from fxsvol.charfn import (
    Factor,
    HestonParams,
    JumpParams,
    ParamLanes,
    SchobelZhuParams,
    TwoFactorParams,
    _exp_checked,
    _log1p_over,
    _sq,
    bates_jump_multiplier,
    cf_factory,
    heston_terms,
    sz_terms,
)
from fxsvol.errors import InvariantViolation
from fxsvol.market_data import PILLAR_DELTAS, strike_from_delta
from fxsvol.pricer import DEFAULT_GRID, AttariLanes, IntegrationGrid

from charfn_reference import (
    StepUnderflow,
    UnfoldedAttariLanes,
    bates2f_cf,
    heston_cf,
    lord_kahl_sz_cf,
    ode_oracle_terms,
    ouou_cf,
    reference_cf_factory,
    reference_heston_terms,
    reference_jump_multiplier,
    reference_log1p_over,
    reference_attari_calls,
    reference_principal_sqrt,
    sz_cf,
)
from conftest import draw_heston, term_vol

X0 = math.log(1.30)
TAU = 0.75
RD, RF = 0.012, 0.006
EPS = 2.0 ** -52

HP = HestonParams(nu0=0.0082, theta=0.0143, kappa=2.07, omega=0.30, rho=-0.38)
SP = SchobelZhuParams(nu0=0.09, theta=0.11, kappa=1.4, omega=0.15, rho=-0.38)
BP = TwoFactorParams("bates2f",
                     Factor(0.0041, 0.00715, 2.07, 0.30, -0.38),
                     Factor(0.0050, 0.00600, 1.10, 0.22, 0.10))
OP = TwoFactorParams("ouou",
                     Factor(0.06, 0.08, 1.2, 0.11, 0.65),
                     Factor(0.07, 0.05, 0.8, 0.22, -0.85))

# (kind, the model's drift-form CF before the one affine body, parameters);
# the old CF's name is in every test id, and TestOneAffineBody compares
# against it
ALL_MODELS = [
    ("heston", heston_cf, HP),
    ("sz", sz_cf, SP),
    ("bates2f", bates2f_cf, BP),
    ("ouou", ouou_cf, OP),
]


def _centred_taus():
    """A scalar tau, a (T, 1) column and a (2, T, 1) lane array."""
    col = np.array(TestTenorColumns.TAUS).reshape(-1, 1)
    return [TAU, col, np.stack([col, 1.01 * col])]


def _two_lanes(kind, params):
    """params stacked twice as the lanes of one CF call."""
    return ParamLanes.stack(kind, [params, params])


class TestBasicIdentities:
    """phi(0) = 1 and phi(-i) = E[S_T / F_T] = 1: exactly without jumps, for
    a scalar tau, a tenor column and lanes."""

    @pytest.mark.parametrize("name,old,params", ALL_MODELS)
    def test_phi_at_zero_is_one(self, name, old, params):
        for tau in _centred_taus():
            p = _two_lanes(name, params) if np.ndim(tau) == 3 else params
            val = cf_factory(name, p)(np.asarray(0.0j), tau)
            assert np.all(val == 1.0 + 0.0j)

    @pytest.mark.parametrize("name,old,params", ALL_MODELS)
    def test_martingale(self, name, old, params):
        for tau in _centred_taus():
            p = _two_lanes(name, params) if np.ndim(tau) == 3 else params
            val = cf_factory(name, p)(np.asarray(-1j), tau)
            assert np.all(val == 1.0 + 0.0j)

    @pytest.mark.parametrize("name,old,params", ALL_MODELS)
    def test_hermitian_symmetry(self, name, old, params):
        cf = cf_factory(name, params)
        u = np.linspace(0.05, 120.0, 60).astype(complex)
        left = cf(-u, TAU)
        right = np.conj(cf(u, TAU))
        assert np.max(np.abs(left - right)) < 1e-13

    @pytest.mark.parametrize("name,old,params", ALL_MODELS)
    def test_modulus_bounded_by_one(self, name, old, params):
        u = np.linspace(0.01, 148.0, 400).astype(complex)
        assert np.max(np.abs(cf_factory(name, params)(u, TAU))) <= 1.0 + 1e-12

    def test_boundary_terms_vanish_at_tau_zero(self):
        t = heston_terms(np.asarray(1.3 + 0j), 0.0, HP)
        assert complex(t.A) == 0.0 and complex(t.B) == 0.0
        t = sz_terms(np.asarray(1.3 + 0j), 0.0, SP)
        assert abs(complex(t.A)) < 1e-15
        assert complex(t.B) == 0.0 and complex(t.C) == 0.0

    def test_continuity_of_A_in_tau(self, rng):
        # no branch-cut jumps along tau in (0, 5] at 1e-3 steps
        taus = np.arange(1e-3, 5.0, 1e-3)
        for _ in range(5):
            p = HestonParams(nu0=rng.uniform(0.004, 0.04),
                             theta=rng.uniform(0.005, 0.04),
                             kappa=rng.uniform(0.5, 5.0),
                             omega=rng.uniform(0.1, 0.8),
                             rho=rng.uniform(-0.8, 0.2))
            u = complex(rng.uniform(5.0, 60.0), 0.0)
            A = heston_terms(np.full_like(taus, u, dtype=complex), taus, p).A
            steps = np.abs(np.diff(A))
            assert steps.max() < 0.05  # smooth: no 2*pi-scale log jumps


class TestDegenerateLimits:
    def test_black_scholes_limit(self):
        # omega -> 0 with nu0 = theta collapses to a constant-vol lognormal
        p = HestonParams(nu0=0.04, theta=0.04, kappa=2.0, omega=1e-6, rho=0.0)
        u = np.array([0.5, 1.0, 3.0, 10.0, 50.0, 148.0], dtype=complex)
        bs = np.exp(1j * u * -0.02 * TAU - u * u * 0.04 * TAU / 2.0)
        val = cf_factory("heston", p)(u, TAU)
        assert np.max(np.abs(val - bs) / np.abs(bs)) < 1e-6


class TestModelNesting:
    def test_sz_theta_zero_equals_mapped_heston(self):
        sp = SchobelZhuParams(nu0=0.1, theta=0.0, kappa=1.0, omega=0.2, rho=-0.4)
        hp = HestonParams(nu0=sp.nu0 ** 2, theta=sp.omega ** 2 / (2 * sp.kappa),
                          kappa=2 * sp.kappa, omega=2 * sp.omega, rho=sp.rho)
        u = np.array([0.3, 1.0, 2.5, 7.0, 20.0, 80.0], dtype=complex)
        a = cf_factory("sz", sp)(u, TAU)
        b = cf_factory("heston", hp)(u, TAU)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_symmetric_bates2f_equals_heston(self):
        f = Factor(HP.nu0 / 2, HP.theta / 2, HP.kappa, HP.omega, HP.rho)
        bp = TwoFactorParams("bates2f", f, f)
        u = np.array([0.3, 1.0, 2.5, 7.0, 20.0, 80.0], dtype=complex)
        a = cf_factory("bates2f", bp)(u, TAU)
        b = cf_factory("heston", HP)(u, TAU)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_bates2f_degenerate_second_factor_approaches_heston(self):
        f2 = Factor(1e-8, 1e-8, 2.0, 1e-8, 0.0)
        bp = TwoFactorParams("bates2f", Factor(HP.nu0, HP.theta, HP.kappa,
                                               HP.omega, HP.rho), f2)
        u = np.array([0.5, 2.0, 10.0], dtype=complex)
        a = cf_factory("bates2f", bp)(u, TAU)
        b = cf_factory("heston", HP)(u, TAU)
        # residual is O(nu0_2 u^2) from the vanishing factor's B term
        assert np.max(np.abs(a - b)) < 1e-6

    def test_ouou_theta_zero_equals_mapped_bates2f(self):
        f1 = Factor(0.09, 0.0, 1.2, 0.15, 0.89)
        f2 = Factor(0.07, 0.0, 0.8, 0.22, -0.85)
        op = TwoFactorParams("ouou", f1, f2)

        def mapped(f):
            return Factor(f.nu0 ** 2, f.omega ** 2 / (2 * f.kappa), 2 * f.kappa,
                          2 * f.omega, f.rho)

        bp = TwoFactorParams("bates2f", mapped(f1), mapped(f2))
        u = np.array([0.3, 1.0, 2.5, 7.0, 20.0], dtype=complex)
        a = cf_factory("ouou", op)(u, TAU)
        b = cf_factory("bates2f", bp)(u, TAU)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_sz_ahat_variants_agree(self):
        # sz_terms' compact A-hat against the Lord-Kahl form (charfn_reference),
        # which is drift-form: at x0 = 0 and zero rates it is centred
        u = np.array([0.3, 1.0, 2.5, 7.0, 20.0, 60.0], dtype=complex)
        a = cf_factory("sz", SP)(u, TAU)
        b = lord_kahl_sz_cf(u, 0.0, TAU, 0.0, 0.0, SP)
        assert np.max(np.abs(a - b)) < 1e-12


class TestJumpMultiplier:
    def test_no_jumps(self):
        jp = JumpParams(lam=0.0, khat=-0.02, delta=0.1)
        assert complex(bates_jump_multiplier(np.asarray(1.0 + 0j), 1.0, jp)) == 1.0

    def test_tau_zero(self):
        jp = JumpParams(lam=0.5, khat=-0.02, delta=0.1)
        assert complex(bates_jump_multiplier(np.asarray(1.0 + 0j), 0.0, jp)) == 1.0

    def test_expression_oracle(self):
        # independent evaluation of the exponent with cmath
        lam, khat, delta, tau = 0.5, -0.02, 0.1, 1.0
        u = 1.0 + 0.0j
        iu = 1j * u
        a = -0.5
        expo = (lam * tau * (1 + khat) ** (a + 0.5)
                * ((1 + khat) ** iu * cmath.exp(delta ** 2 * (a * iu + iu * iu / 2))
                   - 1)
                - lam * khat * iu * tau)
        expected = cmath.exp(expo)
        got = complex(bates_jump_multiplier(np.asarray(u), tau,
                                            JumpParams(lam, khat, delta)))
        assert abs(got - expected) < 1e-15

    def test_martingale_preserved(self):
        # the compensated jump exponent at u = -i is lam tau (e^log1p(khat) - 1
        # - khat): zero but for rounding, within 4 lam tau ulp, and the CF is
        # within one more ulp of 1
        for lam, khat, delta in [(0.8, -0.05, 0.15), (3.0, 0.3, 0.5), (0.1, -0.3, 0.01)]:
            jp = JumpParams(lam=lam, khat=khat, delta=delta)
            for kind, _, params in ALL_MODELS:
                for tau in (1 / 52, TAU, 5.0, np.array(TestTenorColumns.TAUS)[:, None]):
                    val = cf_factory(kind, params, jump=jp)(np.asarray(-1j), tau)
                    assert np.all(np.abs(val - 1.0) <= EPS * (1.0 + 4.0 * lam * np.asarray(tau)))


class TestOdeOracle:
    def test_step_underflow(self):
        with pytest.raises(StepUnderflow):
            ode_oracle_terms("heston", np.asarray(1.0 + 0j), 1.0, HP, steps=999)

    def test_tau_zero_gives_zero_terms(self):
        t = ode_oracle_terms("heston", np.asarray(1.0 + 0j), 0.0, HP, steps=1000)
        assert complex(t.A) == 0.0 and complex(t.B) == 0.0

    def test_heston_terms_match(self):
        u, tau = 1.0 + 0.0j, 1.0
        ct = heston_terms(np.asarray(u), tau, HP)
        ot = ode_oracle_terms("heston", np.asarray(u), tau, HP, steps=2000)
        assert abs(complex(ct.A) - complex(ot.A)) < 1e-8
        assert abs(complex(ct.B) - complex(ot.B)) < 1e-8

    def test_sz_terms_match(self):
        u, tau = 2.0 + 0.0j, 0.5
        ct = sz_terms(np.asarray(u), tau, SP)
        ot = ode_oracle_terms("sz", np.asarray(u), tau, SP, steps=2000)
        for name in ("A", "B", "C"):
            assert abs(complex(getattr(ct, name)) - complex(getattr(ot, name))) < 1e-8

    def test_two_factor_oracle_drift_weight(self):
        # a two-factor model's factor terms are the drift-form factor's less
        # its half share of the drift
        f = BP.f1
        hp = HestonParams(f.nu0, f.theta, f.kappa, f.omega, f.rho)
        u, tau = 1.5 + 0j, 0.8
        ct = heston_terms(np.asarray(u), tau, hp)
        ot = ode_oracle_terms("heston", np.asarray(u), tau, hp,
                              r_d=RD, r_f=RF, steps=2000, drift_weight=0.5)
        drift = 0.5 * (RD - RF) * 1j * u * tau
        assert abs(complex(ct.A) + drift - complex(ot.A)) < 1e-8


class TestTenorColumns:
    """(T, 1) tau and rate columns give, row by row, the scalar calls' bits."""
    TAUS = [1 / 12, 2 / 12, 0.25, 0.5, 1.0, 2.0]
    R_DS = [0.010, 0.011, 0.012, 0.0125, 0.013, 0.015]
    R_FS = [0.004, 0.005, 0.006, 0.0065, 0.007, 0.009]

    @pytest.mark.parametrize("kind,params", [(n, p) for n, _, p in ALL_MODELS],
                             ids=[n for n, _, _ in ALL_MODELS])
    @pytest.mark.parametrize("jump", [None, JumpParams(lam=0.8, khat=-0.05, delta=0.15)],
                             ids=["diffusion", "jumps"])
    def test_column_equals_scalar_calls(self, kind, params, jump):
        from fxsvol.pricer import DEFAULT_GRID
        cf = cf_factory(kind, params, jump=jump)
        u = DEFAULT_GRID.nodes()[1].astype(complex)
        column = cf(u, np.asarray(self.TAUS).reshape(-1, 1))
        rows = [cf(u, t) for t in self.TAUS]
        assert column.shape == (len(self.TAUS), u.size)
        assert np.array_equal(column, np.array(rows))


class TestOverflowPolicy:
    def test_jump_multiplier_overflow_raises(self):
        # deep-imaginary moment probe explodes the jump exponent
        from fxsvol.errors import NumericOverflow
        jp = JumpParams(lam=1.0, khat=-0.02, delta=1.0)
        with pytest.raises(NumericOverflow):
            bates_jump_multiplier(np.asarray(-500.0j), 1.0, jp)


class TestValidation:
    def test_rejects_bad_rho(self):
        with pytest.raises(InvariantViolation):
            HestonParams(0.01, 0.01, 1.0, 0.3, -1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(InvariantViolation):
            HestonParams(0.0, 0.01, 1.0, 0.3, -0.4)
        with pytest.raises(InvariantViolation):
            SchobelZhuParams(0.1, -0.1, 1.0, 0.3, -0.4)

    def test_two_factor_kind_must_match(self):
        with pytest.raises(InvariantViolation):
            cf_factory("bates2f", OP)
        with pytest.raises(InvariantViolation):
            cf_factory("ouou", ParamLanes.stack("bates2f", [BP, BP]))

    def test_feller_flag(self):
        assert not HP.feller_satisfied()  # 2*2.07*0.0143 = 0.0592 < 0.09
        assert HestonParams(0.01, 0.02, 3.0, 0.3, -0.4).feller_satisfied()

    def test_feller_flag_ou_volatility_models(self):
        # the bound is for CIR variances; OU volatilities never violate it
        assert SP.feller_satisfied()
        tight = Factor(0.06, 0.02, 0.8, 0.3, -0.5)  # 2*0.8*0.02 = 0.032 < 0.09
        assert TwoFactorParams("ouou", tight, OP.f2).feller_satisfied()
        assert not TwoFactorParams("bates2f", tight, BP.f2).feller_satisfied()

    @pytest.mark.parametrize("kind,params", [(k, p) for k, _, p in ALL_MODELS],
                             ids=[k for k, _, _ in ALL_MODELS])
    @pytest.mark.parametrize("other", ["heston", "sz", "bates2f", "ouou"])
    def test_cf_factory_refuses_every_other_kind(self, kind, params, other):
        """A set, one-factor sets included, or its lanes, builds only its own
        kind's CF."""
        if other == kind:
            cf_factory(other, params)
            return
        with pytest.raises(InvariantViolation, match=f"expected {other} params, got {kind}"):
            cf_factory(other, params)
        with pytest.raises(InvariantViolation):
            cf_factory(other, ParamLanes(kind, params.factors))

    @pytest.mark.parametrize("kind,sets", [("heston", [HP, SP]), ("sz", [SP, HP, SP]),
                                           ("bates2f", [BP, OP]), ("ouou", [OP, BP]),
                                           ("heston", [SP])],
                             ids=["heston-sz", "sz-heston", "bates2f-ouou", "ouou-bates2f",
                                  "one-set"])
    def test_stack_refuses_other_kinds(self, kind, sets):
        with pytest.raises(InvariantViolation, match=f"expected {kind} params"):
            ParamLanes.stack(kind, sets)

    def test_kind_is_not_a_field(self):
        """A one-factor set's kind is its class's: its fields, repr, equality
        and hash are its five numbers'."""
        assert (HP.kind, SP.kind, BP.kind, OP.kind) == ("heston", "sz", "bates2f", "ouou")
        assert [f.name for f in dataclasses.fields(HP)] == list(charfn._FACTOR_FIELDS)
        assert repr(HP) == ("HestonParams(nu0=0.0082, theta=0.0143, kappa=2.07, "
                            "omega=0.3, rho=-0.38)")
        assert dataclasses.asdict(SP) == dict(nu0=0.09, theta=0.11, kappa=1.4, omega=0.15,
                                              rho=-0.38)
        assert hash(HP) == hash((0.0082, 0.0143, 2.07, 0.30, -0.38))
        same = (0.09, 0.11, 1.4, 0.15, -0.38)
        assert SchobelZhuParams(*same) == SP != HestonParams(*same)
        assert dataclasses.replace(HP, nu0=0.01).kind == "heston"
        with pytest.raises(InvariantViolation, match="TwoFactorParams has no kind 'heston'"):
            TwoFactorParams("heston", BP.f1, BP.f2)


_BASE = (0.04, 0.05, 2.0, 0.3, -0.5)  # 2 kappa theta = 0.2 > omega^2 = 0.09
_JUST_ABOVE = math.nextafter(0.25, 1.0)

# factor fields -> the parent's per-class outcome for (heston, sz, bates2f,
# ouou): None where the set is rejected, else its feller_satisfied()
_RULE_TABLE = [
    ("base", _BASE, (True, True, True, True)),
    ("theta=0", (0.04, 0.0, 2.0, 0.3, -0.5), (None, True, None, True)),
    ("theta=-0", (0.04, -0.0, 2.0, 0.3, -0.5), (None, True, None, True)),
    ("theta<0", (0.04, -1e-12, 2.0, 0.3, -0.5), (None, None, None, None)),
    ("nu0=0", (0.0, 0.05, 2.0, 0.3, -0.5), (None, None, None, None)),
    ("kappa=0", (0.04, 0.05, 0.0, 0.3, -0.5), (None, None, None, None)),
    ("omega=0", (0.04, 0.05, 2.0, 0.0, -0.5), (None, None, None, None)),
    ("omega<0", (0.04, 0.05, 2.0, -0.3, -0.5), (None, None, None, None)),
    ("rho=1", (0.04, 0.05, 2.0, 0.3, 1.0), (None, None, None, None)),
    ("rho=-1", (0.04, 0.05, 2.0, 0.3, -1.0), (None, None, None, None)),
    ("rho<1", (0.04, 0.05, 2.0, 0.3, math.nextafter(1.0, 0.0)), (True, True, True, True)),
    ("feller-equal", (0.04, 0.25, 2.0, 1.0, -0.5), (False, True, False, True)),
    ("feller-above", (0.04, _JUST_ABOVE, 2.0, 1.0, -0.5), (True, True, True, True)),
    ("feller-below", (0.04, 0.05, 2.0, 0.5, -0.5), (False, True, False, True)),
]
_KINDS = ("heston", "sz", "bates2f", "ouou")


def _outcome(kind, factors):
    try:
        return charfn.model_params(kind, factors).feller_satisfied()
    except InvariantViolation:
        return None


def _factor_sets(kind, fields):
    """The sets of model kind that hold fields in one factor: the set itself
    for a one-factor model, else fields in either factor beside _BASE."""
    if kind in ("heston", "sz"):
        return [[fields]]
    return [[fields, _BASE], [_BASE, fields]]


def _parent_rule(kind, nu0, theta, kappa, omega, rho):
    """The outcome of one factor under the per-class rules the one rule
    replaced, written out: None if rejected, else its Feller flag."""
    if kind == "heston":
        if min(nu0, theta, kappa, omega) <= 0.0 or abs(rho) >= 1.0:
            return None
        return 2.0 * kappa * theta - omega ** 2 > 0.0
    if kind == "sz":
        if min(nu0, kappa, omega) <= 0.0 or theta < 0.0 or abs(rho) >= 1.0:
            return None
        return True
    if (min(nu0, kappa, omega) <= 0.0 or theta < 0.0
            or (kind == "bates2f" and theta <= 0.0) or abs(rho) >= 1.0):
        return None
    return kind == "ouou" or 2.0 * kappa * theta - omega ** 2 > 0.0


class TestOneRule:
    """One validation rule and one Feller rule for all four models, against
    the per-class rules they replaced."""

    @pytest.mark.parametrize("name,fields,want", _RULE_TABLE,
                             ids=[name for name, _, _ in _RULE_TABLE])
    @pytest.mark.parametrize("k", range(4), ids=_KINDS)
    def test_table(self, k, name, fields, want):
        kind = _KINDS[k]
        for factors in _factor_sets(kind, fields):
            assert _outcome(kind, factors) is want[k]
        assert _parent_rule(kind, *fields) is want[k]

    @given(kind=st.sampled_from(_KINDS),
           fields=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]),
                                        st.floats(-1.5, 1.5))] * 5))
    def test_random_fields(self, kind, fields):
        for factors in _factor_sets(kind, fields):
            assert _outcome(kind, factors) is _parent_rule(kind, *fields)


def _old_bates2f_cf(u, tau, p):
    """bates2f_cf as it was, drift-centred: a validated HestonParams per
    factor and call."""
    expo = []
    for f in p.factors:
        hp = HestonParams(f.nu0, f.theta, f.kappa, f.omega, f.rho)
        t = heston_terms(u, tau, hp)
        expo.append(t.A + t.B * f.nu0)
    return _exp_checked(expo[0] + expo[1])


def _old_ouou_cf(u, tau, p):
    """ouou_cf as it was, drift-centred: a validated SchobelZhuParams per
    factor and call."""
    expo = []
    for f in p.factors:
        sp = SchobelZhuParams(f.nu0, f.theta, f.kappa, f.omega, f.rho)
        t = sz_terms(u, tau, sp)
        expo.append(t.A + t.B * f.nu0 + t.C * f.nu0 ** 2)
    return _exp_checked(expo[0] + expo[1])


JUMP = JumpParams(lam=0.8, khat=-0.05, delta=0.15)


class TestTwoFactorFactors:
    """Each Factor goes straight to the one-factor terms, bit for bit the old
    per-call HestonParams/SchobelZhuParams route."""

    @pytest.mark.parametrize("kind,old,params", [("bates2f", _old_bates2f_cf, BP),
                                                 ("ouou", _old_ouou_cf, OP)],
                             ids=["bates2f", "ouou"])
    @pytest.mark.parametrize("jump", [None, JUMP], ids=["diffusion", "jumps"])
    def test_same_bits(self, kind, old, params, jump):
        u = np.linspace(-30.0, 30.0, 61) + 0.0j
        tau = np.asarray(TestTenorColumns.TAUS).reshape(-1, 1)
        want = old(u, tau, params)
        if jump is not None:
            want = want * bates_jump_multiplier(u, tau, jump)
        assert np.array_equal(cf_factory(kind, params, jump=jump)(u, tau), want)


def _draw(kind, rng):
    """A random parameter set of the model; nu0 and theta are variances
    (heston, bates2f) or volatilities (sz, ouou)."""
    level = 0.01 if kind in ("heston", "bates2f") else 0.1

    def fields():
        return (level * rng.uniform(0.2, 3.0), level * rng.uniform(0.2, 3.0),
                rng.uniform(0.2, 6.0), rng.uniform(0.05, 1.0), rng.uniform(-0.95, 0.95))

    if kind in ("bates2f", "ouou"):
        return TwoFactorParams(kind, Factor(*fields()), Factor(*fields()))
    return (HestonParams if kind == "heston" else SchobelZhuParams)(*fields())


# |drift-centred CF - drift-form CF x exp(-i u (x0 + carry))| on the pricing
# grid: the old form rounds the phase u (x0 + carry) twice, up to |u| |x0 +
# carry| 2^-52 ~ 1e-14 with |u| <= e^5 (measured: 5.7e-15); |phi| <= 1
CENTRED_CF_TOL = 1e-14


class TestOneAffineBody:
    """cf_factory's one loop over a model's factors gives the model's CF and
    the jump multiplier as they were (charfn_reference) times exp(-i u (x0 +
    carry)), which cancels their forward phase, within CENTRED_CF_TOL, for
    one parameter set and for lanes, on the pricing grid's nodes against
    tenor columns."""

    @pytest.mark.parametrize("kind,old,params", ALL_MODELS)
    @pytest.mark.parametrize("jump", [None, JUMP], ids=["diffusion", "jumps"])
    def test_same_bits(self, kind, old, params, jump):
        rng = np.random.default_rng(13)
        u = DEFAULT_GRID.nodes()[1].astype(complex)
        n, taus = 5, np.array(TestTenorColumns.TAUS)[:, None]
        for draw in range(12):
            sets = [params] + [_draw(kind, rng) for _ in range(n - 1)]
            x0 = X0 + rng.normal(0.0, 0.05, (n, 1, 1))
            tau = taus * rng.uniform(0.98, 1.02, (n, taus.size, 1))
            r_d, r_f = rng.uniform(0.0, 0.03, (2, n, taus.size, 1))
            shift = np.exp(-1j * u * (x0 + (r_d - r_f) * tau))
            for k, p in enumerate(sets):
                want = old(u, x0[k, 0, 0], tau[k], r_d[k], r_f[k], p) * shift[k]
                if jump is not None:
                    want = want * reference_jump_multiplier(u, tau[k], jump)
                got = cf_factory(kind, p, jump=jump)(u, tau[k])
                assert np.max(np.abs(got - want)) <= CENTRED_CF_TOL, (draw, k)
            lanes = ParamLanes.stack(kind, sets)
            want = reference_cf_factory(kind, lanes, jump=jump)(u, x0, tau, r_d, r_f) * shift
            got = cf_factory(kind, lanes, jump=jump)(u, tau)
            assert got.shape == (n, taus.size, u.size)
            assert np.max(np.abs(got - want)) <= CENTRED_CF_TOL, draw


def _scaled(kind, params, s):
    """params with every factor's positive fields scaled by s (rho kept)."""
    def f(x):
        return Factor(x.nu0 * s, x.theta * s, x.kappa * s, x.omega * s, x.rho)
    if kind in ("bates2f", "ouou"):
        return TwoFactorParams(kind, f(params.f1), f(params.f2))
    return type(params)(params.nu0 * s, params.theta * s, params.kappa * s,
                        params.omega * s, params.rho)


class TestParamLanes:
    """Lane-stacked parameters: lane l of one CF call is the scalar call of
    parameter set l on surface l, bit for bit."""

    @pytest.mark.parametrize("kind,params", [(n, p) for n, _, p in ALL_MODELS],
                             ids=[n for n, _, _ in ALL_MODELS])
    @pytest.mark.parametrize("jump", [None, JUMP], ids=["diffusion", "jumps"])
    def test_lanes_equal_scalar_calls(self, kind, params, jump):
        from fxsvol.pricer import DEFAULT_GRID
        u = DEFAULT_GRID.nodes()[1].astype(complex)
        sets = [_scaled(kind, params, s) for s in (0.8, 1.0, 1.13, 1.27, 0.91)]
        taus = np.array([[t * (1 + 0.01 * k) for t in TestTenorColumns.TAUS]
                         for k in range(len(sets))])
        cf = cf_factory(kind, ParamLanes.stack(kind, sets), jump=jump)
        lanes = cf(u, taus[:, :, None])
        assert lanes.shape == (len(sets), taus.shape[1], u.size)
        for k, p in enumerate(sets):
            one = cf_factory(kind, p, jump=jump)(u, taus[k][:, None])
            assert np.array_equal(_bits(lanes[k]), _bits(one))

    def test_squares_are_pythons_pow(self):
        # numpy's array ** 2 is x * x, which misses C pow's bits now and then
        x = np.random.default_rng(3).random(20000) * 0.5
        want = [v ** 2 for v in x.tolist()]
        assert not np.array_equal(x * x, want)
        assert np.array_equal(_sq(x.reshape(-1, 1, 1)).ravel(), want)
        assert _sq(0.3) == 0.3 ** 2


def _bits(a):
    """The bytes of a complex array as integers, so signed zeros count."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def _surface_inputs(surface, lanes):
    """AttariLanes' (spots, strikes, taus, r_ds, r_fs) of lanes copies of
    one surface."""
    sls = surface.slices
    return ([surface.spot] * lanes, [[sl.strikes for sl in sls]] * lanes,
            [[sl.tau for sl in sls]] * lanes, [[sl.r_d for sl in sls]] * lanes,
            [[sl.r_f for sl in sls]] * lanes)


def _surface_kernel(surface, lanes):
    """A kernel of lanes copies of one surface."""
    return AttariLanes(*_surface_inputs(surface, lanes))


# _log1p_over's error bound against the exact log(1 + w) / w, in ulps of the
# exact value (2^-52 times its modulus), on every node; 1.97 measured on
# 6,000 random nodes with |w| from 1e-12 to 50
LOG_ULPS = 4.0
# the old form's bound on its series nodes, |w| < 1e-2: set by the 7-term
# truncation, |w|^7 / 8 <= 5.6 ulp
SERIES_ULPS = 8.0


@mpmath.workdps(40)
def _exact_log1p_over(w):
    """log(1 + w) / w per node of w at 40 digits (1 at w = 0)."""
    out = []
    for z in np.ravel(w).tolist():
        z = mpmath.mpc(z.real, z.imag)
        out.append(mpmath.log1p(z) / z if z else mpmath.mpc(1))
    return out


def _ulps(got, exact):
    """|got - exact| per node, in units of 2^-52 |exact|."""
    return np.array([float(abs(mpmath.mpc(g.real, g.imag) - x) / abs(x)) * 2.0 ** 52
                     for g, x in zip(np.ravel(got).tolist(), exact)])


def _recorded_cf_nodes(kind, params, surfaces, monkeypatch):
    """Every w the lane CF of four scaled copies of params passes to
    _log1p_over while it prices the surfaces."""
    recorded, plain = [], charfn._log1p_over

    def recording(w):
        recorded.append(np.array(w))
        return plain(w)

    with monkeypatch.context() as m:
        m.setattr(charfn, "_log1p_over", recording)
        sets = [_scaled(kind, params, s) for s in (0.8, 1.0, 1.13, 1.27)]
        for surface in surfaces:
            _surface_kernel(surface, len(sets)).calls(
                cf_factory(kind, ParamLanes.stack(kind, sets)))
    assert len(recorded) == len(surfaces) * len(params.factors)
    return recorded


def _straddling(n):
    """50 rows of n random w with |w| within a factor 2 of 1e-2, where the
    old form switched from its series to the log."""
    rng = np.random.default_rng(n)
    r = 1e-2 * np.exp(rng.uniform(-0.7, 0.7, (50, n)))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, (50, n)))


class TestLog1pOver:
    """_log1p_over against a 40-digit mpmath oracle: within LOG_ULPS on
    every node, those below the old form's 1e-2 switch included."""

    @staticmethod
    def assert_within_bounds(w):
        got = _log1p_over(w)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(w)
        assert _ulps(got, _exact_log1p_over(w)).max(initial=0.0) <= LOG_ULPS

    @pytest.mark.parametrize("kind,params", [(n, p) for n, _, p in ALL_MODELS],
                             ids=[n for n, _, _ in ALL_MODELS])
    def test_lane_cf_nodes(self, kind, params, heston_surface, sz_surface, monkeypatch):
        recorded = _recorded_cf_nodes(kind, params, (heston_surface, sz_surface),
                                      monkeypatch)
        small = np.concatenate([np.abs(w).ravel() < 1e-2 for w in recorded])
        assert small.any() and not small.all()  # both sides of the old switch
        for w in recorded:
            self.assert_within_bounds(w)

    @pytest.mark.parametrize("n", [1, 7, 16, 17, 1000])
    def test_random_nodes_straddling_the_switch(self, n):
        w = _straddling(n)
        self.assert_within_bounds(w.reshape(50, 1, n))
        whole = _bits(_log1p_over(w))
        for k, row in enumerate(w):
            assert np.array_equal(_bits(_log1p_over(row)), whole[k]), k

    def test_the_switch_and_its_neighbours(self):
        # at |w| = 1e-2 the old form's series truncation alone was 5.6 ulp,
        # beyond LOG_ULPS
        edge = [np.nextafter(1e-2, 0.0), 1e-2, np.nextafter(1e-2, 1.0)]
        w = np.array([s * x for x in edge for s in (1, -1, 1j, -1j)])
        assert list(np.abs(w[4:8])) == [1e-2] * 4
        self.assert_within_bounds(w)
        for x in w:
            self.assert_within_bounds(np.asarray(x))

    def test_sweep(self):
        # |w| from 1e-9 to 50 at random angles, w near -1, w near the circle
        # |1 + w| = 1 (where log|1 + w| cancels), and |w| up to 1e300
        rng = np.random.default_rng(41)

        def polar(r):
            return r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))

        w = np.concatenate([
            polar(10.0 ** rng.uniform(-9.0, math.log10(50.0), 2000)),
            -1.0 + polar(10.0 ** rng.uniform(-15.0, -0.5, 400)),
            (1.0 + 10.0 ** rng.uniform(-14.0, -3.0, 400) * rng.choice([-1, 1], 400))
            * np.exp(1j * rng.uniform(0.0101, math.pi, 400) * rng.choice([-1, 1], 400))
            - 1.0,
            polar(10.0 ** rng.uniform(2.0, 300.0, 200)),
        ])
        self.assert_within_bounds(w)

    def test_small_nodes(self):
        # |w| from 1e-12 to 1e-2 at random angles: the old form's series
        # nodes, now held to LOG_ULPS
        rng = np.random.default_rng(43)
        r = 10.0 ** rng.uniform(-12.0, -2.0, 1000)
        self.assert_within_bounds(r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size)))

    def test_tiny_nodes_are_one(self):
        # below |w| = 2^-60 the value is exactly 1, and no warning is raised
        # where the division by w would overflow; at 2^-60 the formula runs
        edge = 2.0 ** -60
        mags = [np.nextafter(edge, 0.0), 2.0 ** -61, 1e-100, 1e-300, 2.0 ** -1022, 5e-324]
        turns = [1, -1, 1j, -1j, complex(0.6, -0.8), complex(-0.8, 0.6)]
        w = np.array([m * t for m in mags for t in turns] + [complex(5e-324, 5e-324)])
        assert np.all(np.abs(w) < edge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _log1p_over(w).tolist() == [1.0] * w.size
            assert all(_log1p_over(x) == 1.0 for x in w)
        self.assert_within_bounds(np.array([edge * t for t in turns]))

    @pytest.mark.parametrize("w", [0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                   complex(-0.0, -0.0),
                                   math.nan, complex(math.nan, 0.0), complex(0.0, math.nan),
                                   math.inf, -math.inf, complex(0.0, math.inf),
                                   complex(math.inf, math.nan)],
                             ids=repr)
    def test_special_values(self, w):
        with np.errstate(invalid="ignore"):
            both = (_log1p_over(w), _log1p_over(np.array([w, 0.5, 1e-3]))[0])
        for got in both:
            if w == 0:
                assert got == 1.0            # the limit, exactly
            else:
                assert not np.isfinite(got)  # NaN and inf do not turn finite
        self.assert_within_bounds(np.array([0.5, 1e-3]))

    def test_empty_and_zero_d(self):
        for w in (np.array([], dtype=complex), np.zeros((3, 0), dtype=complex)):
            got = _log1p_over(w)
            assert got.shape == w.shape and got.dtype == complex
        got = _log1p_over(np.asarray(-1j))
        assert got.shape == ()
        self.assert_within_bounds(np.asarray(-1j))

    @pytest.mark.parametrize("kind,params", [(n, p) for n, _, p in ALL_MODELS],
                             ids=[n for n, _, _ in ALL_MODELS])
    def test_old_form_agrees_within_the_bounds(self, kind, params, heston_surface,
                                               sz_surface, monkeypatch):
        # the old form (charfn_reference) evaluated the series in powers of
        # w below |w| = 1e-2, within SERIES_ULPS, and above it the log of the
        # rounded 1 + w, which is off by up to 2^-53 |1 + w|: 0.5 / |log(1 +
        # w)| ulp on top of LOG_ULPS.  Old and new agree within the sum of
        # their bounds.
        nodes = _recorded_cf_nodes(kind, params, (heston_surface, sz_surface), monkeypatch)
        w = np.concatenate([x.ravel() for x in nodes] + [_straddling(16).ravel()])
        new, old = _log1p_over(w), reference_log1p_over(w)
        exact = _exact_log1p_over(w)
        size = np.array([float(abs(x)) for x in exact])   # |log(1 + w) / w|
        series = np.abs(w) < 1e-2
        old_bound = np.where(series, SERIES_ULPS, LOG_ULPS + 0.5 / (np.abs(w) * size))
        assert np.all(_ulps(new, exact) <= LOG_ULPS)
        assert np.all(_ulps(old, exact) <= old_bound)
        assert np.all(np.abs(new - old) <= (LOG_ULPS + old_bound) * size * 2.0 ** -52)


def _lane_nodes():
    """A (16, 6, 56) lane array of w on both sides of the old form's 1e-2
    switch, w near -1 (the log|1 + w| form) and w on the switch."""
    rng = np.random.default_rng(53)
    r = 10.0 ** rng.uniform(-4.0, 1.0, (16, 6, 56))
    w = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.shape))
    flat = w.reshape(-1)
    flat[::23] = -1.0 + 10.0 ** rng.uniform(-12.0, -0.2, flat[::23].size) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, flat[::23].size))
    flat[5::101] = 1e-2
    return w


class TestLog1pOverLanes:
    """A node's bits do not depend on the array it sits in: the lane path
    relies on it (a row of a lane-stacked CF call is the one-row call bit
    for bit), and a SIMD kernel could break it through tails, strides or
    shapes."""

    W = _lane_nodes()

    def want(self):
        return _bits(_log1p_over(self.W)).reshape(-1, 2)

    def test_zero_d(self):
        got = np.array([_bits(_log1p_over(np.asarray(x))) for x in self.W.ravel()])
        assert np.array_equal(got, self.want())

    def test_reversed_and_strided_views(self):
        flat = self.W.ravel()
        assert np.array_equal(_bits(_log1p_over(flat[::-1])).reshape(-1, 2)[::-1],
                              self.want())
        assert np.array_equal(_bits(_log1p_over(self.W[::-2, 1:, ::3])).reshape(-1, 2),
                              self.want().reshape(self.W.shape + (2,))[::-2, 1:, ::3]
                              .reshape(-1, 2))

    @pytest.mark.parametrize("n", [1, 7, 9, 17])
    def test_lengths(self, n):
        flat, want = self.W.ravel(), self.want()
        for start in range(0, flat.size - n, 13):
            got = _bits(_log1p_over(flat[start:start + n].copy())).reshape(-1, 2)
            assert np.array_equal(got, want[start:start + n]), start

    def test_finite_input_raises_no_warning(self):
        tiny = 5e-324
        w = np.array([complex(-1.0, tiny), complex(-1.0, -tiny), complex(-1.0, 1e-300),
                      np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -2.0),
                      complex(np.nextafter(-1.0, 0.0), -tiny), -1.0 + 1e-9j, -2.0,
                      1e300 + 1e300j, -1e308, complex(0.0, -1e308), tiny, 1e-2, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log1p_over(w)
            for x in w:
                _log1p_over(x)
        assert np.all(np.isfinite(got))
        TestLog1pOver.assert_within_bounds(w)


def _from_heston(kind, h, h2):
    """A kind's parameter set from two draw_heston sets: the variances as they
    are (halved over two factors), or as OU volatilities (sqrt) with kappa and
    omega halved, the map of the sz/heston nesting."""
    def factor(p, half):
        if charfn.variance_factors(kind):
            return (p.nu0 * half, p.theta * half, p.kappa, p.omega, p.rho)
        return (math.sqrt(p.nu0), math.sqrt(p.theta), p.kappa / 2, p.omega / 2, p.rho)

    if kind in ("bates2f", "ouou"):
        return charfn.model_params(kind, [factor(h, 0.5), factor(h2, 0.5)])
    return charfn.model_params(kind, [factor(h, 1.0)])


class TestLogTermPriceShift:
    """Against the old log term (charfn_reference.reference_log1p_over
    patched in), no call price on the fixture surfaces moves by more than
    1e-14: all four models, with and without jumps, for the ALL_MODELS set
    and 200 sets mapped from draw_heston."""

    @pytest.mark.parametrize("kind,params", [(n, p) for n, _, p in ALL_MODELS],
                             ids=[n for n, _, _ in ALL_MODELS])
    @pytest.mark.parametrize("jump", [None, JUMP], ids=["diffusion", "jumps"])
    def test_shift_per_cell(self, kind, params, jump, heston_surface, sz_surface,
                            monkeypatch):
        rng = np.random.default_rng(67)
        sets = [params] + [_from_heston(kind, draw_heston(rng), draw_heston(rng))
                           for _ in range(200)]
        worst = 0.0
        for surface in (heston_surface, sz_surface):
            for k in range(0, len(sets), LANES_PER_BLOCK):
                chunk = sets[k:k + LANES_PER_BLOCK]
                kernel = _surface_kernel(surface, len(chunk))
                cf = cf_factory(kind, ParamLanes.stack(kind, chunk), jump=jump)
                new = kernel.calls(cf)
                with monkeypatch.context() as m:
                    m.setattr(charfn, "_log1p_over", reference_log1p_over)
                    old = kernel.calls(cf)
                assert np.all(np.isfinite(new))
                worst = max(worst, float(np.max(np.abs(new - old))))
        assert worst <= 1e-14


class TestDriftCentredPrices:
    """The drift-centred kernel, cf(u, tau) times the grid constant, against
    the drift-form kernel it replaced (charfn_reference.reference_attari_calls
    of reference_cf_factory): every cell's call price within 1e-15 S on the
    fixture surfaces, all four models, with and without jumps, for the
    ALL_MODELS set and 200 sets mapped from draw_heston, LANES_PER_BLOCK
    lanes a call.  The shift measured 3.4e-16 S at most, one ulp of the
    prices."""

    @pytest.mark.parametrize("kind,params", [(n, p) for n, _, p in ALL_MODELS],
                             ids=[n for n, _, _ in ALL_MODELS])
    @pytest.mark.parametrize("jump", [None, JUMP], ids=["diffusion", "jumps"])
    def test_shift_per_cell(self, kind, params, jump, heston_surface, sz_surface):
        rng = np.random.default_rng(71)
        sets = [params] + [_from_heston(kind, draw_heston(rng), draw_heston(rng))
                           for _ in range(200)]
        for surface in (heston_surface, sz_surface):
            for k in range(0, len(sets), LANES_PER_BLOCK):
                chunk = sets[k:k + LANES_PER_BLOCK]
                lanes = ParamLanes.stack(kind, chunk)
                new = _surface_kernel(surface, len(chunk)).calls(
                    cf_factory(kind, lanes, jump=jump))
                old = reference_attari_calls(reference_cf_factory(kind, lanes, jump=jump),
                                             *_surface_inputs(surface, len(chunk)))
                assert np.all(np.isfinite(new))
                assert np.max(np.abs(new - old)) <= 1e-15 * surface.spot, k


def _criterion3_draws():
    """Criterion 3's 50 draw_heston sets (default_rng(3)) and, per set, the
    AttariLanes inputs of its own 6 x 5 cells: spot 1.30, its rates, and
    each pillar's strike at the set's term vol."""
    rng = np.random.default_rng(3)
    draws = [draw_heston(rng) for _ in range(50)]
    taus = (1 / 12, 2 / 12, 0.25, 0.5, 1.0, 2.0)
    cells = [(1.30, [[strike_from_delta(1.30, 0.012, 0.006, t, term_vol(p, t), delta)
                      for delta in PILLAR_DELTAS.values()] for t in taus],
              taus, [0.012] * 6, [0.006] * 6) for p in draws]
    return draws, cells


def _variance_scaled(p, s):
    """A heston set with nu0 and theta scaled by s."""
    return dataclasses.replace(p, nu0=p.nu0 * s, theta=p.theta * s)


class TestFoldedKernel:
    """The folded kernel against the unfolded one it replaced
    (charfn_reference.UnfoldedAttariLanes) on the same CF: every cell within
    1e-15 S, all four models, LANES_PER_BLOCK lanes a call, for criterion
    3's 50 draw_heston sets mapped to the model with their variances scaled
    by 1, 10, 50 and 200 (vols near 140%), on the fixture surfaces and on each
    set's own criterion-3 cells."""

    @staticmethod
    def _worst(kind, sets, inputs, grid=DEFAULT_GRID):
        """max |folded - unfolded| / S over the cells of inputs, one
        AttariLanes input tuple per set, priced LANES_PER_BLOCK sets a call."""
        worst = 0.0
        for k in range(0, len(sets), LANES_PER_BLOCK):
            cf = cf_factory(kind, ParamLanes.stack(kind, sets[k:k + LANES_PER_BLOCK]))
            lanes = [np.array(v) for v in zip(*inputs[k:k + LANES_PER_BLOCK])]
            new = AttariLanes(*lanes, grid).calls(cf)
            old = UnfoldedAttariLanes(*lanes, grid).calls(cf)
            assert np.all(np.isfinite(new))
            worst = max(worst, np.max(np.abs(new - old) / lanes[0][:, None, None]))
        return worst

    @pytest.mark.parametrize("kind", ["heston", "sz", "bates2f", "ouou"])
    @pytest.mark.parametrize("scale", [1.0, 10.0, 50.0, 200.0])
    def test_within_1e15_of_unfolded(self, kind, scale, heston_surface, sz_surface):
        draws, cells = _criterion3_draws()
        sets = [_from_heston(kind, _variance_scaled(h, scale), _variance_scaled(h2, scale))
                for h, h2 in zip(draws, draws[1:] + draws[:1])]
        for inputs in (cells, list(zip(*_surface_inputs(heston_surface, len(sets)))),
                       list(zip(*_surface_inputs(sz_surface, len(sets))))):
            assert self._worst(kind, sets, inputs) <= 1e-15

    @pytest.mark.parametrize("kind", ["heston", "sz", "bates2f", "ouou"])
    def test_grid_without_fold(self, kind, heston_surface):
        """A grid with no node at w <= -4.6 evaluates the CF on its own nodes
        and stays within 1e-15 S of the unfolded kernel too."""
        draws, _ = _criterion3_draws()
        sets = [_from_heston(kind, h, h2) for h, h2 in zip(draws[:16], draws[16:32])]
        inputs = list(zip(*_surface_inputs(heston_surface, len(sets))))
        assert self._worst(kind, sets, inputs, IntegrationGrid(-4.0, 5.0, 0.4)) <= 1e-15


# |A - A_old| of heston_terms against the old body less its drift, in ulps of
# |kappa theta X tau / (beta + d)| + |the log term|, the two parts of A that
# partly cancel (measured: 2.0)
A_TERM_ULPS = 4.0


class TestHestonTermsReference:
    """heston_terms forms each tau-free factor and each product against tau
    once: B bit for bit the old body's (charfn_reference), A that body's
    less its drift within A_TERM_ULPS."""

    @pytest.mark.parametrize("lanes", [None, 1, 16])
    @pytest.mark.parametrize("draw", [1, 2])
    @pytest.mark.parametrize("drift_weight", [1.0, 0.5])
    def test_equals_old_body(self, lanes, draw, drift_weight):
        rng = np.random.default_rng(29 + draw)
        u = DEFAULT_GRID.nodes()[1].astype(complex)
        taus = np.array(TestTenorColumns.TAUS)
        if lanes is None:  # one parameter set on (T, 1) columns
            p, shape = HP, (taus.size, 1)
        else:
            p = ParamLanes.stack("heston", [_scaled("heston", HP, s)
                                            for s in rng.uniform(0.6, 1.6, lanes)]).factors[0]
            shape = (lanes, taus.size, 1)
        tau = np.broadcast_to(taus[:, None], shape) * rng.uniform(0.98, 1.02, shape)
        r_d, r_f = rng.uniform(0.0, 0.03, shape), rng.uniform(0.0, 0.03, shape)
        got = heston_terms(u, tau, p)
        want = reference_heston_terms(u, tau, p, r_d=r_d, r_f=r_f,
                                      drift_weight=drift_weight)
        assert np.array_equal(_bits(got.B), _bits(want.B))
        assert complex(got.C) == 0.0
        iu = 1j * u
        X = -iu - u * u
        beta = p.kappa - p.rho * p.omega * iu
        x_tau = p.kappa * p.theta * X / (beta + np.sqrt(beta * beta - _sq(p.omega) * X)) * tau
        scale = EPS * (np.abs(x_tau) + np.abs(got.A - x_tau))
        want_a = reference_heston_terms(u, tau, p).A
        assert np.all(np.abs(got.A - want_a) <= A_TERM_ULPS * scale)
        # the drift-form A rounds once more, where it adds the drift
        drift = drift_weight * (r_d - r_f) * iu * tau
        assert np.all(np.abs(got.A - (want.A - drift))
                      <= A_TERM_ULPS * scale + 4.0 * EPS * np.abs(want.A))


class _OldSqrtNumpy(types.ModuleType):
    """numpy, but sqrt with the defensive negation charfn once applied."""

    sqrt = staticmethod(reference_principal_sqrt)

    def __getattr__(self, name):
        return getattr(np, name)


class TestPrincipalSqrt:
    """The CFs take d = np.sqrt(...) as it comes: IEEE csqrt already returns
    the principal root, whose real part is +0 or more."""

    @pytest.mark.parametrize("z,root", [(complex(-4.0, 0.0), 2j),
                                        (complex(-4.0, -0.0), -2j)])
    def test_negative_real_axis(self, z, root):
        got = np.sqrt(np.array([z]))
        assert got[0] == root and math.copysign(1.0, got[0].real) == 1.0
        assert np.array_equal(_bits(got), _bits(reference_principal_sqrt(np.array([z]))))

    @pytest.mark.parametrize("kind", ["heston", "sz", "bates2f", "ouou"])
    def test_cf_bit_identical_on_fixture_surfaces(self, kind, heston_surface, sz_surface,
                                                  heston_median_params, sz_params,
                                                  bates2f_params, monkeypatch):
        params = {"heston": heston_median_params, "sz": sz_params,
                  "bates2f": bates2f_params,
                  "ouou": TwoFactorParams("ouou", Factor(0.06, 0.08, 1.2, 0.11, 0.65),
                                          Factor(0.07, 0.05, 0.8, 0.22, -0.85))}[kind]
        u = DEFAULT_GRID.nodes()[1].astype(complex)
        cf = cf_factory(kind, params)
        for surface in (heston_surface, sz_surface):
            tau = np.array([sl.tau for sl in surface.slices])[:, None]
            got = cf(u, tau)
            with monkeypatch.context() as m:
                m.setattr(charfn, "np", _OldSqrtNumpy("numpy"))
                want = cf(u, tau)
            assert np.array_equal(_bits(got), _bits(want))
