import math

import numpy as np
import pytest

from fxsvol.charfn import Factor, HestonParams, SchobelZhuParams, TwoFactorParams

from synthutil import synth_surface

# medians of the calibrated-parameter distributions used as the canonical
# generator for synthetic fixtures
HESTON_MEDIAN = dict(nu0=0.0082, theta=0.0143, kappa=2.07, omega=0.30, rho=-0.38)


@pytest.fixture(scope="session")
def heston_median_params():
    return HestonParams(**HESTON_MEDIAN)


@pytest.fixture(scope="session")
def heston_surface(heston_median_params):
    return synth_surface("heston", heston_median_params)


@pytest.fixture(scope="session")
def sz_params():
    return SchobelZhuParams(nu0=0.09, theta=0.11, kappa=1.4, omega=0.15, rho=-0.38)


@pytest.fixture(scope="session")
def sz_surface(sz_params):
    return synth_surface("sz", sz_params)


@pytest.fixture(scope="session")
def bates2f_params():
    h = HESTON_MEDIAN
    f = Factor(h["nu0"] / 2, h["theta"] / 2, h["kappa"], h["omega"], h["rho"])
    return TwoFactorParams("bates2f", f, f)


@pytest.fixture
def rng():
    # a fresh generator per test, so a test's draws do not depend on which
    # tests ran before it
    return np.random.default_rng(20140602)


def draw_heston(rng):
    """One draw from the interquartile boxes of the study's parameter tables."""
    return HestonParams(
        nu0=rng.uniform(0.0055, 0.0144),
        theta=rng.uniform(0.0112, 0.0227),
        kappa=rng.uniform(1.552, 4.747),
        omega=rng.uniform(0.211, 0.465),
        rho=rng.uniform(-0.462, -0.315),
    )


def term_vol(p, tau):
    from fxsvol.moments import heston_total_variance
    return math.sqrt(heston_total_variance(p.nu0, p.theta, p.kappa, tau))
