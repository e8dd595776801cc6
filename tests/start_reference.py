"""The calibration starts as they were before cli.start_with_icm became the
one place a start is built, kept as its oracle.

- hist_omega_rho, historical_context and start_with_icm: literal copies of
  the old cli functions.
- two_stage_sym: the symmetric factor the old cli.pipeline_job built for a
  two-stage start.
- historical_omega_rho, evp_split, mevp_split and icm_sz_from_heston:
  literal copies of the old estimators code they call (icm_sz_from_heston
  is icm_sz's old from_heston branch).

The unchanged pieces they reach (the TS pipelines, icm_heston, durrleman,
model_params, feller_truncated) are called from the package.  The new code
must give the same starts, flags, estimates and errors bit for bit.
"""

import math

import numpy as np

from fxsvol import estimators, moments
from fxsvol.calibrate import feller_truncated
from fxsvol.charfn import model_params
from fxsvol.cli import sz_ts_pipeline, variance_pipeline
from fxsvol.errors import FxsvolError, InvariantViolation, ShortSeries
from fxsvol.estimators import OMEGA_FLOOR, RHO_PIN, Estimate, TwoFactorStart, _ewma


def historical_omega_rho(vix_series, spot_series, model="heston"):
    # reads estimators.HIST_WINDOW at call time, so a patched window applies
    HIST_WINDOW = estimators.HIST_WINDOW
    HIST_RHO_FALLBACK = estimators.HIST_RHO_FALLBACK
    vix = np.asarray(vix_series, dtype=float)
    spot = np.asarray(spot_series, dtype=float)
    if vix.shape != spot.shape or vix.size < 2:
        raise ShortSeries("need aligned series of length >= 2")
    driver = vix * vix if model == "heston" else vix
    dv = np.diff(driver)
    dls = np.diff(np.log(spot))
    e_dv2 = _ewma(dv * dv, HIST_WINDOW)
    e_ds2 = _ewma(dls * dls, HIST_WINDOW)
    e_cross = _ewma(dls * dv, HIST_WINDOW)
    n = vix.size
    omega = np.empty(n)
    rho = np.empty(n)
    warm = min(n, HIST_WINDOW - 1)
    omega[:warm] = vix[:warm] if model == "heston" else 0.5 * vix[:warm]
    rho[:warm] = HIST_RHO_FALLBACK
    for t in range(warm, n):
        i = t - 1  # EWMA index over the diff series
        if model == "heston":
            omega[t] = math.sqrt(e_dv2[i]) / vix[t] if vix[t] > 0.0 else 0.0
        else:
            omega[t] = math.sqrt(e_dv2[i])
        denom = math.sqrt(e_ds2[i] * e_dv2[i])
        rho[t] = e_cross[i] / denom if denom > 0.0 else HIST_RHO_FALLBACK
    return omega, rho


def icm_sz_from_heston(from_heston):
    om_h, rho_h = from_heston
    return Estimate(omega=0.5 * om_h, rho=rho_h,
                    flags=("half-relation from CIR-variance estimates",))


def evp_split(omega, rho, nu0, theta, kappa):
    return TwoFactorStart(
        kind="bates2f",
        nu0=(nu0 / 2.0, nu0 / 2.0),
        theta=(theta / 2.0, theta / 2.0),
        kappa=(kappa, kappa),
        omega=(omega, omega),
        rho=(rho, rho),
        pin_rho=False,
    )


def mevp_split(omega, rho, nu0, theta, kappa, target="ouou", rho_pin=RHO_PIN):
    if omega <= 0.0 or abs(rho) >= 1.0:
        raise InvariantViolation(f"need omega > 0 and |rho| < 1: {omega}, {rho}")
    flags = []
    if target == "ouou":
        omega_eff = omega / math.sqrt(2.0)
        nu0_k, theta_k = nu0 / math.sqrt(2.0), theta / math.sqrt(2.0)
    elif target == "bates_feller":
        omega_eff = omega
        nu0_k, theta_k = nu0 / 2.0, theta / 2.0
    else:
        raise InvariantViolation(f"target must be ouou or bates_feller: {target!r}")
    s = math.sqrt(1.0 - rho * rho)
    om1 = omega_eff * (s + rho)
    om2 = omega_eff * (s - rho)
    if om1 < OMEGA_FLOOR:
        flags.append(f"omega_1 {om1:.6f} clamped to {OMEGA_FLOOR}")
        om1 = OMEGA_FLOOR
    if om2 < OMEGA_FLOOR:
        flags.append(f"omega_2 {om2:.6f} clamped to {OMEGA_FLOOR}")
        om2 = OMEGA_FLOOR
    return TwoFactorStart(
        kind="ouou" if target == "ouou" else "bates2f",
        nu0=(nu0_k, nu0_k),
        theta=(theta_k, theta_k),
        kappa=(kappa, kappa),
        omega=(om1, om2),
        rho=(rho_pin, -rho_pin),
        pin_rho=True,
        flags=tuple(flags),
    )


def historical_context(surfaces):
    dates = sorted(surfaces)
    vix1m, spots = [], []
    for d in dates:
        surf = surfaces[d]
        sl = surf.slices[0]
        strikes, prices, f0, k0 = moments.otm_strip(surf, sl)
        v2 = moments.implied_variance_vix(strikes, prices, f0, k0, sl.r_d, sl.tau)
        vix1m.append(math.sqrt(max(v2, 0.0)))
        spots.append(surf.spot)
    if len(dates) < 2:
        return {"heston": {}, "sz": {}, "vix1m": dict(zip(dates, vix1m))}
    om_h, rho_h = historical_omega_rho(vix1m, spots, model="heston")
    om_s, rho_s = historical_omega_rho(vix1m, spots, model="sz")
    return {
        "heston": {d: (float(om_h[i]), float(rho_h[i])) for i, d in enumerate(dates)},
        "sz": {d: (float(om_s[i]), float(rho_s[i])) for i, d in enumerate(dates)},
        "vix1m": dict(zip(dates, vix1m)),
    }


def hist_omega_rho(hist, model, date):
    scale = 0.5 if model == "sz" else 1.0
    fallback = (scale * hist["vix1m"].get(date, 0.1), estimators.HIST_RHO_FALLBACK)
    return hist[model].get(date, fallback)


def start_with_icm(model, method, surface, hist):
    hh = hist_omega_rho(hist, "heston", surface.date)
    hs = hist_omega_rho(hist, "sz", surface.date)
    ts, hts = variance_pipeline(surface, hh)

    def one_factor(model_kind):
        """(nu0, theta, kappa, omega, rho), flags and Heston ICM estimate."""
        if method == "icm":
            sets = moments.surface_moment_sets(surface)
            if model_kind == "heston":
                est = estimators.icm_heston(sets)
                return (*hts, est.omega, est.rho), est.flags, est
            _, sts = sz_ts_pipeline(surface, ts, hts, hh)
            esth = estimators.icm_heston(sets)
            est = icm_sz_from_heston((esth.omega, esth.rho))
            return (*sts, est.omega, est.rho), est.flags, esth
        if method == "durrleman":
            est = estimators.durrleman(surface, ts.v2_corrected[0])
            if model_kind == "heston":
                return (*hts, max(est.omega, 1e-4), est.rho), est.flags, None
            _, sts = sz_ts_pipeline(surface, ts, hts, hh)
            return ((*sts, max(0.5 * est.omega, 1e-4), est.rho),
                    est.flags + ("half-relation applied for the OU-vol model",), None)
        if method == "hist":
            if model_kind == "heston":
                return (*hts, max(hh[0], 1e-4), hh[1]), (), None
            _, sts = sz_ts_pipeline(surface, ts, hts, hh)
            return (*sts, max(hs[0], 1e-4), hs[1]), (), None
        raise FxsvolError(f"start method {method!r} not supported for {model_kind}")

    if model in ("heston", "sz"):
        fields, fl, esth = one_factor(model)
        return model_params(model, [fields]), None, tuple(fl), esth

    sets = moments.surface_moment_sets(surface)
    esth = estimators.icm_heston(sets)
    if model == "bates2f" and method in ("evp", "icm"):
        start = evp_split(esth.omega, esth.rho, *hts)
    elif (model == "bates2f" and method == "mevp"
          or model == "bates2f-feller" and method in ("mevp", "icm")):
        start = mevp_split(esth.omega, esth.rho, *hts, target="bates_feller")
    elif model == "ouou" and method in ("mevp", "icm"):
        _, sts = sz_ts_pipeline(surface, ts, hts, hh)
        ests = icm_sz_from_heston((esth.omega, esth.rho))
        start = mevp_split(ests.omega, ests.rho, *sts, target="ouou")
    elif model in ("bates2f", "bates2f-feller", "ouou"):
        raise FxsvolError(f"start method {method!r} not supported for {model}")
    else:
        raise FxsvolError(f"unknown model {model!r}")
    params, flags = model_params(start.kind, start.factors), start.flags
    if model == "bates2f-feller":
        truncated = feller_truncated(params)
        if truncated != params:
            flags = ("start omegas truncated to the positivity bound",) + flags
        params = truncated
    return params, start.rho if start.pin_rho else None, flags, esth


def two_stage_sym(model, surface, hist):
    """The symmetric start the old pipeline_job passed to two_stage_job."""
    kind = "bates2f" if model == "bates2f-feller" else model
    hh = hist_omega_rho(hist, "heston", surface.date)
    ts, hts = variance_pipeline(surface, hh)
    if kind == "ouou":
        # OU-volatility factors live on the vol scale
        hs = hist_omega_rho(hist, "sz", surface.date)
        _, sts = sz_ts_pipeline(surface, ts, hts, hh)
        root2 = math.sqrt(2.0)
        sym = (sts[0] / root2, sts[1] / root2, sts[2],
               max(hs[0], 1e-4), hs[1])
    else:
        sym = (hts[0] / 2.0, hts[1] / 2.0, hts[2], max(hh[0], 1e-4), hh[1])
    return sym
