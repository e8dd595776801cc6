"""Batch command-line front end.

Subcommands: ingest, surface, vix, estimate, calibrate, risk, report.
All outputs are machine-readable (JSON per date, CSV summaries), numeric
values carry 12 significant digits, and a re-run of the same manifest is
byte-identical: no clocks, no randomness.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import datetime
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

from . import estimators, moments
from .calibrate import (
    CostSpec,
    calibrate_full,  # noqa: F401  (perfbench/tracer.py patches cli.calibrate_full)
    calibrate_variance_ts,
    calibrate_vol_ts_sz,
    even_split,
    feller_truncated,
    full_job,
    risk_job,
    run_job,
    run_lanes,
    two_stage_job,
)
from .charfn import factor_count, model_params, variance_factors
from .errors import FxsvolError, InvariantViolation, ParseError
from .market_data import build_surface, group_rows_by_date, ingest_csv
from .pricer import DEFAULT_GRID, IntegrationGrid

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INVALID = 2

# the least omega of a one-factor start from a smile-shape or historical
# estimate
START_OMEGA_FLOOR = 1e-4


@dataclass(frozen=True)
class RunManifest:
    command: str
    input_path: str
    output_dir: str
    model: str = ""
    start_method: str = ""
    cost_kind: str = "mse"
    feller: bool = False
    max_iter: int = 0
    stop_any: bool = False
    vols_decimal: bool = False
    grid_min: float = DEFAULT_GRID.w_min
    grid_max: float = DEFAULT_GRID.w_max
    grid_step: float = DEFAULT_GRID.dw
    jobs: int = 1
    date_from: str = ""
    date_to: str = ""

    def grid(self):
        return IntegrationGrid(self.grid_min, self.grid_max, self.grid_step)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _round12(x):
    if isinstance(x, float):
        if math.isnan(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_round12(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")


def params_to_dict(kind, params):
    """A parameter set of model kind as JSON: a one-factor model's fields,
    or {"factors": [...]}, one dict of fields per factor."""
    factors = [{"nu0": f.nu0, "theta": f.theta, "kappa": f.kappa,
                "omega": f.omega, "rho": f.rho} for f in params.factors]
    return factors[0] if len(factors) == 1 else {"factors": factors}


# ---------------------------------------------------------------------------
# per-date protocol pieces
# ---------------------------------------------------------------------------

def load_surfaces(manifest):
    """All surfaces in the file; the date range only selects what to process,
    so historical estimators keep the full sample behind the range.  A file
    that cannot be read raises ParseError, as one that cannot be parsed."""
    try:
        rows = ingest_csv(manifest.input_path, vols_decimal=manifest.vols_decimal)
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    groups = group_rows_by_date(rows)
    return {d: build_surface(g) for d, g in groups.items()}


def selected_dates(manifest, surfaces):
    dates = sorted(surfaces)
    if manifest.date_from:
        dates = [d for d in dates if d >= manifest.date_from]
    if manifest.date_to:
        dates = [d for d in dates if d <= manifest.date_to]
    return dates


def historical_context(surfaces):
    """Per-date EWMA (omega, rho) estimates from the 1M strip vol and spot
    (estimators.historical_omega_rho), for "heston" and "sz", and the 1M
    index level, each keyed by date.

    The first HIST_WINDOW - 1 dates take historical_omega_rho's warm-up
    fallbacks: omega = index level, or half of it for the vol model; rho =
    HIST_RHO_FALLBACK.
    """
    dates = sorted(surfaces)
    vix1m, spots = [], []
    for d in dates:
        surf = surfaces[d]
        sl = surf.slices[0]
        strikes, prices, f0, k0 = moments.otm_strip(surf, sl)
        v2 = moments.implied_variance_vix(strikes, prices, f0, k0, sl.r_d, sl.tau)
        vix1m.append(math.sqrt(max(v2, 0.0)))
        spots.append(surf.spot)
    om_h, rho_h = estimators.historical_omega_rho(vix1m, spots, model="heston")
    om_s, rho_s = estimators.historical_omega_rho(vix1m, spots, model="sz")
    return {
        "heston": {d: (float(om_h[i]), float(rho_h[i])) for i, d in enumerate(dates)},
        "sz": {d: (float(om_s[i]), float(rho_s[i])) for i, d in enumerate(dates)},
        "vix1m": dict(zip(dates, vix1m)),
    }


def variance_pipeline(surface, hist_heston):
    """VIX strip -> corrected variance -> CIR curve fit for one date."""
    om_h, rho_h = hist_heston
    ts = moments.surface_variance_ts(surface, rho_h=rho_h, omega_h=om_h)
    taus = [sl.tau for sl in surface.slices]
    nu0, theta, kappa, _ = calibrate_variance_ts(taus, ts.v2_corrected)
    return ts, (nu0, theta, kappa)


def sz_ts_pipeline(surface, ts, heston_ts_params, hist_heston):
    """Expected-vol targets and OU vol-curve fit for one date."""
    om_h, _ = hist_heston
    nu0h, thh, kah = heston_ts_params
    taus = [sl.tau for sl in surface.slices]
    targets = [moments.sz_expected_vol(v2c, nu0h, thh, kah, om_h, t)
               for v2c, t in zip(ts.v2_corrected, taus)]
    nu0, theta, kappa, _ = calibrate_vol_ts_sz(taus, targets)
    return targets, (nu0, theta, kappa)


def build_start(model, method, surface, hist):
    """Starting parameter set for a calibration, per estimator route."""
    return start_with_icm(model, method, surface, hist)[:3]


def start_with_icm(model, method, surface, hist):
    """build_start's (params, pinned rho, flags), and the Heston ICM estimate
    the route made on the way (None if it made none).  This is the one place
    a calibration start is built."""
    hh = hist["heston"][surface.date]
    ts, hts = variance_pipeline(surface, hh)

    def one_factor(model_kind):
        """(nu0, theta, kappa, omega, rho), flags and Heston ICM estimate.
        The route's estimate is made before or after the model's curve as
        it always was, so the first error a date raises stays the same."""
        if method == "icm":
            sets = moments.surface_moment_sets(surface)
        elif method == "durrleman":
            est = estimators.durrleman(surface, ts.v2_corrected[0])
        elif method != "hist":
            raise FxsvolError(f"start method {method!r} not supported for {model_kind}")
        curve = hts if model_kind == "heston" else sz_ts_pipeline(surface, ts, hts, hh)[1]
        if method == "icm":
            esth = estimators.icm_heston(sets)
            est = esth if model_kind == "heston" else estimators.half_relation(esth)
            return (*curve, est.omega, est.rho), est.flags, esth
        if method == "hist":
            (omega, rho), flags = hist[model_kind][surface.date], ()
        elif model_kind == "heston":
            omega, rho, flags = est.omega, est.rho, est.flags
        else:
            omega, rho = 0.5 * est.omega, est.rho
            flags = est.flags + ("half-relation applied for the OU-vol model",)
        return (*curve, max(omega, START_OMEGA_FLOOR), rho), flags, None

    if model in ("heston", "sz"):
        fields, fl, esth = one_factor(model)
        return model_params(model, [fields]), None, tuple(fl), esth

    sets = moments.surface_moment_sets(surface)
    esth = estimators.icm_heston(sets)
    if model == "bates2f" and method in ("evp", "icm"):
        start = estimators.evp_split(esth.omega, esth.rho, *hts)
    elif (model == "bates2f" and method == "mevp"
          or model == "bates2f-feller" and method in ("mevp", "icm")):
        start = estimators.mevp_split(esth.omega, esth.rho, *hts, target="bates_feller")
    elif model == "ouou" and method in ("mevp", "icm"):
        _, sts = sz_ts_pipeline(surface, ts, hts, hh)
        ests = estimators.half_relation(esth)
        start = estimators.mevp_split(ests.omega, ests.rho, *sts, target="ouou")
    elif model in ("bates2f", "bates2f-feller", "ouou"):
        raise FxsvolError(f"start method {method!r} not supported for {model}")
    else:
        raise FxsvolError(f"unknown model {model!r}")
    pinned = start.rho if start.pin_rho else None
    return model_params(start.kind, start.factors), pinned, start.flags, esth


def feller_start(params, flags):
    """A Feller run's start and flags: params through feller_truncated, with
    the truncation flag first if that moved a CIR-variance factor."""
    truncated = feller_truncated(params)
    cut = ("start omegas truncated to the positivity bound",) if truncated != params else ()
    return truncated, cut + flags


def pipeline_job(manifest, surface, hist):
    """One date's calibration as a job (calibrate.run_job): estimator start,
    full (or two-stage) Nelder-Mead calibration, payload."""
    model = manifest.model
    kind = "bates2f" if model == "bates2f-feller" else model
    feller = manifest.feller or model == "bates2f-feller"
    fit = dict(cost_spec=CostSpec(kind=manifest.cost_kind), feller=feller,
               max_iter=manifest.max_iter or None, grid=manifest.grid())
    if manifest.start_method == "twostage":
        # each factor of the tied stage is the equal-variance split of the
        # base model's historical start
        base, _, _ = build_start("heston" if variance_factors(kind) else "sz", "hist",
                                 surface, hist)
        sym = (*estimators.factor_share(kind, base.nu0, base.theta), base.kappa,
               base.omega, base.rho)
        result, _ = yield from two_stage_job(kind, surface, sym, **fit)
        start_flags = ()
    else:
        start, pinned, start_flags = build_start(model, manifest.start_method,
                                                 surface, hist)
        if feller:
            start, start_flags = feller_start(start, start_flags)
        result = yield from full_job(kind, surface, start, pinned_rho=pinned,
                                     stop_any=manifest.stop_any, **fit)
    result = replace(result, flags=result.flags + tuple(start_flags))
    return {
        "date": surface.date,
        "model": model,
        "start_method": manifest.start_method,
        "cost": manifest.cost_kind,
        "feller": feller,
        "start": params_to_dict(kind, result.start) if result.start is not None else None,
        "params": params_to_dict(kind, result.params),
        "cost_value": result.cost_value,
        "iterations": result.iterations,
        "converged": result.converged,
        "feller_satisfied": result.feller_satisfied,
        "rmse_vol": result.rmse_vol,
        "rmse_vega": result.rmse_vega,
        "flags": list(result.flags),
    }


def cmd_pipeline_one_date(manifest, surface, hist):
    """VIX -> estimates -> ts fits -> estimator start -> full calibration,
    for one date on its own; raises the date's FxsvolError."""
    return run_job(pipeline_job(manifest, surface, hist))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(manifest):
    surfaces = load_surfaces(manifest)
    os.makedirs(manifest.output_dir, exist_ok=True)
    report = {"dates": [], "warnings": []}
    for date in selected_dates(manifest, surfaces):
        surf = surfaces[date]
        write_json(os.path.join(manifest.output_dir, f"surface_{date}.json"),
                   surf.to_dict())
        report["dates"].append(date)
        report["warnings"].extend(surf.warnings)
    write_json(os.path.join(manifest.output_dir, "validation.json"), report)
    return EXIT_OK


def cmd_surface(manifest):
    surfaces = load_surfaces(manifest)
    payload = [surfaces[d].to_dict() for d in selected_dates(manifest, surfaces)]
    json.dump(_round12(payload), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


# (manifest, surfaces, hist, job_of) of the run, set in each forked worker
_WORKER_RUN = None


def _init_worker(*run):
    global _WORKER_RUN
    _WORKER_RUN = run


def run_block(dates, run=None):
    """The payloads of a block of dates, their jobs run as lanes (run_lanes),
    each bit for bit the date's one-date run; a date that fails gets
    {"date", "error"}.  A pool worker takes the run its initializer stored."""
    manifest, surfaces, hist, job_of = run or _WORKER_RUN
    results = run_lanes([job_of(manifest, surfaces[d], hist) for d in dates])
    return [{"date": d, "error": str(r)} if isinstance(r, FxsvolError) else r
            for d, r in zip(dates, results)]


def run_dates(manifest, job_of):
    """The payloads of the selected dates in date order, each date's job
    built by job_of(manifest, surface, hist), run in this process or in
    min(jobs, dates) contiguous blocks, one per forked worker process."""
    surfaces = load_surfaces(manifest)
    hist = historical_context(surfaces)
    os.makedirs(manifest.output_dir, exist_ok=True)
    dates = selected_dates(manifest, surfaces)
    run = (manifest, surfaces, hist, job_of)
    workers = min(manifest.jobs, len(dates))
    if workers <= 1:
        return run_block(dates, run)
    # imported here, off the cold start; fork hands the run to each worker
    # once, and a task sends only its block of dates
    import concurrent.futures
    import multiprocessing
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=run) as pool:
        return [p for block in pool.map(run_block, even_split(dates, workers))
                for p in block]


def write_payloads(manifest, payloads, name_of):
    """Each payload as JSON, named name_of(date), in the output directory;
    returns the run's exit code."""
    for p in payloads:
        write_json(os.path.join(manifest.output_dir, name_of(p["date"])), p)
    return EXIT_PARTIAL if any("error" in p for p in payloads) else EXIT_OK


def cmd_vix(manifest):
    payloads = run_dates(manifest, vix_job)
    with open(os.path.join(manifest.output_dir, "vix.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "tenor", "tau", "v2", "v2_corrected",
                         "skew", "kurtosis"])
        for p in payloads:
            writer.writerows(p.get("rows", ()))
    # a failed date writes no rows, only its error record
    return write_payloads(manifest, [p for p in payloads if "error" in p],
                          lambda d: f"vix_{d}.json")


def vix_job(manifest, surface, hist):
    """One date's vix.csv rows as a job that runs no fit."""
    date = surface.date
    om_h, rho_h = hist["heston"][date]
    ts = moments.surface_variance_ts(surface, rho_h=rho_h, omega_h=om_h)
    sets = moments.surface_moment_sets(surface)
    rows = [[date, sl.tenor] + [f"{x:.12g}" for x in (sl.tau, v2, v2c, m.skew, m.kurt)]
            for sl, v2, v2c, m in zip(surface.slices, ts.v2, ts.v2_corrected, sets)]
    return {"date": date, "rows": rows}
    yield  # a generator, so that run_lanes takes it as a job


def cmd_estimate(manifest):
    method, model = manifest.start_method, manifest.model
    return write_payloads(manifest, run_dates(manifest, estimate_job),
                          lambda d: f"estimate_{method}_{model}_{d}.json")


def estimate_job(manifest, surface, hist):
    """One date's estimate as a job that runs no fit."""
    date = surface.date
    method, model = manifest.start_method, manifest.model
    base = {"date": date, "method": method, "model": model, "per_tenor": [],
            "flags": []}
    if method in ("gs", "gr"):
        # gs reads no term structure, but a date whose pipeline fails reports that
        _, hts = variance_pipeline(surface, hist["heston"][date])
    if method == "gs":
        dates = sorted(hist["vix1m"])
        series = [hist["vix1m"][d] for d in dates if d <= date]
        nu0, theta = estimators.guillaume_schoutens(series, window_years=1.0,
                                                    mode="EWMA")
        base.update({"omega": None, "rho": None, "nu0": nu0, "theta": theta})
        return base
    if method == "gr":
        omega, rho = estimators.gr_from_surface(surface, *hts[:3])
        base.update({"omega": omega, "rho": rho,
                     "flags": ["experimental: two-strike expansion route"]})
        return base
    params, _, flags, est = start_with_icm(model, method, surface, hist)
    base.update({"omega": params.omega, "rho": params.rho, "flags": list(flags)})
    if method == "icm" and model == "heston":
        base["per_tenor"] = [
            {"tau": t, "omega2": o, "rho_omega": r} for t, o, r in est.per_tenor]
    return base
    yield  # a generator, so that run_lanes takes it as a job


def cmd_calibrate(manifest):
    rows = run_dates(manifest, pipeline_job)
    write_json(os.path.join(manifest.output_dir, "manifest.json"), asdict(manifest))
    _write_summary_csv(os.path.join(manifest.output_dir, "summary.csv"), rows)
    tail = f"{manifest.model}_{manifest.start_method}_{manifest.cost_kind}.json"
    return write_payloads(manifest, rows, lambda d: f"calibration_{d}_{tail}")


def _write_summary_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "model", "start", "cost_kind", "cost_value",
                         "rmse_vol", "rmse_vega", "iterations", "converged",
                         "feller_satisfied", "error"])
        for r in rows:
            if "error" in r:
                writer.writerow([r["date"], "", "", "", "", "", "", "", "", "",
                                 r["error"]])
                continue
            writer.writerow([
                r["date"], r["model"], r["start_method"], r["cost"],
                f"{r['cost_value']:.12g}", f"{r['rmse_vol']:.12g}",
                f"{r['rmse_vega']:.12g}", r["iterations"], r["converged"],
                r["feller_satisfied"], "",
            ])


def cmd_risk(manifest):
    model, method = manifest.model, manifest.start_method
    return write_payloads(manifest, run_dates(manifest, risk_payload_job),
                          lambda d: f"risk_{d}_{model}_{method}.json")


def risk_payload_job(manifest, surface, hist):
    """One date's calibration-risk protocol as a job: estimator start, then
    one fit per cost kind (calibrate.risk_job)."""
    params, _, _ = build_start(manifest.model, manifest.start_method, surface, hist)
    risk = yield from risk_job(manifest.model, surface, params, grid=manifest.grid())
    return {
        "date": surface.date,
        "model": manifest.model,
        "method": manifest.start_method,
        "risk": dict(risk.per_parameter),
        "per_cost": {ck: params_to_dict(manifest.model, p)
                     for ck, p, _ in risk.results},
    }


# The fields of a calibration JSON that cmd_report groups by and aggregates.
_REPORT_GROUP = ("model", "start_method", "cost")
_REPORT_METRICS = ("rmse_vol", "rmse_vega")


def _report_payload(path):
    """The calibration JSON at path, None if it records an error.  A file
    that is not a JSON object, lacks a key cmd_report reads, has a group
    key that is not a string or a metric that is not a JSON number (true,
    false, NaN and Infinity are not), raises ParseError naming it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ParseError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: not a JSON object")
    if "error" in payload:
        return None
    missing = [key for key in _REPORT_GROUP + _REPORT_METRICS if key not in payload]
    if missing:
        raise ParseError(f"{path}: missing {', '.join(missing)}")
    for key in _REPORT_GROUP:
        if not isinstance(payload[key], str):
            raise ParseError(f"{path}: {key} is not a string: {json.dumps(payload[key])}")
    for key in _REPORT_METRICS:
        value = payload[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ParseError(f"{path}: {key} is not a number: {json.dumps(value)}")
    return payload


def cmd_report(manifest):
    """Aggregate calibration JSONs into mean/sd/min/quartile/max rows."""
    import numpy as np
    rows = []
    try:
        for name in sorted(os.listdir(manifest.input_path)):
            if name.startswith("calibration_") and name.endswith(".json"):
                payload = _report_payload(os.path.join(manifest.input_path, name))
                if payload is not None:
                    rows.append(payload)
    except OSError as exc:  # an input that cannot be read, as in load_surfaces
        raise ParseError(str(exc)) from exc
    groups = {}
    for r in rows:
        key = tuple(r[field] for field in _REPORT_GROUP)
        groups.setdefault(key, []).append(r)
    os.makedirs(manifest.output_dir, exist_ok=True)
    path = os.path.join(manifest.output_dir, "report.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "start", "cost_kind", "metric", "mean", "sd",
                         "min", "q1", "median", "q3", "max", "n"])
        for key in sorted(groups):
            rs = groups[key]
            for metric in _REPORT_METRICS:
                vals = np.asarray([r[metric] for r in rs], dtype=float)
                q1, med, q3 = np.percentile(vals, [25, 50, 75])
                writer.writerow(list(key) + [metric] + [
                    f"{x:.12g}" for x in (vals.mean(), vals.std(ddof=1) if len(vals) > 1 else 0.0,
                                          vals.min(), q1, med, q3, vals.max())
                ] + [len(vals)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _iso_date(text):
    """A YYYY-MM-DD date bound ("": none).  The round trip rejects the other
    forms date.fromisoformat reads, such as 20140603."""
    try:
        ok = not text or datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {text!r}")
    return text


def _add_common(p, jobs=False):
    p.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                   help="quote CSV (or JSON dir for report)")
    p.add_argument("--output-dir", default="out")
    p.add_argument("--vols-decimal", action="store_true",
                   help="vol columns already in decimals, not percentage points")
    p.add_argument("--grid-min", type=float, default=DEFAULT_GRID.w_min)
    p.add_argument("--grid-max", type=float, default=DEFAULT_GRID.w_max)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID.dw)
    if jobs:
        p.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="run the dates as lanes in N contiguous blocks, one per "
                            "forked worker process (1: in this process)")
    p.add_argument("--date-from", type=_iso_date, default="")
    p.add_argument("--date-to", type=_iso_date, default="")


def build_parser():
    parser = argparse.ArgumentParser(prog="fxsvol",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("ingest", "surface", "vix"):
        p = sub.add_parser(name)
        _add_common(p, jobs=name == "vix")

    p = sub.add_parser("estimate")
    _add_common(p, jobs=True)
    p.add_argument("--method", dest="start_method", required=True,
                   choices=["icm", "durrleman", "gr", "gs", "hist"])
    p.add_argument("--model", default="heston", choices=["heston", "sz"])

    p = sub.add_parser("calibrate")
    _add_common(p, jobs=True)
    p.add_argument("--model", required=True,
                   choices=["heston", "sz", "bates2f", "bates2f-feller", "ouou"])
    p.add_argument("--start", dest="start_method", required=True,
                   choices=["icm", "durrleman", "hist", "twostage", "evp", "mevp"])
    p.add_argument("--cost", dest="cost_kind", default="mse",
                   choices=["mse", "mae", "mape"])
    p.add_argument("--feller", action="store_true")
    p.add_argument("--max-iter", type=_int_at_least(0), default=0,
                   help="every surface fit's cap (0: 1600, 800 above 5 coordinates)")
    p.add_argument("--stop-any", action="store_true",
                   help="stop when either tolerance is met instead of both (one-factor models)")

    p = sub.add_parser("risk")
    _add_common(p, jobs=True)
    p.add_argument("--model", default="heston", choices=["heston", "sz"])
    p.add_argument("--method", dest="start_method", default="icm",
                   choices=["icm", "durrleman", "hist"])

    p = sub.add_parser("report")
    _add_common(p)
    return parser


# the start methods (--start, estimate's --method) each model runs where the
# parser allows more; main rejects the others, which fail every date
RUNNABLE_STARTS = {
    ("calibrate", "heston"): ("icm", "durrleman", "hist"),
    ("calibrate", "sz"): ("icm", "durrleman", "hist"),
    ("calibrate", "bates2f"): ("icm", "evp", "mevp", "twostage"),
    ("calibrate", "bates2f-feller"): ("icm", "mevp", "twostage"),
    ("calibrate", "ouou"): ("icm", "mevp", "twostage"),
    ("estimate", "sz"): ("icm", "durrleman", "hist"),
}


def manifest_from_args(args):
    """The run's manifest: each parsed option is the field of its dest, and a
    field the subcommand has no option for keeps its default."""
    return RunManifest(**vars(args))


def _keep_freed_heap():
    """Have glibc keep up to 16 MB of freed heap in the process.

    A lane kernel call (calibrate.run_lanes) allocates and frees a few MB of
    numpy temporaries.  By default glibc returns the free top of its heap to
    the OS once it passes 128 kB, and serves blocks of 128 kB or more by
    mmap, raising both limits only after it frees a larger mmap'd block; so
    unless some earlier step happened to free one, every kernel call
    page-faults its temporaries in again.  Does nothing where the C library
    has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 4 << 20)   # M_MMAP_THRESHOLD


def main(argv=None):
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = manifest_from_args(args)
    try:
        manifest.grid()
    except InvariantViolation as exc:
        parser.error(str(exc))
    starts = RUNNABLE_STARTS.get((manifest.command, manifest.model), ())
    if starts and manifest.start_method not in starts:
        flag = "--start" if manifest.command == "calibrate" else "--method"
        parser.error(f"argument {flag}: {manifest.start_method!r} does not run with --model "
                     f"{manifest.model} (choose from {', '.join(map(repr, starts))})")
    if manifest.stop_any and factor_count(manifest.model.removesuffix("-feller")) > 1:
        parser.error(f"argument --stop-any: does not run with two-factor --model {manifest.model}")
    handlers = {
        "ingest": cmd_ingest,
        "surface": cmd_surface,
        "vix": cmd_vix,
        "estimate": cmd_estimate,
        "calibrate": cmd_calibrate,
        "risk": cmd_risk,
        "report": cmd_report,
    }
    try:
        return handlers[manifest.command](manifest)
    except BrokenPipeError:
        # stdout's reader went away: stop quietly, the output partial, with
        # stdout on devnull so that its flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PARTIAL
    except ParseError as exc:
        print(f"input invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FxsvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
