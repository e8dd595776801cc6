"""Per-layer metrics derived from a traced run, and what each should move.

Counts and seconds are per calibrated date ("/date") unless they belong to
the set-up phase (``load_surfaces`` and ``historical_context``, "/load"), so
runs that calibrate a different number of dates stay comparable.
"""

from __future__ import annotations

from tracer import summarize

# metric -> the end-to-end metric it should move, and on which workload
PREDICTIONS = {
    "charfn.cf.count": "dates_per_s, date_p50_s on all three, most on heston-price and "
                       "bates2f-jobs2; a whole-surface kernel cuts it",
    "charfn.cf.nodes": "unchanged by a whole-surface kernel (same nodes, fewer calls)",
    "charfn.cf.s": "dates_per_s, date_p50_s on all three, most on heston-price and "
                   "bates2f-jobs2",
    "charfn.cf.ns_per_node": "dates_per_s on all three; the CF kernel's own speed",
    "charfn.cf.overflow": "error_rate on all three (an overflow aborts the date)",
    "pricer.attari_strip.count": "dates_per_s on heston-price",
    "pricer.attari_strip.cells": "dates_per_s on heston-price",
    "pricer.attari_strip.self_s": "dates_per_s on heston-price (holds _takes_j)",
    "pricer.implied_vol.count": "dates_per_s on heston-ivtarget; no change on heston-price",
    "pricer.implied_vol.s": "dates_per_s on heston-ivtarget; no change on heston-price",
    "pricer.implied_vol.failed": "error_rate on heston-ivtarget",
    "pricer.implied_vol.iters_per_call": "dates_per_s on heston-ivtarget",
    "calibrate.cost.evals": "dates_per_s on all three; rmse_vol_bp if it changes",
    "calibrate.cost.us_per_eval": "dates_per_s on all three",
    "calibrate.cost.self_s": "dates_per_s on all three",
    "calibrate.cost.penalty_frac": "dates_per_s (wasted evaluations)",
    "calibrate.model_calls.s": "dates_per_s on heston-price and bates2f-jobs2",
    "calibrate.model_vols.s": "dates_per_s on heston-ivtarget",
    "calibrate.rmse_report.s": "date_p50_s on all three",
    "calibrate.nelder_mead.count": "dates_per_s on all three (surface fits per date)",
    "calibrate.nelder_mead.iterations": "dates_per_s, most on bates2f-jobs2; any change "
                                        "must show in rmse_vol_bp",
    "calibrate.nelder_mead.converged_frac": "rmse_vol_bp, most on bates2f-jobs2",
    "calibrate.nelder_mead.self_s": "dates_per_s, most on bates2f-jobs2",
    "calibrate.fit.rmse_vol_bp": "none by itself: a speed-up that moves it bought speed "
                                 "with fit quality",
    "calibrate.ts_fit.s": "date_p50_s on all three",
    "calibrate.ts_fit.iterations": "date_p50_s on all three",
    "cli.build_start.s": "date_p50_s on all three",
    "cli.write_json.s": "dates_per_s on the cli workloads",
    "cli.concurrency": "dates_per_s on bates2f-jobs2 only",
    "cli.cpu_per_wall": "dates_per_s on bates2f-jobs2 only (about 1 under the GIL)",
    "market_data.ingest_csv.s": "setup_s on every workload",
    "market_data.build_surface.s": "setup_s on every workload",
    "moments.otm_strip.s": "date_p50_s on all three",
    "moments.surface_variance_ts.s": "date_p50_s on all three",
    "moments.surface_moment_sets.s": "date_p50_s on all three",
    "estimators.historical_omega_rho.s": "setup_s on every workload",
    "estimators.icm_heston.s": "date_p50_s on all three",
    "estimators.split.s": "date_p50_s on bates2f-jobs2",
    "trace.overhead_frac": "none: the cost of tracing itself",
    "trace.unattributed_frac": "none: per-date time outside every traced layer",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, passes):
    """{metric: value} from the tracer's spans and the worker's pass records."""
    spans = summarize(tracer.buffers)
    gk_calls = tracer.counts().get("pricer.gk_price", 0)

    def count(name, where=lambda sp: True):
        return sum(1 for sp in spans.get(name, ()) if where(sp))

    def secs(name, where=lambda sp: True, own=False):
        return sum(sp[1 if own else 0] for sp in spans.get(name, ()) if where(sp))

    def notes(name):
        return [sp[4] for sp in spans.get(name, ())]

    per_date = ("cli.cmd_pipeline_one_date" if "cli.cmd_pipeline_one_date" in spans
                else "bench.iv_one_date")
    dates = sum(len(p["dates"]) for p in passes if p["traced"])
    loads = count("cli.load_surfaces")

    def daily(x):
        return _ratio(x, dates)

    m = {}
    cf_nodes = sum(x for x in notes("charfn.cf") if isinstance(x, int))
    m["charfn.cf.count"] = daily(count("charfn.cf"))
    m["charfn.cf.nodes"] = daily(cf_nodes)
    m["charfn.cf.s"] = daily(secs("charfn.cf"))
    m["charfn.cf.ns_per_node"] = 1e9 * _ratio(secs("charfn.cf"), cf_nodes)
    m["charfn.cf.overflow"] = daily(notes("charfn.cf").count("NumericOverflow"))

    m["pricer.attari_strip.count"] = daily(count("pricer.attari_strip"))
    m["pricer.attari_strip.cells"] = daily(sum(x for x in notes("pricer.attari_strip")
                                               if isinstance(x, int)))
    m["pricer.attari_strip.self_s"] = daily(secs("pricer.attari_strip", own=True))

    iv_calls = count("pricer.implied_vol")
    m["pricer.implied_vol.count"] = daily(iv_calls)
    m["pricer.implied_vol.s"] = daily(secs("pricer.implied_vol"))
    m["pricer.implied_vol.failed"] = daily(notes("pricer.implied_vol").count("OutOfBounds"))
    m["pricer.implied_vol.iters_per_call"] = _ratio(gk_calls, iv_calls)

    evals = count("calibrate.cost")
    m["calibrate.cost.evals"] = daily(evals)
    m["calibrate.cost.us_per_eval"] = 1e6 * _ratio(secs("calibrate.cost"), evals)
    m["calibrate.cost.self_s"] = daily(secs("calibrate.cost", own=True))
    m["calibrate.cost.penalty_frac"] = _ratio(notes("calibrate.cost").count(True), evals)
    for name in ("model_calls", "model_vols", "rmse_report"):
        m[f"calibrate.{name}.s"] = daily(secs(f"calibrate.{name}"))

    def surface_fit(sp):
        return sp[2] == "calibrate.calibrate_full"

    def ts_fit(sp):
        return sp[2] == "calibrate.calibrate_variance_ts"

    nm = spans.get("calibrate.nelder_mead", ())
    fits = [sp[4] for sp in nm if surface_fit(sp) and isinstance(sp[4], list)]
    ts_fits = [sp[4] for sp in nm if ts_fit(sp) and isinstance(sp[4], list)]
    m["calibrate.nelder_mead.count"] = daily(len(fits))
    m["calibrate.nelder_mead.iterations"] = _ratio(sum(x[0] for x in fits), len(fits))
    m["calibrate.nelder_mead.converged_frac"] = _ratio(sum(1 for x in fits if x[1]),
                                                       len(fits))
    m["calibrate.nelder_mead.self_s"] = daily(secs("calibrate.nelder_mead", surface_fit,
                                                   own=True))
    m["calibrate.ts_fit.s"] = daily(secs("calibrate.nelder_mead", ts_fit))
    m["calibrate.ts_fit.iterations"] = _ratio(sum(x[0] for x in ts_fits), len(ts_fits))

    plain = [p for p in passes if not p["traced"]]
    phase = sum(p["phase_wall"] for p in plain)
    # 0 when the per-date calls left this process (run.py notes it)
    timed = [p for p in plain if p["date_walls"]]
    m["cli.build_start.s"] = daily(secs("cli.build_start"))
    m["cli.write_json.s"] = daily(secs("cli.write_json"))
    m["cli.concurrency"] = _ratio(sum(w for p in timed for _, w in p["date_walls"]),
                                  sum(p["phase_wall"] for p in timed))
    m["cli.cpu_per_wall"] = _ratio(sum(p["phase_cpu"] for p in plain), phase)

    for name in ("market_data.ingest_csv", "market_data.build_surface",
                 "estimators.historical_omega_rho"):
        m[name + ".s"] = _ratio(secs(name), loads)
    m["moments.otm_strip.s"] = daily(secs("moments.otm_strip", lambda sp: sp[3] is not None))
    for name in ("moments.surface_variance_ts", "moments.surface_moment_sets",
                 "estimators.icm_heston"):
        m[name + ".s"] = daily(secs(name))
    m["estimators.split.s"] = daily(secs("estimators.evp_split")
                                    + secs("estimators.mevp_split"))

    # each traced pass directly follows an untraced pass over the same window
    pairs = [(a, b) for a, b in zip(passes, passes[1:]) if b["traced"] and not a["traced"]]
    m["trace.overhead_frac"] = _ratio(sum(b["phase_wall"] for _, b in pairs),
                                      sum(a["phase_wall"] for a, _ in pairs)) - 1.0
    m["trace.unattributed_frac"] = _ratio(secs(per_date, own=True), secs(per_date))
    return m
