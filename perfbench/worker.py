"""Runs one benchmark workload in a fresh interpreter and reports raw timings.

Usage: python3 perfbench/worker.py CONFIG_JSON

The config names the workload, the quote CSV, the calibration dates, the
output directory, the measuring time and whether to trace.  Each pass
calibrates its dates in one call, the way a user runs ``fxsvol calibrate
--date-from D1 --date-to D2``: untraced, all the dates, once or more while
the time lasts; traced, windows of them, each untraced and then traced,
which gives the tracing overhead on equal work.  A date calibrated twice
must give the same bytes, so an untraced run ends with an untimed pass over
the first dates again.

Untraced, a timer signal samples the host's speed all through the passes,
and each pass also carries its times in reference seconds (``refclock.py``).

A pass's per-date phase is timed from the calibrate call's own boundaries:
from the end of ``historical_context`` (the last set-up step) to the return
of ``cli.main``; for the library caller, the loop over the dates.  A
timer-only wrapper around the per-date entry point adds each date's wall
time when every date passes through it in this process; a change that moves
the dates elsewhere (a process pool, a batched fit) leaves the pass without
them, and ``run.py`` says so.

The worker writes ``worker.json`` (and ``spans.jsonl`` when tracing) into the
output directory; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fxsvol import calibrate, cli  # noqa: E402
from fxsvol.errors import FxsvolError  # noqa: E402
import refclock  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracer import Tracer, date_of, modules_seen  # noqa: E402

# name -> how the workload calls fxsvol; see BENCHMARK.json for why each exists
CLI_ARGS = {
    "heston-price": ["--model", "heston", "--start", "icm", "--cost", "mse", "--jobs", "1"],
    "bates2f-jobs2": ["--model", "bates2f", "--start", "evp", "--jobs", "2",
                      "--max-iter", "150"],
}
LIBRARY_WORKLOADS = ("heston-ivtarget",)
# the Nelder-Mead cap of the library workload, like bates2f-jobs2's --max-iter:
# every date stops at the cap, so per-date work hardly depends on the seed and
# a run's 40 dates take about as long as on the other workloads
IV_MAX_ITER = 60
# dates per calibrate call in a traced run, whose passes are twice as slow
TRACE_WINDOW = 8
# dates the untimed last pass of an untraced run calibrates again
CHECK_DATES = 2


def iv_one_date(surface, hist):
    """The library caller's per-date step: estimator start, then the IV-target fit."""
    start, _, _ = cli.build_start("heston", "icm", surface, hist)
    return calibrate.calibrate_full("heston", surface, start,
                                    cost_spec=calibrate.CostSpec(target="implied_vol"),
                                    max_iter=IV_MAX_ITER)


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed(fn):
    """Timer-only wrapper; appends (date, start, end, cpu) per call to .records.

    It takes fn's name and module, so pickle can still send the patched
    function to a process pool by reference; calls made in a child process
    are not recorded.
    """
    records = []

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            records.append((date_of(args), t0, time.perf_counter(), _cpu()))

    functools.update_wrapper(wrapper, fn)
    wrapper.records = records
    return wrapper


def _digest_dir(path, dates):
    """{file: sha256} of a pass's outputs but the manifest.

    A per-date file is keyed by its name; any other file (the summary)
    covers the pass's dates and is keyed by them too.
    """
    out = {}
    for name in sorted(os.listdir(path)):
        if name != "manifest.json":
            key = name if name.startswith("calibration_") else f"{name} {dates[0]}..{dates[-1]}"
            with open(os.path.join(path, name), "rb") as fh:
                out[key] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    def __init__(self, cfg):
        self.cfg = cfg
        self.workload = cfg["workload"]
        self.library = self.workload in LIBRARY_WORKLOADS
        if self.library:
            self.owner, self.attr = sys.modules[__name__], "iv_one_date"
            self.span_name = "bench.iv_one_date"
            manifest = cli.RunManifest(command="calibrate", input_path=cfg["csv"],
                                       output_dir=cfg["out"])
            self.surfaces = cli.load_surfaces(manifest)
            self.hist = cli.historical_context(self.surfaces)
        else:
            self.owner, self.attr = cli, "cmd_pipeline_one_date"
            self.span_name = "cli.cmd_pipeline_one_date"
            # marks where the calibrate call's set-up ends
            self.setup_end = timed(cli.historical_context)
            cli.historical_context = self.setup_end
        self.timer = timed(getattr(self.owner, self.attr))
        setattr(self.owner, self.attr, self.timer)

    def _library_pass(self, dates, out_dir):
        for d in dates:
            try:
                res = iv_one_date(self.surfaces[d], self.hist)
                payload = {
                    "date": d, "model": "heston", "start_method": "icm",
                    "cost": "mse", "feller": False,
                    "start": cli.params_to_dict("heston", res.start),
                    "params": cli.params_to_dict("heston", res.params),
                    "cost_value": res.cost_value, "iterations": res.iterations,
                    "converged": res.converged,
                    "feller_satisfied": res.feller_satisfied,
                    "rmse_vol": res.rmse_vol, "rmse_vega": res.rmse_vega,
                    "flags": list(res.flags),
                }
            except FxsvolError as exc:
                payload = {"date": d, "error": str(exc)}
            with open(os.path.join(out_dir, f"calibration_{d}.json"), "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return 0

    def run_pass(self, dates, out_dir):
        """Calibrate the dates in one call; returns the pass record."""
        os.makedirs(out_dir)
        first = len(self.timer.records)
        if self.library:
            start, c_start = time.perf_counter(), _cpu()
            exit_code = self._library_pass(dates, out_dir)
        else:
            argv = (["calibrate", "--input", self.cfg["csv"], "--output-dir", out_dir]
                    + CLI_ARGS[self.workload]
                    + ["--date-from", dates[0], "--date-to", dates[-1]])
            seen = len(self.setup_end.records)
            start, c_start = time.perf_counter(), _cpu()
            exit_code = cli.main(argv)
            if len(self.setup_end.records) > seen:
                _, _, start, c_start = self.setup_end.records[-1]
        end, c_end = time.perf_counter(), _cpu()
        recs = self.timer.records[first:]
        return {
            "dates": list(dates),
            "exit_code": exit_code,
            "phase_wall": end - start,
            "phase_cpu": c_end - c_start,
            "phase_span": [start, end],
            # [] when the per-date calls did not all pass through this process
            "date_spans": ([[r[0], r[1], r[2]] for r in recs]
                           if len(recs) == len(dates) else []),
            "digests": _digest_dir(out_dir, dates),
            "dir": out_dir,
        }


def main(cfg):
    runner = Runner(cfg)
    trace = cfg["trace"]
    tracer = Tracer() if trace else None
    patches = tracer.patches((runner.owner, runner.attr, runner.span_name)) if trace else None
    if trace and runner.library:
        # the library caller loads once; trace one load so the set-up layers show
        tracer.install(patches)
        try:
            manifest = cli.RunManifest(command="calibrate", input_path=cfg["csv"],
                                       output_dir=cfg["out"])
            cli.historical_context(cli.load_surfaces(manifest))
        finally:
            tracer.uninstall()

    # untraced runs read the host's rate all through; traced runs report wall
    # times (their metrics are shares and per-call figures)
    sampler = None if trace else refclock.Sampler()
    with sampler or contextlib.nullcontext():
        records = run_passes(runner, cfg, tracer, patches)
    for rec in records:
        rec["date_walls"] = [[d, t1 - t0] for d, t0, t1 in rec["date_spans"]]
        if sampler:
            rec["phase_ref"] = sampler.ref_seconds(*rec["phase_span"])
            rec["date_refs"] = [[d, sampler.ref_seconds(t0, t1)]
                                for d, t0, t1 in rec["date_spans"]]
            rec["phase_steal"] = sampler.stolen(*rec["phase_span"])
    result = {
        "passes": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if sampler:
        result["ref_chunk_s"] = sampler.rates
    if trace:
        result["layers"] = layer_metrics(tracer, records)
        result["modules"] = modules_seen(tracer.buffers)
        tracer.write_jsonl(os.path.join(cfg["out"], "spans.jsonl"))
    with open(os.path.join(cfg["out"], "worker.json"), "w") as fh:
        json.dump(result, fh)


def run_passes(runner, cfg, tracer, patches):
    """Calibrate the dates; returns the pass records.

    Untraced, each pass is one calibrate call over all the dates, and a run
    makes as many passes as --seconds holds at the pace of the first, at
    least one, so every date counts the same whatever the host's speed; a
    last untimed pass repeats the first CHECK_DATES dates, so every run
    checks that a date's outputs repeat.  Traced, the dates are cut into
    windows of TRACE_WINDOW; each window runs untraced and then traced,
    from the first on while the time lasts (the per-layer metrics are per
    date).
    """
    dates = cfg["dates"]
    trace = cfg["trace"]
    size = TRACE_WINDOW if trace else len(dates)
    windows = [dates[i:i + size] for i in range(0, len(dates), size)]
    records = []
    start = time.perf_counter()
    n_pass = 0
    # start another pass while it fits at the pace so far
    while n_pass == 0 or (time.perf_counter() - start) * (n_pass + 1) / n_pass <= cfg["seconds"]:
        window = windows[n_pass % len(windows)]
        tag = f"pass{n_pass}"
        rec = runner.run_pass(window, os.path.join(cfg["out"], tag))
        rec.update(n_pass=n_pass, traced=False, check=False)
        records.append(rec)
        if trace:
            tracer.install(patches)
            try:
                rec = runner.run_pass(window, os.path.join(cfg["out"], tag + "-traced"))
            finally:
                tracer.uninstall()
            rec.update(n_pass=n_pass, traced=True, check=False)
            records.append(rec)
        n_pass += 1
    if not trace:
        rec = runner.run_pass(windows[0][:CHECK_DATES], os.path.join(cfg["out"], "check"))
        rec.update(n_pass=n_pass, traced=False, check=True)
        records.append(rec)
    return records


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        main(json.load(fh))
