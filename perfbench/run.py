"""fxsvol calibration benchmark.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The seed fixes a synthetic quote history (``history.py``): 62 warm-up dates
and the 40 dates every workload calibrates.  Each workload runs in a fresh
worker process (``worker.py``): one calibrate call over the 40 dates per
pass, as many passes as ``--seconds`` holds at the pace of the first, at
least one, then an untimed repeat of two dates.  Before that,
``setup_probe.py`` times the cold start of the calibrate front end.  Paths
are resolved from this file, not the working directory.

Times are in reference seconds (``refclock.py``): wall seconds less the
hypervisor's steal, scaled by the host's rate measured next to the work
on a fixed kernel, so that the shared host's changes of speed (up to 2x,
for minutes) cancel.  The wall-clock figures are printed too, unbounded.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median of 5 cold starts (import fxsvol.cli, load_surfaces,
               historical_context on the history)
  dates_per_s  dates calibrated by the untraced passes / the sum of their
               per-date phases (end of historical_context to the return of
               the calibrate call)
  date_p50_s, date_tail_s
               per-date time, from a timer-only wrapper around the per-date
               entry point, the median over its passes for each date; the
               tail is the highest percentile with ten dates beyond it (the
               maximum below twenty dates).  When the per-date calls do not
               all pass through the worker process, both are the mean
               per-date phase time instead, and a note says so.
  peak_rss_mb  the worker process's memory high-water mark
It also prints, unbounded, rmse_vol_bp (median fit error) and error_rate.
With ``--trace 1`` it reports the per-layer metrics, measured by wrapping
fxsvol's public functions from outside (``tracer.py``, ``layers.py``), on
8-date windows, each run untraced and then traced.

Either way the outputs are checked first: every calibration JSON must
validate against the package schema, and each date's file must be
byte-identical every time it is written with the same code, settings and
input, in this run (repeats, traced passes) and in earlier runs (a reference
kept under ``.perfbench_out/``).  A failed check prints no timings and exits 1.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
where ``attempted`` and ``failed`` count date calibrations and the dates that
ended in an error payload.  Runs of the same workload must not overlap: they
share an output directory.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
for _p in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from history import CAL_DATES, WARMUP_DATES, history_csv  # noqa: E402
import refclock  # noqa: E402
from layers import PREDICTIONS  # noqa: E402

WORKLOADS = ("heston-price", "heston-ivtarget", "bates2f-jobs2")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run or its outputs failed the correctness gate."""

    def __init__(self, message, attempted=0, failed=0):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def preflight():
    needed = [os.path.join(ROOT, "src", "fxsvol", "cli.py"),
              os.path.join(ROOT, "src", "fxsvol", "schemas", "calibration.schema.json"),
              os.path.join(ROOT, "tests", "synthutil.py"),
              os.path.join(ROOT, "tests", "conftest.py"),
              os.path.join(ROOT, "BENCHMARK.json")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError(f"incomplete checkout, missing {missing}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_files():
    pkg = os.path.join(ROOT, "src", "fxsvol")
    return sorted(glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True)
                  + glob.glob(os.path.join(pkg, "schemas", "*.json")))


def provenance(seed, csv_path):
    import numpy
    import scipy

    py_lines = 0
    for path in source_files():
        if path.endswith(".py"):
            with open(path) as fh:
                py_lines += sum(1 for _ in fh)
    rev = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = None
    if rev is not None:
        status = _git("status", "--porcelain", "--", "src", "tests", "perfbench")
        dirty = bool(status) if status is not None else None
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "csv_sha256": sha256_file(csv_path),
        "src_fxsvol_py_lines": py_lines,
    }


def code_fingerprint():
    """Hash of what shapes the outputs: the package and the benchmark's code."""
    h = hashlib.sha256()
    for path in source_files() + sorted(glob.glob(os.path.join(HERE, "*.py"))):
        h.update(os.path.relpath(path, ROOT).encode())
        h.update(sha256_file(path).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _children_cpu():
    t = os.times()
    return t.children_user + t.children_system


def time_setup(csv_path, probes=SETUP_PROBES):
    """(reference, wall) seconds of a cold interpreter reaching the first date.

    Each is the median of ``probes`` cold starts.  The reference kernel is
    timed before and after each start, and a start counts its wall time
    less the steal in it, at the mean of the two rates.
    """
    walls, refs = [], []
    before = refclock.measure()
    for _ in range(probes):
        stolen, cpu, t0 = refclock.steal_s(), _children_cpu(), time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), csv_path],
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        # steal counts every vCPU: take at most the time the probe ran nowhere
        stolen = min(refclock.steal_s() - stolen, max(0.0, wall - (_children_cpu() - cpu)))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        after = refclock.measure()
        walls.append(wall)
        refs.append(refclock.ref_seconds(wall, stolen, 0.5 * (before + after)))
        before = after
    return statistics.median(refs), statistics.median(walls)


def run_worker(cfg):
    cfg_path = os.path.join(cfg["out"], "worker_config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(os.path.join(cfg["out"], "worker.json")) as fh:
        return json.load(fh)


def tail(values):
    """(seconds, label): the highest percentile with TAIL_BEYOND values above it.

    With fewer than 2 * TAIL_BEYOND values no percentile at or above the
    median has that many beyond it, and the maximum is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], f"p{100.0 * (k + 1) / n:.0f} of {n} dates ({TAIL_BEYOND} beyond)"
    return xs[-1], f"max of {n} dates (fewer than {2 * TAIL_BEYOND})"


def date_figures(timed, phase_key, dates_key):
    """({dates_per_s, date_p50_s, date_tail_s}, notes) of the untimed passes.

    phase_key/dates_key pick wall or reference seconds.  A date that ran more
    than once counts with the median of its times, so p50 and tail are over
    the same dates whatever the host's speed.  When the per-date calls did
    not all pass through the worker's timer, both fall back to the mean
    per-date phase time.
    """
    per_date = sum(p[phase_key] for p in timed) / sum(len(p["dates"]) for p in timed)
    notes = {}
    if all(p[dates_key] for p in timed):
        by_date = {}
        for p in timed:
            for d, x in p[dates_key]:
                by_date.setdefault(d, []).append(x)
        xs = [statistics.median(v) for v in by_date.values()]
        tail_s, notes["date_tail_s"] = tail(xs)
        p50_s = statistics.median(xs)
    else:
        p50_s = tail_s = per_date
        notes["date_p50_s"] = notes["date_tail_s"] = (
            "the per-date calls did not all run through the worker's timer; "
            "reported as the mean per-date phase time")
    return {"dates_per_s": 1.0 / per_date, "date_p50_s": p50_s, "date_tail_s": tail_s}, notes


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def check_outputs(name, result, ref_key):
    """(attempted, failed, {date: payload}) or BenchError.

    Every calibration file must pass the schema, and each file name (one per
    date) must have the same bytes every time a pass writes it, in this run
    and in earlier runs on the same code, settings and input.
    """
    import jsonschema

    with open(os.path.join(ROOT, "src", "fxsvol", "schemas", "calibration.schema.json")) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    problems = []
    first = {}
    attempted = failed = 0
    payloads = {}
    for rec in result["passes"]:
        label = f"pass {rec['n_pass']}{' (traced)' if rec['traced'] else ''}"
        if rec["exit_code"] not in (0, 1):
            problems.append(f"{label} exited {rec['exit_code']}")
        changed = sorted(k for k, v in rec["digests"].items() if first.setdefault(k, v) != v)
        if changed:
            problems.append(f"{label} differs from the first pass over the same dates "
                            f"in {changed}")
        paths = sorted(glob.glob(os.path.join(rec["dir"], "calibration_*.json")))
        if len(paths) != len(rec["dates"]):
            problems.append(f"{label} wrote {len(paths)} calibration files for "
                            f"{len(rec['dates'])} dates")
        for path in paths:
            with open(path) as fh:
                payload = json.load(fh)
            errors = sorted(e.message for e in validator.iter_errors(payload))
            if errors:
                problems.append(f"{os.path.basename(path)} fails the schema: {errors[:3]}")
            attempted += 1
            failed += "error" in payload
            payloads.setdefault(payload["date"], payload)

    ref_path = os.path.join(OUT, "reference", f"{name}-{ref_key[:16]}.json")
    earlier = {}
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            earlier = json.load(fh)
    changed = sorted(k for k in set(first) & set(earlier) if first[k] != earlier[k])
    if changed:
        problems.append(f"outputs differ from an earlier run on the same code, settings "
                        f"and input ({ref_path}) in {changed}")
    if problems:
        raise BenchError("correctness gate failed:\n  " + "\n  ".join(problems),
                         attempted, failed)
    if set(first) - set(earlier):
        os.makedirs(os.path.dirname(ref_path), exist_ok=True)
        with open(ref_path, "w") as fh:
            json.dump({**earlier, **first}, fh, indent=1, sort_keys=True)
    return attempted, failed, payloads


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, n_dates=CAL_DATES, warmup=WARMUP_DATES):
    """Generate, measure and check one workload; returns the result dict.

    The history is the same for every workload of a seed; the workloads
    calibrate its last n_dates dates.  Smaller n_dates and warmup make a
    tiny history (tests).
    """
    out = os.path.join(OUT, "runs", f"{name}-trace{int(trace)}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    csv_path, dates = history_csv(os.path.join(OUT, "history"), seed, warmup + n_dates)
    prov = provenance(seed, csv_path)
    setup_s, setup_wall_s = time_setup(csv_path)
    cal_dates = dates[-n_dates:]
    result = run_worker({"workload": name, "csv": csv_path, "dates": cal_dates,
                         "out": out, "seconds": seconds, "trace": bool(trace)})
    ref_key = hashlib.sha256(json.dumps(
        [name, prov["csv_sha256"], code_fingerprint(),
         prov["python"], prov["numpy"], prov["scipy"]]
    ).encode()).hexdigest()
    attempted, failed, payloads = check_outputs(name, result, ref_key)

    timed = [p for p in result["passes"] if not (p["traced"] or p["check"])]
    n_timed = sum(len(p["dates"]) for p in timed)
    covered = (f"{n_timed} dates in {len(timed)} calls over the last {n_dates} dates "
               f"({cal_dates[0]} to {cal_dates[-1]})")
    ok = [p for p in payloads.values() if "error" not in p]
    rmse = [p["rmse_vol"] * 1e4 for p in ok]
    rmse_bp = statistics.median(rmse) if rmse else 0.0
    notes = {"nm_iterations": f"{sum(p['iterations'] for p in ok)} over {len(ok)} fits"}
    # printed with the end-to-end metrics but not bounded: error_rate is 0 on
    # these inputs (the result line carries it as failed/attempted), and the
    # fit error of one date moves chaotically with the last bits of the start
    reported = {"error_rate": (failed / attempted, "ratio", f"{failed} of {attempted} date runs")}
    if trace:
        notes["dates"] = covered + ", each untraced and then traced"
        missing = {"cli", "market_data", "moments", "estimators", "calibrate", "pricer",
                   "charfn"} - set(result["modules"])
        if missing:
            # work moved to child processes, where the wrappers record nothing
            notes["modules_without_spans"] = (f"{sorted(missing)}: their metrics read 0")
        figures = dict(result["layers"])
        figures["calibrate.fit.rmse_vol_bp"] = rmse_bp
        if not all(p["date_walls"] for p in timed):
            notes["cli.concurrency"] = ("the per-date calls did not all run through the "
                                        "worker's timer; reported over the passes whose calls did (0 if none)")
        notes["spans"] = os.path.join(os.path.relpath(out, ROOT), "spans.jsonl")
    else:
        notes["dates"] = covered
        figures, more = date_figures(timed, "phase_ref", "date_refs")
        notes.update(more)
        notes["reference_seconds"] = (
            f"setup_s, dates_per_s, date_p50_s and date_tail_s are in reference seconds "
            f"(refclock.py); the reference chunk took a median "
            f"{1e3 * statistics.median(result['ref_chunk_s']):.3f} ms in this "
            f"run, {1e3 * refclock.REF_CHUNK_S:.3f} ms nominal; steal "
            f"{sum(p['phase_steal'] for p in timed):.2f} s")
        figures["setup_s"] = setup_s
        figures["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        reported["rmse_vol_bp"] = (rmse_bp, "bp", f"median over {len(rmse)} dates")
        walls, _ = date_figures(timed, "phase_wall", "date_walls")
        walls["setup_s"] = setup_wall_s
        for key, unit in (("setup_s", "s"), ("dates_per_s", "1/s"), ("date_p50_s", "s"),
                          ("date_tail_s", "s")):
            reported["wall." + key] = (walls[key], unit, f"{key} in wall seconds")
    return {"workload": name, "attempted": attempted, "failed": failed,
            "figures": figures, "reported": reported, "notes": notes, "provenance": prov}


def report(res, units, trace):
    """Print the human-readable table and the result line; returns the line."""
    print(f"== {res['workload']} (seed {res['provenance']['seed']}, "
          f"{'traced' if trace else 'untraced'})")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    for key, text in res["notes"].items():
        print(f"  note {key}: {text}")
    for name, unit in units.items():
        line = f"  {name:38s} {res['figures'][name]:14.6g} {unit}"
        if trace:
            line += f"   -> {PREDICTIONS[name]}"
        print(line)
    for name, (value, unit, how) in res["reported"].items():
        print(f"  {name:38s} {value:14.6g} {unit}   ({how}; not bounded)")
    line = {"correct": True, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {n: {"value": res["figures"][n], "unit": u} for n, u in units.items()}}
    print(json.dumps(line), flush=True)
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    e2e_units, layer_units = benchmark_spec()
    units = layer_units if args.trace else e2e_units
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            if exc.attempted:
                print(json.dumps({"correct": False, "attempted": exc.attempted,
                                  "failed": exc.failed, "metrics": {}}))
            status = 1
            continue
        report(res, units, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
