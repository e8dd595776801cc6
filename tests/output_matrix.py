"""Run the byte-comparison matrix of fxsvol commands and keep every output.

Usage:
    PYTHONPATH=src python tests/output_matrix.py QUOTES.csv OUT_ROOT \
        [--date-from YYYY-MM-DD] [--date-to YYYY-MM-DD]

Each command of MATRIX runs in this process through cli.main, on the date
range given, with its output directory OUT_ROOT/<name>; its exit code and
stderr go to OUT_ROOT/<name>.exit and OUT_ROOT/<name>.stderr.  The output
directories are given relative to OUT_ROOT, so the manifests do not name it.
It then runs the library implied-vol-target fits of the selected dates,
each from the date's heston/icm start (cli.build_start) under
CostSpec(target="implied_vol") with max_iter IV_MAX_ITER, two ways: one
calibrate_full per date, written to OUT_ROOT/library-iv/<date>.txt, and
every date's full_job as a lane of one run_lanes call, whose chunks hold
many rows, written to OUT_ROOT/library-iv-lanes/<date>.txt.  Each file
holds the result's repr, or the FxsvolError's.  Last it runs the
term-structure fits of the selected dates on the targets the calibration
pipeline builds (cli.variance_pipeline, cli.sz_ts_pipeline), written to
OUT_ROOT/library-ts/<date>.txt: the repr of calibrate_variance_ts, then that
of calibrate_vol_ts_sz, one a line, or the repr of the FxsvolError that
ended the date.  The reprs carry every bit of the fitted floats, where the
calibration JSON rounds to 12 digits.
Run it at two commits into two roots on the same CSV; `diff -r` of the roots
is then the check that the two commits write the same bytes.  To run this
file against another commit's package, put that commit's src first on
PYTHONPATH.

pytest does not collect this file: its name has no test_ prefix.
"""

import argparse
import contextlib
import io
import os
import sys

from fxsvol import cli, moments
from fxsvol.calibrate import (
    CostSpec,
    calibrate_full,
    calibrate_variance_ts,
    calibrate_vol_ts_sz,
    full_job,
    run_lanes,
)
from fxsvol.errors import FxsvolError

IV_MAX_ITER = 60
TWO_STAGE_ITER = ["--max-iter", "20"]
TWO_FACTOR_ITER = ["--max-iter", "150"]

MATRIX = (
    [(f"calibrate-{m}-{s}", ["calibrate", "--model", m, "--start", s])
     for m in ("heston", "sz") for s in ("icm", "durrleman", "hist")]
    + [(f"calibrate-{m}-{s}", ["calibrate", "--model", m, "--start", s] + TWO_FACTOR_ITER)
       for m, s in (("bates2f", "evp"), ("bates2f", "mevp"), ("bates2f", "icm"),
                    ("bates2f-feller", "mevp"), ("bates2f-feller", "icm"),
                    ("ouou", "mevp"), ("ouou", "icm"))]
    + [(f"calibrate-{m}-twostage", ["calibrate", "--model", m, "--start", "twostage"]
        + TWO_STAGE_ITER) for m in ("bates2f", "bates2f-feller", "ouou")]
    + [("calibrate-ouou-twostage-jobs2", ["calibrate", "--model", "ouou", "--start",
                                          "twostage", "--jobs", "2"] + TWO_STAGE_ITER)]
    + [("calibrate-bates2f-twostage-default-cap",
        ["calibrate", "--model", "bates2f", "--start", "twostage"])]
    + [("calibrate-bates2f-twostage-stop-any",
        ["calibrate", "--model", "bates2f", "--start", "twostage", "--stop-any"]
        + TWO_STAGE_ITER)]
    + [(f"calibrate-{m}-icm-feller", ["calibrate", "--model", m, "--start", "icm",
                                      "--feller"]) for m in ("heston", "sz")]
    + [("calibrate-ouou-mevp-feller",
        ["calibrate", "--model", "ouou", "--start", "mevp", "--feller"] + TWO_FACTOR_ITER)]
    + [("calibrate-heston-icm-stop-any",
        ["calibrate", "--model", "heston", "--start", "icm", "--stop-any"])]
    + [(f"estimate-{m}-{s}", ["estimate", "--model", m, "--method", s])
       for m in ("heston", "sz") for s in ("icm", "durrleman", "hist")]
    + [(f"estimate-heston-{s}", ["estimate", "--model", "heston", "--method", s])
       for s in ("gs", "gr")]
    + [(f"risk-{m}", ["risk", "--model", m]) for m in ("heston", "sz")]
    + [("vix", ["vix"])]
)


def run(name, argv):
    """cli.main(argv) with stderr captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--output-dir", name])
        except SystemExit as exc:  # an argparse error
            code = exc.code
    return code, err.getvalue()


def library_iv(surfaces, hist, dates):
    """The implied-vol-target fits of each date, as a library caller runs
    them: ({date: repr} of calibrate_full run per date, {date: repr} of the
    dates' full_jobs run as the lanes of one run_lanes call), each repr that
    of the result or of the FxsvolError."""
    alone, lanes, jobs = {}, {}, {}
    spec = CostSpec(target="implied_vol")
    for date in dates:
        try:
            start, _, _ = cli.build_start("heston", "icm", surfaces[date], hist)
        except FxsvolError as exc:
            alone[date] = lanes[date] = repr(exc)
            continue
        jobs[date] = full_job("heston", surfaces[date], start, cost_spec=spec,
                              max_iter=IV_MAX_ITER)
        try:
            alone[date] = repr(calibrate_full("heston", surfaces[date], start,
                                              cost_spec=spec, max_iter=IV_MAX_ITER))
        except FxsvolError as exc:
            alone[date] = repr(exc)
    for date, out in zip(jobs, run_lanes(list(jobs.values()))):
        lanes[date] = repr(out)
    return alone, lanes


def library_ts(surfaces, hist, dates):
    """{date: text} of each date's term-structure fits on the calibration
    pipeline's targets: the repr of calibrate_variance_ts on the corrected
    strip variances, then that of calibrate_vol_ts_sz on the expected-vol
    targets built from its curve, a line each; a FxsvolError's repr ends the
    text."""
    out = {}
    for date in dates:
        surface, (om_h, rho_h) = surfaces[date], hist["heston"][date]
        taus = [sl.tau for sl in surface.slices]
        lines = []
        try:
            ts = moments.surface_variance_ts(surface, rho_h=rho_h, omega_h=om_h)
            cir = calibrate_variance_ts(taus, ts.v2_corrected)
            lines.append(repr(cir))
            targets = [moments.sz_expected_vol(v2c, *cir[:3], om_h, t)
                       for v2c, t in zip(ts.v2_corrected, taus)]
            lines.append(repr(calibrate_vol_ts_sz(taus, targets)))
        except FxsvolError as exc:
            lines.append(repr(exc))
        out[date] = "\n".join(lines)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv")
    parser.add_argument("root")
    parser.add_argument("--date-from", default="")
    parser.add_argument("--date-to", default="")
    args = parser.parse_args(argv)
    csv = os.path.abspath(args.csv)
    os.makedirs(args.root, exist_ok=True)
    os.chdir(args.root)
    dates = ["--date-from", args.date_from, "--date-to", args.date_to]
    for name, command in MATRIX:
        code, err = run(name, command + ["--input", csv] + dates)
        with open(f"{name}.exit", "w") as fh:
            fh.write(f"{code}\n")
        with open(f"{name}.stderr", "w") as fh:
            fh.write(err)
        print(name, code, file=sys.stderr)
    manifest = cli.RunManifest(command="calibrate", input_path=csv, output_dir="",
                               date_from=args.date_from, date_to=args.date_to)
    surfaces = cli.load_surfaces(manifest)
    hist = cli.historical_context(surfaces)
    dates = cli.selected_dates(manifest, surfaces)
    for name, texts in zip(("library-iv", "library-iv-lanes", "library-ts"),
                           (*library_iv(surfaces, hist, dates),
                            library_ts(surfaces, hist, dates))):
        os.makedirs(name, exist_ok=True)
        for date, text in texts.items():
            with open(os.path.join(name, f"{date}.txt"), "w") as fh:
                fh.write(text + "\n")
        print(name, file=sys.stderr)


if __name__ == "__main__":
    main()
