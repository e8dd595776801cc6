"""Every calibration start the CLI builds, against the old start code kept in
start_reference.py, bit for bit; and the runs of a file with no dates."""

import argparse

import numpy as np
import pytest

from fxsvol import cli, estimators
from fxsvol.charfn import HestonParams, SchobelZhuParams
from fxsvol.errors import FxsvolError, ShortSeries

import start_reference as ref
from conftest import draw_heston
from synthutil import synth_surface, write_quote_csv

DATES = [f"2014-06-{d:02d}" for d in range(2, 8)]


def cli_choices(command, dest):
    """The choices the CLI's command accepts for the option stored in dest."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


# every (model, start) pair the calibrate, estimate and risk commands accept
# that builds its start through cli.start_with_icm
PAIRS = sorted({(m, s) for c in ("calibrate", "estimate", "risk")
                for m in cli_choices(c, "model") for s in cli_choices(c, "start_method")
                if s not in ("twostage", "gs", "gr")})
MODELS = cli_choices("calibrate", "model")


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """Six dates, each on its own spot: a Heston draw, an OU-vol surface, a
    high-vol and a low-vol Heston surface, a near-zero-vol date under a
    steep forward whose strip mu2 is negative, and a frown smile that the
    smile-shape route cannot invert.  With a 3-day window the jumps in the
    vol level give the last dates large historical omegas, so the OU-vol
    curve fails there too: several routes fail in two steps, and each must
    raise the error of the step it took first."""
    rng = np.random.default_rng(19)
    surfs = [synth_surface("heston", draw_heston(rng), date=DATES[0], spot=1.30),
             synth_surface("sz", SchobelZhuParams(0.09, 0.11, 1.4, 0.15, -0.38),
                           date=DATES[1], spot=1.31),
             synth_surface("heston", HestonParams(0.09, 0.09, 2.0, 0.3, -0.4),
                           date=DATES[2], spot=1.32),
             synth_surface("heston", HestonParams(0.0025, 0.003, 2.0, 0.3, -0.4),
                           date=DATES[3], spot=1.33)]
    path = tmp_path_factory.mktemp("starts") / "history.csv"
    write_quote_csv(path, surfs, vols_decimal=True)
    with open(path, "a") as fh:
        for tenor in ("1M", "2M"):
            fh.write(f"{DATES[4]},{tenor},1.3,0.006,0.05,0.001,0.0,0.0,0.0,0.0\n")
        for tenor in ("1M", "2M"):
            fh.write(f"{DATES[5]},{tenor},1.32,0.006,0.0007,0.05,0.0,-0.02,0.0,-0.028\n")
    return cli.load_surfaces(cli.RunManifest(command="calibrate", input_path=str(path),
                                             output_dir="", vols_decimal=True))


def outcome(fn, *args):
    """fn(*args), or the type and message of the FxsvolError it raised."""
    try:
        return fn(*args)
    except FxsvolError as exc:
        return type(exc), str(exc)


class Captured(Exception):
    """Carries what pipeline_job passed to two_stage_job."""


def two_stage_sym(model, surface, hist, monkeypatch):
    """The (kind, symmetric start) pipeline_job passes to two_stage_job."""
    def capture(kind, surface, symmetric_start, **_):
        raise Captured(kind, symmetric_start)
        yield

    monkeypatch.setattr(cli, "two_stage_job", capture)
    manifest = cli.RunManifest(command="calibrate", input_path="", output_dir="",
                               model=model, start_method="twostage")
    try:
        next(cli.pipeline_job(manifest, surface, hist))
    except Captured as got:
        return got.args
    except FxsvolError as exc:
        return type(exc), str(exc)


def assert_starts_match(surfaces, monkeypatch):
    """Every start and two-stage start of every date of surfaces is the old
    code's; returns the outcomes, so a caller can check what they cover."""
    hist, want_hist = cli.historical_context(surfaces), ref.historical_context(surfaces)
    outcomes = []
    for date, surface in sorted(surfaces.items()):
        for model, method in PAIRS:
            got = outcome(cli.start_with_icm, model, method, surface, hist)
            if model == "bates2f-feller" and not isinstance(got[0], type):
                # pipeline_job truncates every Feller run's start (cli.feller_start),
                # where the old start_with_icm truncated this model's
                params, flags = cli.feller_start(got[0], got[2])
                got = (params, got[1], flags, got[3])
            assert got == outcome(ref.start_with_icm, model, method, surface, want_hist), \
                (date, model, method)
            outcomes.append(got)
        for model in MODELS:
            kind = "bates2f" if model == "bates2f-feller" else model
            # sz's factors are OU volatilities, so its symmetric start is
            # built as ouou's is: the sz start split at the OU share
            want = outcome(ref.two_stage_sym, "ouou" if kind == "sz" else model, surface,
                           want_hist)
            if not isinstance(want[0], type):
                want = (kind, want)
            assert two_stage_sym(model, surface, hist, monkeypatch) == want, (date, model)
    return hist, outcomes


class TestStartsMatchOldCode:
    def test_history_past_the_warm_up(self, history, monkeypatch):
        monkeypatch.setattr(estimators, "HIST_WINDOW", 3)
        assert cli.historical_context(history) == ref.historical_context(history)
        hist, outcomes = assert_starts_match(history, monkeypatch)
        # the last four dates are past the warm-up
        assert [hist["heston"][d][1] == -0.1 for d in DATES] == [True] * 2 + [False] * 4
        # starts, unsupported pairs and four kinds of route failure all occur
        kinds = {o[0].__name__ if isinstance(o[0], type) else "start" for o in outcomes}
        assert kinds == {"start", "FxsvolError", "NegativeAdjusted", "NegativeRadicand",
                         "DegenerateMoments", "NonPositiveVariance"}

    # (the two vol-jump surfaces alone take seconds in the TS fits)
    @pytest.mark.parametrize("date", [DATES[0], DATES[1], DATES[4], DATES[5]])
    def test_one_date_files(self, history, date, monkeypatch):
        assert_starts_match({date: history[date]}, monkeypatch)


class TestWarmUp:
    @pytest.mark.parametrize("model,scale", [("heston", 1.0), ("sz", 0.5)])
    def test_short_series_give_the_warm_up(self, model, scale):
        om, rho = estimators.historical_omega_rho([], [], model=model)
        assert om.shape == rho.shape == (0,)
        om, rho = estimators.historical_omega_rho([0.08], [1.3], model=model)
        assert om.tolist() == [scale * 0.08]
        assert rho.tolist() == [estimators.HIST_RHO_FALLBACK]

    def test_misaligned_pair_raises(self):
        with pytest.raises(ShortSeries):
            estimators.historical_omega_rho([0.1], [], model="heston")


class TestHeaderOnlyFile:
    """A quote file with no rows: each command exits 0 and writes what it
    writes for an empty date range."""

    @pytest.mark.parametrize("argv,files", [
        (["calibrate", "--model", "heston", "--start", "icm"],
         ["manifest.json", "summary.csv"]),
        (["vix"], ["vix.csv"]),
        (["estimate", "--method", "icm"], []),
        (["risk"], []),
    ])
    def test_exit_0(self, tmp_path, argv, files):
        path = write_quote_csv(tmp_path / "empty.csv", [])
        out = tmp_path / "o"
        assert cli.main(argv + ["--input", str(path), "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == files


def test_one_factor_start_floor():
    """A historical omega below the floor starts at START_OMEGA_FLOOR."""
    surface = synth_surface("heston", HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38))
    hist = cli.historical_context({surface.date: surface})
    hist["heston"][surface.date] = (1e-9, -0.2)
    params, _, _ = cli.build_start("heston", "hist", surface, hist)
    assert (params.omega, params.rho) == (cli.START_OMEGA_FLOOR, -0.2)
