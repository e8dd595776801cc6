import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from fxsvol import calibrate, cli, estimators, moments
from fxsvol.charfn import HestonParams
from fxsvol.cli import EXIT_INVALID, EXIT_PARTIAL, main

from synthutil import synth_surface, write_quote_csv

try:
    import jsonschema
    HAVE_JSONSCHEMA = True
except ImportError:  # pragma: no cover
    HAVE_JSONSCHEMA = False

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fxsvol",
                          "schemas")

# the keys fxsvol report reads from a calibration JSON, all well typed
GOOD_REPORT = ('{"model": "heston", "start_method": "icm", "cost": "mse", '
               '"rmse_vol": 0.01, "rmse_vega": 0.2}')


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quotes_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("quotes")
    surfs = [synth_surface("heston",
                           HestonParams(0.0082 + 0.0002 * i, 0.0143, 2.07, 0.30,
                                        -0.38),
                           date=day)
             for i, day in enumerate(["2014-06-02", "2014-06-03", "2014-06-04"])]
    return write_quote_csv(d / "quotes.csv", surfs, vols_decimal=False)


def frown_history(tmp_path):
    """A good date, 2014-06-02, and a frown-smile date, 2014-06-03, on which
    the smile-shape (durrleman) estimator fails."""
    good = synth_surface("heston",
                         HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                         date="2014-06-02")
    path = tmp_path / "mix.csv"
    write_quote_csv(path, [good], vols_decimal=True)
    with open(path, "a") as fh:
        for tenor in ("1M", "2M"):
            fh.write(f"2014-06-03,{tenor},1.3,0.006,0.0007,"
                     f"0.10,0.0,-0.02,0.0,-0.028\n")
    return path


def mu2_history(tmp_path):
    """A good date, 2014-06-02, and a date, 2014-06-03, whose near-zero vol
    under a steep forward makes the strip's mu2 negative."""
    good = synth_surface("heston",
                         HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                         date="2014-06-02")
    path = tmp_path / "mix.csv"
    write_quote_csv(path, [good], vols_decimal=True)
    with open(path, "a") as fh:
        for tenor in ("1M", "2M"):
            fh.write(f"2014-06-03,{tenor},1.3,0.006,0.05,0.001,0.0,0.0,0.0,0.0\n")
    return path


def assert_same_outputs(dir1, dir2):
    """Every output but the manifest (it holds the output path) byte-identical."""
    names = sorted(os.listdir(dir1))
    assert names == sorted(os.listdir(dir2))
    for name in names:
        if name != "manifest.json":
            assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes(), name


class TestIngest:
    def test_three_dates_three_files(self, quotes_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["ingest", "--input", str(quotes_csv), "--output-dir", str(out)])
        assert rc == 0
        files = sorted(os.listdir(out))
        assert files == ["surface_2014-06-02.json", "surface_2014-06-03.json",
                         "surface_2014-06-04.json", "validation.json"]

    @pytest.mark.skipif(not HAVE_JSONSCHEMA, reason="jsonschema not installed")
    def test_surface_schema(self, quotes_csv, tmp_path):
        out = tmp_path / "out"
        main(["ingest", "--input", str(quotes_csv), "--output-dir", str(out)])
        schema = load_schema("surface.schema.json")
        with open(out / "surface_2014-06-02.json") as fh:
            jsonschema.validate(json.load(fh), schema)
        with open(out / "validation.json") as fh:
            jsonschema.validate(json.load(fh), load_schema("validation.schema.json"))

    def test_duplicate_pair_exits_2(self, tmp_path):
        surf = synth_surface("heston",
                             HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                             tenors=("1M",))
        path = write_quote_csv(tmp_path / "dup.csv", [surf, surf])
        rc = main(["ingest", "--input", str(path), "--output-dir",
                   str(tmp_path / "o")])
        assert rc == 2

    def test_non_numeric_cell_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,tenor,spot,ois,fwd_points,atm,rr25,fly25,rr10,fly10\n"
            "2014-06-02,1M,1.3,0.01,0.001,nope,0,0,0,0\n")
        rc = main(["ingest", "--input", str(path), "--output-dir",
                   str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("column", ["spot", "ois", "fwd_points"])
    def test_non_finite_cell_exits_2(self, quotes_csv, tmp_path, capsys, column):
        """A nan quote on one date of several stops the run at ingest, naming
        its row and column, and writes nothing."""
        lines = quotes_csv.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[8].split(",")  # the 2M row of 2014-06-03, the second date
        cells[header.index(column)] = "nan"
        lines[8] = ",".join(cells)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        rc = main(["calibrate", "--input", str(path), "--output-dir", str(out),
                   "--model", "heston", "--start", "icm"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"input invalid: row 9, column '{column}': not finite")
        assert not out.exists()

    def test_empty_date_range_ok(self, quotes_csv, tmp_path):
        out = tmp_path / "empty"
        rc = main(["ingest", "--input", str(quotes_csv), "--output-dir", str(out),
                   "--date-from", "2030-01-01"])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["validation.json"]
        rc = main(["calibrate", "--input", str(quotes_csv), "--output-dir", str(out),
                   "--model", "heston", "--start", "icm", "--date-from", "2030-01-01"])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "summary.csv", "validation.json"]


class TestVixEstimate:
    def test_vix_csv_shape(self, quotes_csv, tmp_path):
        out = tmp_path / "v"
        rc = main(["vix", "--input", str(quotes_csv), "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "vix.csv").read_text().strip().splitlines()
        assert lines[0] == "date,tenor,tau,v2,v2_corrected,skew,kurtosis"
        assert len(lines) == 1 + 3 * 6

    @pytest.mark.parametrize("method,model", [
        ("icm", "heston"), ("icm", "sz"), ("durrleman", "heston"),
        ("hist", "heston"), ("gs", "heston"), ("gr", "heston"),
    ])
    def test_estimate_methods(self, quotes_csv, tmp_path, method, model):
        out = tmp_path / f"e_{method}_{model}"
        rc = main(["estimate", "--input", str(quotes_csv), "--method", method,
                   "--model", model, "--output-dir", str(out)])
        assert rc == 0
        name = f"estimate_{method}_{model}_2014-06-02.json"
        with open(out / name) as fh:
            payload = json.load(fh)
        assert payload["date"] == "2014-06-02"
        if method == "gs":
            assert payload["nu0"] > 0.0
        else:
            assert payload["omega"] > 0.0
            assert payload["rho"] < 0.0
        if HAVE_JSONSCHEMA:
            jsonschema.validate(payload, load_schema("estimate.schema.json"))

    def test_estimate_runs_each_estimator_once_per_date(self, quotes_csv, tmp_path,
                                                        monkeypatch):
        calls = []
        for owner, name in [(cli, "variance_pipeline"), (moments, "surface_moment_sets"),
                            (estimators, "icm_heston")]:
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(owner, name, counted)
        assert main(["estimate", "--input", str(quotes_csv), "--method", "icm",
                     "--model", "heston", "--output-dir", str(tmp_path / "e")]) == 0
        assert sorted(calls) == (["icm_heston"] * 3 + ["surface_moment_sets"] * 3
                                 + ["variance_pipeline"] * 3)


class TestOneDate:
    """A one-date file lies inside the warm-up window, so its historical
    context holds estimators.historical_omega_rho's warm-up values: omega =
    the 1M index level (half of it for the vol model) and rho = -0.1, the
    values the context spells out below."""

    @pytest.fixture
    def one_date(self, tmp_path):
        surf = synth_surface("heston", HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                             date="2014-06-02")
        return write_quote_csv(tmp_path / "one.csv", [surf], vols_decimal=False)

    @staticmethod
    def fallback(manifest):
        surfaces = cli.load_surfaces(manifest)
        ((date, level),) = cli.historical_context(surfaces)["vix1m"].items()
        hist = {"heston": {date: (level, -0.1)}, "sz": {date: (0.5 * level, -0.1)},
                "vix1m": {date: level}}
        return surfaces[date], hist

    def test_vix(self, one_date, tmp_path):
        out = tmp_path / "o"
        assert main(["vix", "--input", str(one_date), "--output-dir", str(out)]) == 0
        manifest = cli.RunManifest(command="vix", input_path=str(one_date),
                                   output_dir=str(out))
        surface, hist = self.fallback(manifest)
        want = cli.run_job(cli.vix_job(manifest, surface, hist))["rows"]
        assert (out / "vix.csv").read_text().splitlines()[1:] == [",".join(r) for r in want]

    @pytest.mark.parametrize("model,start", [("heston", "icm"), ("sz", "hist")])
    def test_calibrate(self, one_date, tmp_path, model, start):
        out = tmp_path / "o"
        assert main(["calibrate", "--input", str(one_date), "--output-dir", str(out),
                     "--model", model, "--start", start]) == 0
        manifest = cli.RunManifest(command="calibrate", input_path=str(one_date),
                                   output_dir=str(out), model=model, start_method=start)
        surface, hist = self.fallback(manifest)
        cli.write_json(tmp_path / "want.json",
                       cli.cmd_pipeline_one_date(manifest, surface, hist))
        got = out / f"calibration_2014-06-02_{model}_{start}_mse.json"
        assert got.read_bytes() == (tmp_path / "want.json").read_bytes()


class TestPartialFailure:
    def test_estimate_partial_failure_exit_1(self, tmp_path):
        # a frown smile pushes the smile-shape radicand negative on one date
        path = frown_history(tmp_path)
        rc = main(["estimate", "--input", str(path), "--method", "durrleman",
                   "--model", "heston", "--output-dir", str(tmp_path / "o"),
                   "--vols-decimal"])
        assert rc == 1
        with open(tmp_path / "o" / "estimate_durrleman_heston_2014-06-03.json") as fh:
            payload = json.load(fh)
        assert "error" in payload
        failed = payload
        with open(tmp_path / "o" / "estimate_durrleman_heston_2014-06-02.json") as fh:
            payload = json.load(fh)
        assert payload["omega"] > 0.0  # the good date still produced output
        if HAVE_JSONSCHEMA:
            for p in (failed, payload):
                jsonschema.validate(p, load_schema("estimate.schema.json"))

    def test_risk_partial_failure_exit_1(self, tmp_path):
        # the frown-smile date fails in the smile-shape estimator; the good
        # date still gets its risk record and the run reports a partial result
        path = frown_history(tmp_path)
        rc = main(["risk", "--input", str(path), "--method", "durrleman",
                   "--model", "heston", "--output-dir", str(tmp_path / "o"),
                   "--vols-decimal"])
        assert rc == 1
        payloads = {}
        for date in ("2014-06-02", "2014-06-03"):
            with open(tmp_path / "o" / f"risk_{date}_heston_durrleman.json") as fh:
                payloads[date] = json.load(fh)
        assert set(payloads["2014-06-03"]) == {"date", "error"}
        assert set(payloads["2014-06-02"]["risk"]) == {"nu0", "theta", "kappa"}
        if HAVE_JSONSCHEMA:
            for payload in payloads.values():
                jsonschema.validate(payload, load_schema("risk.schema.json"))

    def test_vix_partial_failure_exit_1(self, tmp_path):
        # the frown smile of the other partial-failure tests passes the strip
        # moments; a near-zero vol under a steep forward makes mu2 negative
        path = mu2_history(tmp_path)
        out = tmp_path / "o"
        rc = main(["vix", "--input", str(path), "--output-dir", str(out),
                   "--vols-decimal"])
        assert rc == 1
        lines = (out / "vix.csv").read_text().strip().splitlines()
        assert lines[0] == "date,tenor,tau,v2,v2_corrected,skew,kurtosis"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["2014-06-02"] * 6
        with open(out / "vix_2014-06-03.json") as fh:
            payload = json.load(fh)
        assert set(payload) == {"date", "error"}
        assert payload["date"] == "2014-06-03"
        assert "mu2" in payload["error"]
        assert sorted(os.listdir(out)) == ["vix.csv", "vix_2014-06-03.json"]

    def test_vols_decimal_flag(self, tmp_path):
        surf = synth_surface("heston",
                             HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                             tenors=("1M", "2M"))
        path = write_quote_csv(tmp_path / "dec.csv", [surf], vols_decimal=True)
        rc = main(["ingest", "--input", str(path), "--output-dir",
                   str(tmp_path / "o"), "--vols-decimal"])
        assert rc == 0
        with open(tmp_path / "o" / "surface_2014-06-02.json") as fh:
            payload = json.load(fh)
        vols = [n["vol"] for t in payload["tenors"] for n in t["nodes"]]
        assert all(0.01 < v < 1.0 for v in vols)


class TestCalibrate:
    def test_end_to_end_matches_library_round_trip(self, quotes_csv, tmp_path):
        out = tmp_path / "c"
        rc = main(["calibrate", "--input", str(quotes_csv), "--model", "heston",
                   "--start", "icm", "--cost", "mse", "--output-dir", str(out),
                   "--date-to", "2014-06-02"])
        assert rc == 0
        with open(out / "calibration_2014-06-02_heston_icm_mse.json") as fh:
            payload = json.load(fh)
        assert payload["rmse_vol"] < 1e-4
        assert payload["params"]["rho"] == pytest.approx(-0.38, abs=0.01)
        assert payload["converged"]
        if HAVE_JSONSCHEMA:
            jsonschema.validate(payload, load_schema("calibration.schema.json"))
            with open(out / "manifest.json") as fh:
                jsonschema.validate(json.load(fh),
                                    load_schema("manifest.schema.json"))
        assert (out / "manifest.json").exists()
        assert (out / "summary.csv").exists()

    def test_manifest_echoes_flags(self, quotes_csv, tmp_path):
        out = tmp_path / "m"
        main(["calibrate", "--input", str(quotes_csv), "--model", "heston",
              "--start", "icm", "--cost", "mae", "--output-dir", str(out),
              "--date-to", "2014-06-02", "--max-iter", "50"])
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["model"] == "heston"
        assert manifest["start_method"] == "icm"
        assert manifest["cost_kind"] == "mae"
        assert manifest["max_iter"] == 50

    def test_rerun_byte_identical(self, quotes_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["calibrate", "--input", str(quotes_csv), "--model", "heston",
                "--start", "icm", "--output-dir", None, "--date-to", "2014-06-02",
                "--max-iter", "120"]
        for out in (out1, out2):
            args[8] = str(out)
            assert main(args) == 0
        for name in sorted(os.listdir(out1)):
            if name == "manifest.json":
                continue  # carries the differing output path by design
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, name

    def test_jobs_flag_same_results(self, quotes_csv, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        base = ["calibrate", "--input", str(quotes_csv), "--model", "heston",
                "--start", "icm", "--max-iter", "60"]
        assert main(base + ["--output-dir", str(out1), "--jobs", "1"]) == 0
        assert main(base + ["--output-dir", str(out2), "--jobs", "3"]) == 0
        for name in sorted(os.listdir(out1)):
            if name == "manifest.json":
                continue
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_jobs_two_factor_same_results(self, quotes_csv, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        base = ["calibrate", "--input", str(quotes_csv), "--model", "bates2f",
                "--start", "evp", "--max-iter", "30"]
        assert main(base + ["--output-dir", str(out1), "--jobs", "1"]) == 0
        assert main(base + ["--output-dir", str(out2), "--jobs", "2"]) == 0
        assert len(os.listdir(out1)) == 5  # 3 dates, the summary, the manifest
        assert_same_outputs(out1, out2)

    def test_bates2f_feller_start_truncated(self, tmp_path):
        """Every factor of the bates2f-feller start satisfies 2 kappa theta >
        omega^2, and the start carries the truncation flag exactly on the
        dates where the bates2f split's omegas were cut."""
        surfs = [synth_surface("heston", HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                               date="2014-06-02"),
                 synth_surface("heston", HestonParams(0.01, 0.04, 6.0, 0.10, -0.2),
                               date="2014-06-03")]
        path = write_quote_csv(tmp_path / "q.csv", surfs, vols_decimal=False)
        base = ["calibrate", "--input", str(path), "--start", "mevp", "--max-iter", "20"]
        runs = [("bates2f", "1"), ("bates2f-feller", "1"), ("bates2f-feller", "2")]
        for model, jobs in runs:
            assert main(base + ["--model", model, "--jobs", jobs, "--output-dir",
                                str(tmp_path / f"{model}-{jobs}")]) == 0
        assert_same_outputs(tmp_path / "bates2f-feller-1", tmp_path / "bates2f-feller-2")
        cut_on = []
        for day in ("2014-06-02", "2014-06-03"):
            with open(tmp_path / "bates2f-1" / f"calibration_{day}_bates2f_mevp_mse.json") as fh:
                split = json.load(fh)["start"]["factors"]
            with open(tmp_path / "bates2f-feller-1"
                      / f"calibration_{day}_bates2f-feller_mevp_mse.json") as fh:
                payload = json.load(fh)
            start = payload["start"]["factors"]
            assert all(2.0 * f["kappa"] * f["theta"] > f["omega"] ** 2 for f in start)
            cut = [f["omega"] for f in start] != [f["omega"] for f in split]
            flagged = "start omegas truncated to the positivity bound" in payload["flags"]
            assert flagged == cut
            cut_on.append(cut)
        assert cut_on == [True, False]

    def test_heston_feller_start_truncated(self, tmp_path):
        """--feller truncates a one-factor CIR-variance start as it does
        bates2f-feller's: a start that breaks 2 kappa theta > omega^2 no longer
        puts every simplex vertex on the flat penalty, and the fit moves."""
        surfs = [synth_surface("heston", HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                               date="2014-06-02")]
        path = write_quote_csv(tmp_path / "q.csv", surfs, vols_decimal=False)
        base = ["calibrate", "--input", str(path), "--model", "heston", "--start", "icm",
                "--max-iter", "40"]
        payloads = {}
        for name, extra in (("plain", []), ("feller", ["--feller"])):
            assert main(base + extra + ["--output-dir", str(tmp_path / name)]) == 0
            with open(tmp_path / name / "calibration_2014-06-02_heston_icm_mse.json") as fh:
                payloads[name] = json.load(fh)
        plain, feller = payloads["plain"]["start"], payloads["feller"]
        start = feller["start"]
        assert 2.0 * plain["kappa"] * plain["theta"] < plain["omega"] ** 2
        assert 2.0 * start["kappa"] * start["theta"] > start["omega"] ** 2
        assert start["omega"] < plain["omega"]
        assert {k: v for k, v in start.items() if k != "omega"} == {
            k: v for k, v in plain.items() if k != "omega"}
        assert feller["flags"][-1] == "start omegas truncated to the positivity bound"
        assert feller["cost_value"] < calibrate.FELLER_PENALTY
        assert feller["feller_satisfied"] and feller["params"] != start

    def test_jobs_pool_partial_failure(self, tmp_path):
        path = frown_history(tmp_path)
        base = ["calibrate", "--input", str(path), "--model", "heston",
                "--start", "durrleman", "--max-iter", "40", "--vols-decimal"]
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(base + ["--output-dir", str(out1), "--jobs", "1"]) == EXIT_PARTIAL
        assert main(base + ["--output-dir", str(out2), "--jobs", "2"]) == EXIT_PARTIAL
        with open(out2 / "calibration_2014-06-03_heston_durrleman_mse.json") as fh:
            assert set(json.load(fh)) == {"date", "error"}
        with open(out2 / "calibration_2014-06-02_heston_durrleman_mse.json") as fh:
            assert "error" not in json.load(fh)
        assert_same_outputs(out1, out2)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_invalid(self, quotes_csv, tmp_path, jobs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--input", str(quotes_csv), "--model", "heston",
                  "--start", "icm", "--output-dir", str(out), "--jobs", jobs])
        assert exc.value.code == EXIT_INVALID
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--max-iter", "-3"], ["--grid-step", "0"],
                                       ["--grid-min", "5", "--grid-max", "1"],
                                       ["--date-from", "2014-6-3"], ["--date-to", "June"]],
                             ids=["max-iter", "grid-step", "grid-range", "date-from",
                                  "date-to"])
    def test_invalid_invocation_writes_nothing(self, quotes_csv, tmp_path, extra):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--input", str(quotes_csv), "--model", "heston",
                  "--start", "icm", "--output-dir", str(out)] + extra)
        assert exc.value.code == EXIT_INVALID
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--model", "heston", "--start", "icm", "--max-iter", "40"],
        ["--model", "sz", "--start", "icm", "--cost", "mae", "--max-iter", "40"],
        ["--model", "bates2f", "--start", "evp", "--max-iter", "25", "--feller"],
        ["--model", "bates2f", "--start", "twostage", "--max-iter", "20"],
    ], ids=["heston-icm", "sz-icm", "bates2f-evp", "twostage"])
    def test_lanes_match_one_date_runs(self, quotes_csv, tmp_path, args):
        """A date's file from a 3-date run (one block of lanes) is the bytes
        of its one-date run."""
        base = ["calibrate", "--input", str(quotes_csv)] + args
        assert main(base + ["--output-dir", str(tmp_path / "all")]) == 0
        dates = ["2014-06-02", "2014-06-03", "2014-06-04"]
        for d in dates:
            one = tmp_path / d
            assert main(base + ["--output-dir", str(one), "--date-from", d,
                                "--date-to", d]) == 0
            (name,) = [n for n in os.listdir(one) if n.startswith("calibration_")]
            assert (one / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_jobs_capped_at_dates(self, quotes_csv, tmp_path, monkeypatch):
        # a stand-in executor records the pool it is asked for and runs the
        # dates in this process, so no worker is started
        pools, blocks = [], []

        class RecordingPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                pools.append((max_workers, mp_context.get_start_method()))
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, date_blocks):
                blocks.append(list(date_blocks))
                return map(fn, blocks[-1])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_WORKER_RUN", None)
        base = ["calibrate", "--input", str(quotes_csv), "--model", "heston",
                "--start", "icm", "--max-iter", "20"]
        assert main(base + ["--output-dir", str(tmp_path / "a"), "--jobs", "64"]) == 0
        assert pools == [(3, "fork")]
        assert blocks == [[["2014-06-02"], ["2014-06-03"], ["2014-06-04"]]]
        # one worker (--jobs 1, or a single date) runs in-process, no pool
        assert main(base + ["--output-dir", str(tmp_path / "b"), "--jobs", "1"]) == 0
        assert main(base + ["--output-dir", str(tmp_path / "c"), "--jobs", "8",
                            "--date-to", "2014-06-02"]) == 0
        assert pools == [(3, "fork")]
        assert_same_outputs(tmp_path / "a", tmp_path / "b")
        # two workers: two contiguous blocks of dates
        assert main(base + ["--output-dir", str(tmp_path / "d"), "--jobs", "2"]) == 0
        assert pools == [(3, "fork"), (2, "fork")]
        assert blocks[-1] == [["2014-06-02", "2014-06-03"], ["2014-06-04"]]
        assert_same_outputs(tmp_path / "a", tmp_path / "d")


# what each subcommand needs besides --input and --output-dir
SUBCOMMAND_ARGS = {
    "ingest": [], "surface": [], "vix": [], "estimate": ["--method", "icm"],
    "calibrate": ["--model", "heston", "--start", "icm"], "risk": [], "report": [],
}


class TestInvocation:
    @pytest.mark.parametrize("bound", [["--date-from", "2014-6-3"], ["--date-to", "June"],
                                       ["--date-from", "20140603"]],
                             ids=["unpadded", "word", "basic-format"])
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
    def test_bad_date_bound_writes_nothing(self, quotes_csv, tmp_path, capsys,
                                           command, bound):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(quotes_csv), "--output-dir", str(out)]
                 + SUBCOMMAND_ARGS[command] + bound)
        assert exc.value.code == EXIT_INVALID
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["ingest", "surface", "report"])
    def test_jobs_only_on_per_date_commands(self, quotes_csv, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(quotes_csv), "--output-dir",
                  str(tmp_path / "o"), "--jobs", "2"])
        assert exc.value.code == EXIT_INVALID
        assert not (tmp_path / "o").exists()


class TestInputOutputErrors:
    """What main reports for an input it cannot read, an output it cannot
    write and a stdout whose reader has gone."""

    def test_closed_stdout_stops_quietly(self, quotes_csv, monkeypatch, capsys):
        """`fxsvol surface | head -1`: stdout is a pipe whose read end is
        closed, so a write raises BrokenPipeError; the run stops with no
        message and exit 1, its output partial."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert main(["surface", "--input", str(quotes_csv)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["ingest", "vix", "report"])
    def test_output_dir_under_a_file(self, quotes_csv, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "o"
        source = tmp_path if command == "report" else quotes_csv
        rc = main([command, "--input", str(source), "--output-dir", str(out)])
        assert rc == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: cannot write output: [Errno 20] Not a directory: '{out}'\n")

    @pytest.mark.parametrize("command", ["ingest", "calibrate", "report"])
    def test_unreadable_input(self, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        rc = main([command, "--input", str(missing), "--output-dir", str(tmp_path / "o")]
                  + SUBCOMMAND_ARGS[command])
        assert rc == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"input invalid: [Errno 2] No such file or directory: '{missing}'\n")
        assert not (tmp_path / "o").exists()


# the (model, start) pairs calibrate runs; the parser rejects the other 14
CALIBRATE_PAIRS = {
    ("heston", "icm"), ("heston", "durrleman"), ("heston", "hist"),
    ("sz", "icm"), ("sz", "durrleman"), ("sz", "hist"),
    ("bates2f", "icm"), ("bates2f", "evp"), ("bates2f", "mevp"), ("bates2f", "twostage"),
    ("bates2f-feller", "icm"), ("bates2f-feller", "mevp"), ("bates2f-feller", "twostage"),
    ("ouou", "icm"), ("ouou", "mevp"), ("ouou", "twostage"),
}


class TestRunnableStarts:
    """An invocation that no date can run is a usage error (exit 2) that
    writes nothing and names the values that do run; every other one runs."""

    @pytest.mark.parametrize("start", ["icm", "durrleman", "hist", "twostage", "evp",
                                       "mevp"])
    @pytest.mark.parametrize("model", ["heston", "sz", "bates2f", "bates2f-feller",
                                       "ouou"])
    def test_calibrate_pairs(self, tmp_path, capsys, model, start):
        surf = synth_surface("heston", HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                             date="2014-06-02")
        path = write_quote_csv(tmp_path / "one.csv", [surf], vols_decimal=False)
        out = tmp_path / "o"
        argv = ["calibrate", "--input", str(path), "--output-dir", str(out),
                "--model", model, "--start", start, "--max-iter", "5"]
        if (model, start) in CALIBRATE_PAIRS:
            assert main(argv) == 0
            assert (out / f"calibration_2014-06-02_{model}_{start}_mse.json").exists()
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID
        assert not out.exists()
        runs = [s for m, s in CALIBRATE_PAIRS if m == model]
        err = capsys.readouterr().err
        assert f"argument --start: '{start}' does not run with --model {model}" in err
        assert all(f"'{s}'" in err for s in runs)

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--model", "sz", "--method", "gs"],
         "argument --method: 'gs' does not run with --model sz "
         "(choose from 'icm', 'durrleman', 'hist')"),
        (["estimate", "--model", "sz", "--method", "gr"],
         "argument --method: 'gr' does not run with --model sz "
         "(choose from 'icm', 'durrleman', 'hist')"),
    ], ids=["sz-gs", "sz-gr"])
    def test_rejected_invocations(self, quotes_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--input", str(quotes_csv), "--output-dir", str(out)])
        assert exc.value.code == EXIT_INVALID
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_stop_any_runs_with_a_full_fit(self, tmp_path):
        """--stop-any passes the parse with a one-factor model: on a
        header-only file nothing else can fail."""
        path = write_quote_csv(tmp_path / "empty.csv", [], vols_decimal=False)
        out = tmp_path / "o"
        assert main(["calibrate", "--model", "heston", "--start", "icm", "--stop-any",
                     "--input", str(path), "--output-dir", str(out)]) == 0
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["stop_any"] is True

    @pytest.mark.parametrize("model,start", [("bates2f", "twostage"), ("ouou", "twostage"),
                                             ("bates2f", "evp"), ("bates2f", "mevp"),
                                             ("bates2f-feller", "icm"), ("ouou", "mevp")])
    def test_stop_any_rejected_with_two_factor_models(self, quotes_csv, tmp_path, capsys,
                                                      model, start):
        """--stop-any with a two-factor model is a usage error: a two-factor
        fit's initial simplex (8 or 10 coordinates) already meets the OR
        rule's volume test, so the fit would be its start."""
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--model", model, "--start", start, "--stop-any",
                  "--max-iter", "20", "--input", str(quotes_csv), "--output-dir", str(out)])
        assert exc.value.code == EXIT_INVALID
        assert not out.exists()
        assert (f"argument --stop-any: does not run with two-factor --model {model}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("model", ["heston", "sz"])
    def test_stop_any_runs_one_factor_fits_by_the_or_rule(self, tmp_path, monkeypatch,
                                                          model):
        """With a one-factor model --stop-any is recorded and its one surface
        fit (5 coordinates) stops by the OR rule."""
        configs = []
        steps = calibrate.nelder_mead_steps

        def spy(x_start, config):
            configs.append((len(x_start), config))
            return steps(x_start, config)

        monkeypatch.setattr(calibrate, "nelder_mead_steps", spy)
        surf = synth_surface("heston", HestonParams(0.0082, 0.0143, 2.07, 0.30, -0.38),
                             date="2014-06-02")
        path = write_quote_csv(tmp_path / "one.csv", [surf], vols_decimal=False)
        out = tmp_path / "o"
        assert main(["calibrate", "--model", model, "--start", "icm", "--stop-any",
                     "--max-iter", "20", "--input", str(path),
                     "--output-dir", str(out)]) == 0
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["stop_any"] is True
        assert [(n, c.max_iter, c.stop_any) for n, c in configs if n >= 5] == [(5, 20, True)]


def _fresh_python(code):
    """The standard output of code run in a new interpreter that imports this fxsvol."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestProcessStart:
    def test_cli_import_loads_no_optional_modules(self):
        """Importing fxsvol.cli loads none of the modules a run may never need:
        the process pool is imported when --jobs asks for it, the others only
        by the tests.  Each would add to every command's start-up time."""
        probe = ("import sys, fxsvol.cli; print(' '.join(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'mpmath', 'jsonschema', "
                 "'hypothesis'))))")
        assert _fresh_python(probe).split() == []

    def test_runtime_imports_no_scipy(self, quotes_csv, tmp_path):
        """No fxsvol runtime path imports scipy (only the tests use it): after
        importing fxsvol.cli, one fxsvol calibrate run and one library
        implied-vol-target fit, no scipy module is loaded."""
        probe = f"""
import sys
from fxsvol import calibrate, cli
from fxsvol.charfn import HestonParams
args = ["calibrate", "--model", "heston", "--start", "icm", "--max-iter", "10",
        "--date-from", "2014-06-02", "--date-to", "2014-06-02",
        "--input", {str(quotes_csv)!r}, "--output-dir", {str(tmp_path / "out")!r}]
assert cli.main(args) == 0
manifest = cli.RunManifest(command="calibrate", input_path={str(quotes_csv)!r}, output_dir="")
surface = cli.load_surfaces(manifest)["2014-06-02"]
fit = calibrate.calibrate_full("heston", surface, HestonParams(0.011, 0.019, 1.6, 0.42, -0.21),
                               cost_spec=calibrate.CostSpec(target="implied_vol"), max_iter=10)
assert fit.iterations >= 10
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
        assert _fresh_python(probe).split() == []

    def test_cold_start_builds_no_fold_constant(self, quotes_csv):
        """Importing fxsvol.cli, then loading the surfaces and the historical
        context, the start of every calibrate run, builds none of the Attari
        kernel's grid constants (the low-frequency fold among them): the
        grid builds them on first use."""
        probe = f"""
from fxsvol import cli, pricer
manifest = cli.RunManifest(command="calibrate", input_path={str(quotes_csv)!r},
                           output_dir="")
cli.historical_context(cli.load_surfaces(manifest))
print(sorted(vars(pricer.DEFAULT_GRID)))
"""
        assert "attari_factors" not in _fresh_python(probe)

    def test_main_keeps_freed_heap(self, tmp_path):
        """After cli.main, a freed 2 MB array stays in glibc's heap instead of
        going back to the OS (checked where the C library has mallinfo2)."""
        probe = f"""
import ctypes
import numpy as np
from fxsvol import cli

class Info(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in ("arena", "ordblks", "smblks", "hblks",
                "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

try:
    mallinfo2 = ctypes.CDLL(None).mallinfo2
except AttributeError:
    print("skip")
else:
    mallinfo2.restype = Info
    cli.main(["report", "--input", {str(tmp_path / "none")!r}, "--output-dir",
              {str(tmp_path / "out")!r}])
    before = mallinfo2().fordblks
    a = np.ones(1 << 18)
    del a
    print(mallinfo2().fordblks - before)
"""
        out = _fresh_python(probe).split()[-1]
        if out == "skip":
            pytest.skip("no glibc mallinfo2")
        assert int(out) >= 1 << 20


class TestDateDriver:
    """vix, estimate and risk run their dates through the driver that
    calibrate uses: as lanes, in this process or in forked workers."""

    @pytest.mark.parametrize("command,args,history", [
        ("vix", [], None),
        ("vix", [], mu2_history),
        ("estimate", ["--method", "icm", "--model", "sz"], None),
        ("estimate", ["--method", "durrleman"], frown_history),
        ("risk", ["--method", "icm"], None),
        ("risk", ["--method", "durrleman"], frown_history),
    ], ids=["vix", "vix-partial", "estimate", "estimate-partial", "risk",
            "risk-partial"])
    def test_jobs_same_outputs(self, quotes_csv, tmp_path, command, args, history):
        if history is None:
            base, want = [command, "--input", str(quotes_csv)], 0
        else:
            base = [command, "--input", str(history(tmp_path)), "--vols-decimal"]
            want = EXIT_PARTIAL
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(base + args + ["--output-dir", str(out1), "--jobs", "1"]) == want
        assert main(base + args + ["--output-dir", str(out2), "--jobs", "2"]) == want
        assert_same_outputs(out1, out2)

    @pytest.mark.parametrize("model", ["heston", "sz"])
    def test_risk_lanes_match_one_date_runs(self, quotes_csv, tmp_path, model):
        """A date's file from a 3-date risk run (one block of lanes) is the
        bytes of its one-date run."""
        base = ["risk", "--input", str(quotes_csv), "--model", model]
        assert main(base + ["--output-dir", str(tmp_path / "all")]) == 0
        for d in ["2014-06-02", "2014-06-03", "2014-06-04"]:
            one = tmp_path / d
            assert main(base + ["--output-dir", str(one), "--date-from", d,
                                "--date-to", d]) == 0
            name = f"risk_{d}_{model}_icm.json"
            assert os.listdir(one) == [name]
            assert (one / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


class TestTwoStage:
    def test_twostage_start_bates2f(self, quotes_csv, tmp_path):
        out = tmp_path / "ts"
        rc = main(["calibrate", "--input", str(quotes_csv), "--model", "bates2f",
                   "--start", "twostage", "--output-dir", str(out),
                   "--date-to", "2014-06-02", "--max-iter", "60"])
        assert rc == 0
        with open(out / "calibration_2014-06-02_bates2f_twostage_mse.json") as fh:
            payload = json.load(fh)
        assert "two_stage" in payload["flags"]
        assert len(payload["params"]["factors"]) == 2

    def test_twostage_start_ouou(self, quotes_csv, tmp_path):
        out = tmp_path / "ts_ouou"
        rc = main(["calibrate", "--input", str(quotes_csv), "--model", "ouou",
                   "--start", "twostage", "--output-dir", str(out),
                   "--date-to", "2014-06-02", "--max-iter", "60"])
        assert rc == 0
        with open(out / "calibration_2014-06-02_ouou_twostage_mse.json") as fh:
            payload = json.load(fh)
        # factors are vol-scale: start nu0 must be an annual vol, not a variance
        assert payload["start"]["factors"][0]["nu0"] > 0.02


class TestRiskReport:
    def test_risk_output(self, quotes_csv, tmp_path):
        out = tmp_path / "risk"
        rc = main(["risk", "--input", str(quotes_csv), "--model", "heston",
                   "--method", "icm", "--output-dir", str(out),
                   "--date-to", "2014-06-02"])
        assert rc == 0
        with open(out / "risk_2014-06-02_heston_icm.json") as fh:
            payload = json.load(fh)
        assert set(payload["risk"]) == {"nu0", "theta", "kappa"}
        assert all(v >= 0.0 for v in payload["risk"].values())
        assert set(payload["per_cost"]) == {"mse", "mae", "mape"}
        if HAVE_JSONSCHEMA:
            jsonschema.validate(payload, load_schema("risk.schema.json"))

    @pytest.mark.parametrize("text, problem", [
        ("{not json", "not JSON: Expecting property name enclosed in double quotes"),
        ("[1, 2]", "not a JSON object"),
        ('{"date": "2014-01-01"}', "missing model, start_method, cost, rmse_vol, rmse_vega"),
        (GOOD_REPORT.replace('"rmse_vol": 0.01', '"rmse_vol": "x"'),
         'rmse_vol is not a number: "x"'),
        (GOOD_REPORT.replace('"rmse_vega": 0.2', '"rmse_vega": true'),
         "rmse_vega is not a number: true"),
        (GOOD_REPORT.replace('"rmse_vol": 0.01', '"rmse_vol": null'),
         "rmse_vol is not a number: null"),
        (GOOD_REPORT.replace('"rmse_vol": 0.01', '"rmse_vol": NaN'),
         "rmse_vol is not a number: NaN"),
        (GOOD_REPORT.replace('"rmse_vega": 0.2', '"rmse_vega": -Infinity'),
         "rmse_vega is not a number: -Infinity"),
        (GOOD_REPORT.replace('"model": "heston"', '"model": ["heston"]'),
         'model is not a string: ["heston"]'),
        (GOOD_REPORT.replace('"start_method": "icm"', '"start_method": 1'),
         "start_method is not a string: 1"),
        (GOOD_REPORT.replace('"cost": "mse"', '"cost": {"kind": "mse"}'),
         'cost is not a string: {"kind": "mse"}'),
    ])
    def test_report_bad_calibration_json(self, tmp_path, capsys, text, problem):
        """A calibration JSON the report cannot read is an input error (exit
        2) naming the file, not a traceback; an error payload is skipped."""
        (tmp_path / "calibration_2014-01-01.json").write_text(text)
        (tmp_path / "calibration_2014-01-02.json").write_text('{"error": "x"}')
        rc = main(["report", "--input", str(tmp_path), "--output-dir", str(tmp_path / "rep")])
        assert rc == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"input invalid: {tmp_path / 'calibration_2014-01-01.json'}: "
                              f"{problem}")
        assert err.count("\n") == 1

    def test_report_reads_numbers_and_strings(self, tmp_path):
        (tmp_path / "calibration_2014-01-01.json").write_text(GOOD_REPORT)
        (tmp_path / "calibration_2014-01-02.json").write_text(
            GOOD_REPORT.replace('"rmse_vol": 0.01', '"rmse_vol": 1'))
        rc = main(["report", "--input", str(tmp_path), "--output-dir", str(tmp_path / "rep")])
        assert rc == 0
        rows = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        assert rows[1].startswith("heston,icm,mse,rmse_vol,0.505,")

    def test_report_aggregates(self, quotes_csv, tmp_path):
        out = tmp_path / "c2"
        main(["calibrate", "--input", str(quotes_csv), "--model", "heston",
              "--start", "icm", "--output-dir", str(out), "--max-iter", "120"])
        rep = tmp_path / "rep"
        rc = main(["report", "--input", str(out), "--output-dir", str(rep)])
        assert rc == 0
        lines = (rep / "report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("model,start,cost_kind,metric,mean")
        assert len(lines) == 3  # header + rmse_vol + rmse_vega rows
        assert lines[1].split(",")[-1] == "3"  # three dates aggregated
