"""tests/output_diff.py on two small hand-made output_matrix.py roots."""

import json

import output_diff

RESULT = ("CalibrationResult(model='heston', params=HestonParams(nu0=0.01, theta=0.02, "
          "kappa=2.0, omega=0.3, rho=-0.4), cost_value={cost}, iterations=60, "
          "converged=False, flags=())")


def _calibration(nu0_2, cost, converged):
    return {"date": "2014-06-02", "converged": converged, "cost_value": cost,
            "params": {"factors": [{"nu0": 0.01, "rho": -0.5}, {"nu0": nu0_2, "rho": 0.1}]},
            "flags": []}


def _root(path, nu0_2, capped_cost, iv_cost, stderr):
    entry = path / "calibrate-x"
    entry.mkdir(parents=True)
    (path / "calibrate-x.exit").write_text("0\n")
    (path / "calibrate-x.stderr").write_text(stderr)
    for date, payload in (("d1", _calibration(nu0_2, 1e-6, True)),
                          ("d2", _calibration(0.02, capped_cost, False)),
                          ("d3", _calibration(0.03, 5e-6, True))):
        (entry / f"calibration_{date}.json").write_text(json.dumps(payload))
    (entry / "summary.csv").write_text(
        "date,cost_value,iterations,converged\n"
        f"d1,1e-06,100,True\nd2,{capped_cost!r},150,False\n")
    (path / "library-iv").mkdir()
    (path / "library-iv" / "d1.txt").write_text(RESULT.format(cost=iv_cost) + "\n")
    (path / "vix").mkdir()
    (path / "vix" / "notes.txt").write_text("same text\n")


def test_two_roots(tmp_path, capsys):
    _root(tmp_path / "a", 0.02, 2.0, 1e-05, "")
    _root(tmp_path / "b", 0.0200000001, 2.2, 1.1e-05, "warning: one date\n")
    assert output_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "calibrate-x: 2/6 files byte-identical",
        "  converged (1 records): params.factors[].nu0 5.0e-09 abs 1.0e-10",
        "  capped (2 records): cost_value 9.1e-02 abs 2.0e-01",
        "  calibrate-x.stderr differs in no number",
        "library-iv: 0/1 files byte-identical",
        "  capped (1 records): cost_value 9.1e-02 abs 1.0e-06",
        "vix: 1/1 files byte-identical",
    ]


def test_one_sided_files_and_fields(tmp_path, capsys):
    _root(tmp_path / "a", 0.02, 2.0, 1e-05, "")
    _root(tmp_path / "b", 0.02, 2.0, 1e-05, "")
    (tmp_path / "b" / "calibrate-x" / "calibration_d4.json").write_text("{}")
    payload = _calibration(0.02, 2.0, False)
    payload["rmse_vol"] = 0.001
    (tmp_path / "b" / "calibrate-x" / "calibration_d2.json").write_text(json.dumps(payload))
    assert output_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "calibrate-x: 5/7 files byte-identical" in out
    assert "calibrate-x/calibration_d2.json: rmse_vol only in B" in out
    assert "calibrate-x/calibration_d4.json only in B" in out


def test_one_record_a_repr_line(tmp_path, capsys):
    # a library-ts file holds one result repr a line, each its own record
    for side, theta in (("a", 0.02), ("b", 0.021)):
        (tmp_path / side / "library-ts").mkdir(parents=True)
        (tmp_path / side / "library-ts" / "d1.txt").write_text(
            "(0.01, 0.02, NMResult(x=array([1.0, -2.0]), fx=1e-10, converged=True))\n"
            f"(0.1, {theta}, NMResult(x=array([1.0, -2.0]), fx=1e-10, converged=False))\n")
    assert output_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "library-ts: 0/1 files byte-identical",
        "  capped (1 records): [] 4.8e-02 abs 1.0e-03",
    ]


def test_usage(capsys):
    assert output_diff.main(["one-root"]) == 2
    assert "ROOT_A ROOT_B" in capsys.readouterr().err
