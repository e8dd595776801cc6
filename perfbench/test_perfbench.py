"""Smoke test of the benchmark itself on a tiny history.

Run: python3 -m pytest perfbench/test_perfbench.py   (about a minute)

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced run records spans in all seven package modules, and that the
correctness gate passes.  It asserts nothing about speed.
"""

import json
import os

import pytest

import run

MODULES = {"cli", "market_data", "moments", "estimators", "calibrate", "pricer", "charfn"}


@pytest.fixture(scope="module")
def units():
    return run.benchmark_spec()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_emitted_with_units(workload, trace, units, capsys):
    res = run.run_workload(workload, seed=7, seconds=2, trace=trace, n_dates=2, warmup=3)
    # untraced: the dates and the check pass; traced: an untraced/traced pair
    assert res["attempted"] >= 3 and res["failed"] == 0
    expected = units[trace]
    line = run.report(res, expected, trace)
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == line
    assert line["correct"] is True
    assert set(line["metrics"]) == set(expected)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float), name
    if trace:
        spans_path = os.path.join(run.ROOT, res["notes"]["spans"])
        with open(spans_path) as fh:
            modules = {json.loads(row)["name"].split(".", 1)[0] for row in fh}
        assert MODULES <= modules


def test_every_layer_metric_has_a_prediction(units):
    assert set(units[1]) == set(run.PREDICTIONS)


def test_tail_keeps_ten_dates_beyond():
    values = [float(i) for i in range(48)]
    assert run.tail(values)[0] == 37.0  # 38..47 lie beyond it
    assert run.tail(values[:12])[0] == 11.0  # too few dates: the maximum


def test_patched_functions_still_pickle_by_reference(monkeypatch):
    """A process pool can still be handed a function the benchmark has wrapped."""
    import pickle

    from fxsvol import cli

    import tracer
    import worker

    for wrap in (worker.timed, lambda fn: tracer.Tracer().span("cli.x", fn)):
        monkeypatch.setattr(cli, "cmd_pipeline_one_date", wrap(cli.cmd_pipeline_one_date))
        patched = cli.cmd_pipeline_one_date
        assert pickle.loads(pickle.dumps(patched)) is patched
