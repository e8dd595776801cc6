"""The names the benchmark harness in perfbench/ reaches into.

perfbench/worker.py and tracer.py wrap fxsvol functions by patching module
attributes, so renaming one breaks the benchmark without failing a test of
the package.  These tests pin every such attribute.
"""

import ast
import importlib.util
import inspect
import os

import numpy as np
import pytest

from fxsvol import calibrate, cli, market_data

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
HARNESS_FILES = ("worker.py", "tracer.py", "setup_probe.py")

# cli functions the worker times (the first two), calls or the tracer wraps,
# with their parameters
CLI_SIGNATURES = {
    "cmd_pipeline_one_date": ["manifest", "surface", "hist"],
    "historical_context": ["surfaces"],
    "build_start": ["model", "method", "surface", "hist"],
    "write_json": ["path", "payload"],
    "load_surfaces": ["manifest"],
    "params_to_dict": ["kind", "params"],
}
# names cli imports and the tracer patches in cli's namespace
CLI_IMPORTS = {
    "ingest_csv": market_data, "build_surface": market_data,
    "calibrate_variance_ts": calibrate, "calibrate_full": calibrate,
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _harness_references():
    """(module name, attribute) of every cli.X / calibrate.X in the harness."""
    refs = set()
    for name in HARNESS_FILES:
        with open(os.path.join(PERFBENCH, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("cli", "calibrate")):
                refs.add((node.value.id, node.attr))
    return sorted(refs)


@pytest.mark.parametrize("module,attr", _harness_references())
def test_harness_references_exist(module, attr):
    assert hasattr({"cli": cli, "calibrate": calibrate}[module], attr)


def test_tracer_patches_are_module_callables():
    tracer = _load_tracer().Tracer()
    per_date = (cli, "cmd_pipeline_one_date", "cli.cmd_pipeline_one_date")
    for owner, attr, _ in tracer.patches(per_date):
        # install() reads the original from the owner's own namespace
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(CLI_SIGNATURES))
def test_cli_signatures(name):
    assert list(inspect.signature(vars(cli)[name]).parameters) == CLI_SIGNATURES[name]


def test_calibrate_full_takes_the_worker_keywords():
    # the library workload calls calibrate_full(kind, surface, start,
    # cost_spec=CostSpec(target=...), max_iter=...)
    params = inspect.signature(calibrate.calibrate_full).parameters
    assert list(params)[:3] == ["kind", "surface", "start_params"]
    for name in ("cost_spec", "max_iter"):
        assert params[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert "target" in inspect.signature(calibrate.CostSpec).parameters


@pytest.mark.parametrize("name", sorted(CLI_IMPORTS))
def test_cli_imports_are_the_library_functions(name):
    assert vars(cli)[name] is getattr(CLI_IMPORTS[name], name)


def test_implied_vol_reached_through_the_traced_name(heston_surface, heston_median_params,
                                                    monkeypatch):
    # the tracer's pricer.implied_vol.* metrics wrap calibrate.implied_vol
    calls, plain = [], calibrate.implied_vol

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(calibrate, "implied_vol", counted)
    ctx = calibrate.SurfaceCost(heston_surface, calibrate.CostSpec(target="implied_vol"))
    ctx("heston", heston_median_params)
    assert len(calls) == 1
    calibrate.rmse_report(ctx, "heston", heston_median_params)
    assert len(calls) == 2


def test_traced_cf_factory_prices_a_surface(heston_surface, heston_median_params,
                                            monkeypatch):
    # the tracer wraps calibrate.cf_factory, calls it as factory(kind, params,
    # jump=jump) and passes the closure's arguments through
    tracer = _load_tracer().Tracer()
    ctx = calibrate.SurfaceCost(heston_surface)
    plain = ctx.model_calls("heston", heston_median_params)
    monkeypatch.setattr(calibrate, "cf_factory",
                        tracer.traced_cf_factory(calibrate.cf_factory))
    assert np.array_equal(ctx.model_calls("heston", heston_median_params), plain)
    assert [rec[0] for buf in tracer.buffers for rec in buf.spans] == ["charfn.cf"]
