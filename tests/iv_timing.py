"""Time the whole-surface implied_vol of two checkouts against each other.

Usage:
    python tests/iv_timing.py ROOT_A ROOT_B

ROOT_A and ROOT_B are checkouts of this repository (each with src/fxsvol).
The calls are those of the benchmark's heston-ivtarget workload on the
seed-706 history (perfbench/history.py, perfbench/worker.py): for each of
its 40 dates, the ICM start and the implied-vol-target fit capped at 60
iterations.  This checkout's own src records every (surface, prices) pair
those fits pass to implied_vol, in fit order.  Each checkout then replays
the sequence on one GKCells per surface, built as its calibrate.SurfaceCost
builds it.  A checkout whose GKCells keeps the last solve's vols as the next
one's start (last_vols) has them cleared before each pass, so its warm
starts apply as in the fits; one whose GKCells holds no such state needs
nothing.

Each of ROUNDS rounds runs one subprocess per checkout, the order
alternating between rounds.  A subprocess replays the sequence PASSES + 1
times on fresh cells, times the last PASSES and counts the GKCells.price
and GKCells.price_greeks calls (whole-surface evaluations) in an untimed
pass after them.  It prints each checkout's median and quartiles over all
timed passes of the mean microseconds per call, the change of the median
from A to B, and each checkout's price and price_greeks calls per call.

pytest does not collect this file: its name has no test_ prefix.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SEED, MAX_ITER = 706, 60
ROUNDS, PASSES = 10, 2

CHILD = r"""
import json, sys, time
import numpy as np
from fxsvol import cli, pricer
from fxsvol.calibrate import SurfaceCost

csv, record, passes = sys.argv[1], np.load(sys.argv[2]), int(sys.argv[3])
dates, which, prices = record["dates"].tolist(), record["which"].tolist(), record["prices"]
rows = [prices[k] for k in range(len(which))]
cli._keep_freed_heap()  # the heap policy cli.main runs the fits under
manifest = cli.RunManifest(command="calibrate", input_path=csv, output_dir="")
surfaces = cli.load_surfaces(manifest)
contexts = [SurfaceCost(surfaces[d]) for d in dates]


def replay():
    cells = [ctx.cells for ctx in contexts]
    for c in cells:
        if hasattr(c, "last_vols"):
            c.last_vols = None
    for k, row in zip(which, rows):
        pricer.implied_vol(cells[k], row)


us = []
for p in range(passes + 1):
    t0 = time.perf_counter_ns()
    replay()
    t1 = time.perf_counter_ns()
    if p:
        us.append((t1 - t0) / 1e3 / len(rows))
calls = {}


def counted(name):
    plain = getattr(pricer.GKCells, name)
    calls[name] = 0

    def wrapper(self, sigma):
        calls[name] += 1
        return plain(self, sigma)

    setattr(pricer.GKCells, name, wrapper)


counted("price")
counted("price_greeks")
replay()
print(json.dumps({"us": us, "calls": {k: v / len(rows) for k, v in calls.items()}}))
"""


def record(path, tmp):
    """Write the seed's history CSV to tmp and the fits' implied_vol calls to path."""
    sys.path[:0] = [HERE, os.path.join(REPO, "perfbench"), os.path.join(REPO, "src")]
    from history import CAL_DATES, WARMUP_DATES, history_csv
    from fxsvol import calibrate, cli
    from fxsvol.errors import FxsvolError

    csv, dates = history_csv(tmp, SEED, WARMUP_DATES + CAL_DATES)
    dates = dates[-CAL_DATES:]
    surfaces = cli.load_surfaces(cli.RunManifest(command="calibrate", input_path=csv,
                                                 output_dir=""))
    hist = cli.historical_context(surfaces)
    which, rows, plain = [], [], calibrate.implied_vol

    for k, d in enumerate(dates):
        def recorded(cells, prices, *args, k=k):
            vols = plain(cells, prices, *args)
            which.append(k)
            rows.append(np.array(prices))
            return vols

        calibrate.implied_vol = recorded
        try:
            start, _, _ = cli.build_start("heston", "icm", surfaces[d], hist)
            calibrate.calibrate_full("heston", surfaces[d], start,
                                     cost_spec=calibrate.CostSpec(target="implied_vol"),
                                     max_iter=MAX_ITER)
        except FxsvolError:
            pass
        finally:
            calibrate.implied_vol = plain
    np.savez(path, dates=np.array(dates), which=np.array(which), prices=np.array(rows))
    return csv, len(rows)


def run(root, csv, path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, csv, path, str(PASSES)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/iv_timing.py ROOT_A ROOT_B", file=sys.stderr)
        return 2
    roots = tuple(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "calls.npz")
        csv, n_calls = record(path, tmp)
        us, calls = ([], []), [None, None]
        for r in range(ROUNDS):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                out = run(roots[side], csv, path)
                us[side].extend(out["us"])
                calls[side] = out["calls"]
    print(f"whole-surface implied_vol, us per call: median [quartiles] over {ROUNDS} rounds x "
          f"{PASSES} passes of {n_calls} calls, seed {SEED}")
    print(f"A = {roots[0]}\nB = {roots[1]}")
    (a1, a2, a3), (b1, b2, b3) = (statistics.quantiles(xs, n=4) for xs in us)
    print(f"A {a2:8.1f} [{a1:.1f}-{a3:.1f}]  B {b2:8.1f} [{b1:.1f}-{b3:.1f}]  "
          f"{100.0 * (b2 / a2 - 1.0):+6.1f}%")
    for name in ("price", "price_greeks"):
        print(f"GKCells.{name} calls per call: A {calls[0][name]:.2f}  B {calls[1][name]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
