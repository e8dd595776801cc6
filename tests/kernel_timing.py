"""Time AttariLanes.calls of two checkouts against each other.

Usage:
    python tests/kernel_timing.py ROOT_A ROOT_B

ROOT_A and ROOT_B are checkouts of this repository (each with src/fxsvol).
The kernels are those of the benchmark's seed-706 history
(perfbench/history.py): the 40 dates it calibrates, each surface's one-lane
kernel built by calibrate.SurfaceCost and stacked by AttariLanes.stack into
1, 4, 8, 16, 20 and 40 rows, priced for heston and bates2f with fixed
parameter sets, one per row, under the heap policy cli.main sets.  20 and
40 rows are the steady-state kernel calls of a calibrate --jobs 2 worker
over the 40 dates and of a 40-date --jobs 1 run, one row per live lane.
Each of ROUNDS rounds runs one subprocess per checkout, the order
alternating between rounds; a subprocess warms every configuration up, then
times CALLS calls of each, interleaved.  It prints, per model and row count,
each checkout's median and quartiles in microseconds over all rounds, and
the change of the median from A to B.

pytest does not collect this file: its name has no test_ prefix.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEED, DATES, ROWS = 706, 40, (1, 4, 8, 16, 20, 40)
ROUNDS, CALLS = 20, 20

CHILD = r"""
import json, sys, time
from fxsvol import cli
from fxsvol.calibrate import SurfaceCost
from fxsvol.charfn import Factor, HestonParams, ParamLanes, TwoFactorParams, cf_factory
from fxsvol.pricer import AttariLanes

csv, sets, rows, calls = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3]), int(sys.argv[4])
cli._keep_freed_heap()  # the heap policy cli.main runs the kernel under
manifest = cli.RunManifest(command="calibrate", input_path=csv, output_dir="")
surfaces = cli.load_surfaces(manifest)
kernels = [SurfaceCost(surfaces[d]).kernel for d in sorted(surfaces)]
params = {"heston": [HestonParams(*h) for h in sets],
          "bates2f": [TwoFactorParams("bates2f", Factor(*h), Factor(*g))
                      for h, g in zip(sets, sets[::-1])]}
configs = [(kind, n, AttariLanes.stack(kernels[:n]),
            cf_factory(kind, ParamLanes.stack(kind, params[kind][:n])))
           for kind in ("heston", "bates2f") for n in rows]
times = {f"{kind} {n}": [] for kind, n, _, _ in configs}
for i in range(calls + 5):
    for kind, n, kernel, cf in configs:
        t0 = time.perf_counter_ns()
        kernel.calls(cf)
        t1 = time.perf_counter_ns()
        if i >= 5:
            times[f"{kind} {n}"].append((t1 - t0) / 1e3)
print(json.dumps(times))
"""


def quote_csv(path):
    """Write the seed's first DATES calibration surfaces to path."""
    repo = os.path.dirname(HERE)
    sys.path[:0] = [HERE, os.path.join(repo, "perfbench"), os.path.join(repo, "src")]
    from history import CAL_DATES, WARMUP_DATES, _surface, draw_history
    from synthutil import write_quote_csv

    items = draw_history(SEED, WARMUP_DATES + CAL_DATES)[WARMUP_DATES:WARMUP_DATES + DATES]
    write_quote_csv(path, [_surface(item) for item in items], vols_decimal=False)
    return [(p.nu0, p.theta, p.kappa, p.omega, p.rho) for _, _, p in items]


def run(root, csv, sets):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, csv, json.dumps(sets),
                          json.dumps(ROWS), str(CALLS)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/kernel_timing.py ROOT_A ROOT_B", file=sys.stderr)
        return 2
    roots = tuple(argv)
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "quotes.csv")
        sets = quote_csv(csv)
        times = ({}, {})
        for r in range(ROUNDS):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                for key, xs in run(roots[side], csv, sets).items():
                    times[side].setdefault(key, []).extend(xs)
    print(f"AttariLanes.calls, us: median [quartiles] over {ROUNDS} rounds x "
          f"{CALLS} calls, seed {SEED}")
    print(f"A = {roots[0]}\nB = {roots[1]}")
    for key in times[0]:
        a1, a2, a3 = statistics.quantiles(times[0][key], n=4)
        b1, b2, b3 = statistics.quantiles(times[1][key], n=4)
        print(f"{key:>10} rows: A {a2:8.1f} [{a1:.1f}-{a3:.1f}]  B {b2:8.1f} "
              f"[{b1:.1f}-{b3:.1f}]  {100.0 * (b2 / a2 - 1.0):+6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
