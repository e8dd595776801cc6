"""Seeded synthetic quote history for the benchmark.

Every date is a surface generated by the CIR-variance (Heston) model through
``tests/synthutil.py``, with parameters drawn by ``conftest.draw_heston`` (the
interquartile boxes of the study's parameter tables) and a spot that follows a
seeded random walk, so ``historical_context`` sees real spot and vol-index
moves.  The first ``WARMUP_DATES`` dates only feed the 63-day EWMA estimators;
the workloads calibrate dates after them.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import math
import multiprocessing
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(os.path.dirname(HERE), "tests")
WARMUP_DATES = 62          # historical_omega_rho falls back for the first window - 1 dates
CAL_DATES = 40             # the dates the workloads calibrate, after the warm-up
GEN_PROCESSES = 2          # generation is set-up, not measured; sized for a 2-vCPU host
FIRST_DATE = _dt.date(2014, 1, 2)
SPOT0 = 1.30


def draw_history(seed, n_dates):
    """[(date, spot, HestonParams)] for n_dates weekdays; a pure function of seed."""
    from conftest import draw_heston

    rng = np.random.default_rng(seed)
    out, day, spot = [], FIRST_DATE, SPOT0
    while len(out) < n_dates:
        if day.weekday() < 5:
            params = draw_heston(rng)
            out.append((day.isoformat(), spot, params))
            spot *= math.exp(math.sqrt(params.nu0 / 252.0) * rng.standard_normal())
        day += _dt.timedelta(days=1)
    return out


def _surface(item):
    from synthutil import synth_surface

    date, spot, params = item
    return synth_surface("heston", params, date=date, spot=spot)


def _generator_key():
    h = hashlib.sha256(np.__version__.encode())
    for path in (os.path.abspath(__file__), os.path.join(TESTS, "synthutil.py"),
                 os.path.join(TESTS, "conftest.py")):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def history_csv(cache_dir, seed, n_dates):
    """(path, dates): the history as a percent-vol quote CSV.

    Generation takes 70-100 ms a date on one core, so it runs in
    GEN_PROCESSES processes, and the file is kept in cache_dir under a name
    that covers the seed, the length and the generator's code; later runs
    with the same seed reuse it.
    """
    from synthutil import write_quote_csv

    items = draw_history(seed, n_dates)
    path = os.path.join(cache_dir, f"seed{seed}-n{n_dates}-{_generator_key()}.csv")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        pool = multiprocessing.get_context("fork").Pool(GEN_PROCESSES)
        try:
            surfaces = pool.map(_surface, items, chunksize=4)
        finally:
            pool.terminate()
            pool.join()
        tmp = f"{path}.{os.getpid()}.tmp"
        write_quote_csv(tmp, surfaces, vols_decimal=False)
        os.replace(tmp, path)
    return path, [d for d, _, _ in items]
