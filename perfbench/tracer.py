"""Tracing from outside the package: spans around fxsvol's public functions.

Nothing in the package knows about this module.  ``Tracer.patches`` lists
every wrapped name in the namespace it is *called* from (``calibrate`` imports
``attari_strip``, ``implied_vol`` and ``cf_factory`` by name, ``cli`` imports
the ``market_data`` and ``calibrate`` entry points by name), so a wrapper sees
exactly the calls the production path makes.

A span is ``[name, start, end, parent, date, note]``, kept in a per-thread
list while tracing and written out only when the run ends.  ``parent`` is the
index of the enclosing span in the same thread's list (-1 at the top) and
``note`` carries what the layer metrics need: node or cell counts, the
Nelder-Mead result, the Feller penalty, or the name of the exception raised.
Very hot callees (``gk_price``) are counted without a span.  Every wrapper
takes its target's name and module, so pickle still sends a patched function
to a process pool by reference; spans recorded in child processes are lost.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class _ThreadBuffer:
    __slots__ = ("thread", "spans", "stack", "date")

    def __init__(self, thread):
        self.thread = thread
        self.spans = []
        self.stack = []
        self.date = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []
        self._saved = []
        self._counters = {}

    # -- recording -----------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    def span(self, name, fn, note=None, per_date=False):
        """fn wrapped in a span; note(args, result) -> JSON-able detail."""
        buffer = self._buffer

        def wrapper(*args, **kwargs):
            buf = buffer()
            if per_date:
                buf.date = date_of(args)
            stack = buf.stack
            rec = [name, _clock(), 0.0, stack[-1] if stack else -1, buf.date, None]
            stack.append(len(buf.spans))
            buf.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = _clock()
                stack.pop()
                if per_date:
                    buf.date = None
            if note is not None:
                rec[5] = note(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def counter(self, name, fn):
        """fn counted without a span: one C-level increment, safe across threads.

        Positional calls only, which is how pricer.implied_vol calls gk_price.
        """
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        return functools.update_wrapper(wrapper, fn)

    def traced_cf_factory(self, factory):
        """cf_factory whose closures record a charfn.cf span per call.

        The span wrapper exposes the closure as __wrapped__, so the pricer's
        signature probe still sees the j parameter and takes the same branch.
        """
        def nodes(args, result):
            return int(getattr(args[0], "size", 1))

        def cf_factory(kind, params, jump=None):
            return self.span("charfn.cf", factory(kind, params, jump=jump), note=nodes)

        return functools.update_wrapper(cf_factory, factory)

    # -- patching --------------------------------------------------------------

    def patches(self, per_date):
        """(owner, attribute, replacement) for every boundary a layer metric reads.

        per_date = (owner, attribute, span name) of the workload's per-date
        entry point; its span carries the date to everything below it.
        """
        from fxsvol import calibrate, cli, estimators, moments, pricer

        def nm_note(args, res):
            return [res.iterations, bool(res.converged)]

        def penalty_note(args, res):
            return res == calibrate.FELLER_PENALTY

        def cells_note(args, res):
            return len(args[2])

        s = self.span
        owner, attr, name = per_date
        out = [(owner, attr, s(name, getattr(owner, attr), per_date=True))]
        for attr in ("build_start", "write_json", "load_surfaces"):
            out.append((cli, attr, s("cli." + attr, getattr(cli, attr))))
        for attr in ("ingest_csv", "build_surface"):
            out.append((cli, attr, s("market_data." + attr, getattr(cli, attr))))
        for attr in ("otm_strip", "surface_variance_ts", "surface_moment_sets"):
            out.append((moments, attr, s("moments." + attr, getattr(moments, attr))))
        for attr in ("historical_omega_rho", "icm_heston", "evp_split", "mevp_split"):
            out.append((estimators, attr, s("estimators." + attr, getattr(estimators, attr))))
        full = s("calibrate.calibrate_full", calibrate.calibrate_full)
        out += [(cli, "calibrate_full", full), (calibrate, "calibrate_full", full)]
        out.append((cli, "calibrate_variance_ts",
                    s("calibrate.calibrate_variance_ts", cli.calibrate_variance_ts)))
        out += [
            (calibrate, "nelder_mead", s("calibrate.nelder_mead", calibrate.nelder_mead,
                                         note=nm_note)),
            (calibrate, "rmse_report", s("calibrate.rmse_report", calibrate.rmse_report)),
            (calibrate.SurfaceCost, "__call__",
             s("calibrate.cost", calibrate.SurfaceCost.__call__, note=penalty_note)),
            (calibrate.SurfaceCost, "model_calls",
             s("calibrate.model_calls", calibrate.SurfaceCost.model_calls)),
            (calibrate.SurfaceCost, "model_vols",
             s("calibrate.model_vols", calibrate.SurfaceCost.model_vols)),
            (calibrate, "cf_factory", self.traced_cf_factory(calibrate.cf_factory)),
            (calibrate, "attari_strip", s("pricer.attari_strip", calibrate.attari_strip,
                                          note=cells_note)),
            (calibrate, "implied_vol", s("pricer.implied_vol", calibrate.implied_vol)),
            (pricer, "gk_price", self.counter("pricer.gk_price", pricer.gk_price)),
        ]
        return out

    def install(self, patches):
        for owner, attr, repl in patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, repl)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for b, buf in enumerate(self.buffers):
                for i, (name, start, end, parent, date, note) in enumerate(buf.spans):
                    fh.write(json.dumps({"buffer": b, "thread": buf.thread, "id": i,
                                         "name": name,
                                         "start": start, "end": end, "parent": parent,
                                         "date": date, "note": note}))
                    fh.write("\n")

    def counts(self):
        """{name: calls} of the counted callees; call once, after the run."""
        return {name: next(c) for name, c in self._counters.items()}


def date_of(args):
    """The date a per-date entry point works on: a surface argument's .date."""
    for a in args:
        date = getattr(a, "date", None)
        if isinstance(date, str):
            return date
    return None


# ---------------------------------------------------------------------------
# derived figures
# ---------------------------------------------------------------------------

def summarize(buffers):
    """Per span name: [(seconds, self seconds, parent name, date, note)].

    A span's self time is its duration minus the time its children cover;
    children run in the span's own thread, nested and one at a time.
    """
    out = defaultdict(list)
    for buf in buffers:
        spans = buf.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, date, note) in enumerate(spans):
            out[name].append((end - start, end - start - child[i],
                              spans[parent][0] if parent >= 0 else None, date, note))
    return out


def modules_seen(buffers):
    return sorted({rec[0].split(".", 1)[0] for buf in buffers for rec in buf.spans})
