"""Span tracing for the per-layer run, kept entirely inside the benchmark.

A layer boundary is a public entry point of an irmlab module.  While a
``Tracer`` is installed, each entry point listed in ``TARGETS`` is replaced,
in every irmlab module (or class) that holds it, by a wrapper that records a
span: name, start, end, parent span and op id.  ``numpy.linalg.eigvalsh`` is
wrapped as well and named after the layer that called it.  Generators
(transition powers, gluing enumeration) get one span per item they produce.

Spans live in flat arrays until the run ends.  Quantities that are counted
(items yielded, bytes written, certificates closed) or computed from the
arguments (flops, Wick tuples) go to named counters; ``LAYER_METRICS`` says
which metric is which.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.op_id = -1
        self.counters = {}
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------
    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, amount=1):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def current_layer(self):
        """Module prefix of the innermost open span, or None."""
        if not self._stack:
            return None
        return self.names[self.name[self._stack[-1]]].split(".")[0]

    # -- installing the wrappers --------------------------------------------
    def install(self):
        """Wrap every target that exists; a layer removed from irmlab reads 0."""
        for module_name, attr, span, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                holders = [getattr(module, cls_name)]
                original = vars(holders[0]).get(attr)
            else:
                original = getattr(module, attr, None)
                holders = [m for name, m in list(sys.modules.items())
                           if name == "irmlab" or name.startswith("irmlab.")]
            if original is None:
                continue
            make = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_call
            wrapper = make(self, span, original, hook)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))
        original = np.linalg.eigvalsh
        np.linalg.eigvalsh = _wrap_eigvalsh(self, original)
        self._undo.append((np.linalg, "eigvalsh", original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def save(self, path, op_names):
        np.savez(path, name=np.asarray(self.name, dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int32),
                 op=np.asarray(self.op, dtype=np.int32),
                 names=np.asarray(self.names), op_names=np.asarray(op_names))


def _wrap_call(tracer, span, fn, hook):
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result
    return traced


def _wrap_generator(tracer, span, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                idx = tracer.open(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                tracer.count(span + ".items")
                if hook is not None:
                    hook(tracer, gen, item)
                yield item
        finally:
            gen.close()
    return traced


EIGVALSH_SPAN = {"edgestats": "edgestats.eigvalsh", "markov": "markov.tail_eig"}


def _wrap_eigvalsh(tracer, fn):
    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        span = EIGVALSH_SPAN.get(tracer.current_layer(), "numpy.eigvalsh")
        idx = tracer.open(span)
        try:
            result = fn(a, *args, **kwargs)
        finally:
            tracer.close(idx)
        # Householder tridiagonalization dominates: 4/3 n^3 real flops,
        # four real flops per complex one.
        n = np.shape(a)[-1]
        tracer.count(span + ".flops", 4.0 / 3.0 * n ** 3 * (4 if np.iscomplexobj(a) else 1))
        return result
    return traced


# -- hooks: counted and computed quantities ------------------------------------

def _cli_output_bytes(tracer, arguments, result):
    out = arguments["config"]["out"]
    tracer.count("cli.output_bytes",
                 sum(e.stat().st_size for e in os.scandir(out) if e.is_file()))


def _certificate_closed(tracer, arguments, report):
    tracer.count("markov.check.closed", int(not report.horizon_limited))


def _power_step(tracer, gen, item):
    n, Pn = item
    if n > 1:
        tracer.count("markov.powers.flops", 2.0 * Pn.shape[0] ** 3)
    # the yielded power is float64 either way; the working dtype is only
    # visible in the suspended generator's frame
    working = gen.gi_frame.f_locals.get("Pn") if gen.gi_frame else None
    if working is not None and working.dtype == np.longdouble:
        tracer.count("markov.powers.longdouble")


def _wick_tuples(tracer, arguments, result):
    profile = arguments["profile"]
    N = profile.n_rows if hasattr(profile, "n_rows") else np.shape(profile)[0]
    tracer.count("diagrams.wick.tuples", N ** sum(m for m in arguments["m_list"] if m > 0))


_BUILDERS = ("uniform_profile", "band_profile", "generalized_wigner_profile",
             "sparse_profile", "block_wegner_profile", "regular_graph_profile",
             "random_regular_adjacency", "wishart_profile", "sinkhorn_symmetric")
_CHEBYSHEV = ("orthogonality_check", "product_coeff_identity",
              "q_vs_chebyshev_grid", "un_pn_identity_exact", "u_poly_half_coeffs")

# (module, attribute, span name, hook); generator functions get one span per item
TARGETS = (
    [("irmlab.cli", "run", "cli.run", _cli_output_bytes),
     ("irmlab.cli", "run_scenario", "cli.run_scenario", None),
     ("irmlab.ensembles", "sample", "ensembles.sample", None),
     ("irmlab.ensembles", "EnsembleSpec.digest", "ensembles.digest", None),
     ("irmlab.edgestats", "spectrum", "edgestats.spectrum", None),
     ("irmlab.edgestats", "ks_2sample", "edgestats.ks", None),
     ("irmlab.edgestats", "universality_test", "edgestats.universality", None),
     ("irmlab.markov", "check_mixing", "markov.check", _certificate_closed),
     ("irmlab.markov", "bipartite_check_mixing", "markov.check", _certificate_closed),
     ("irmlab.markov", "transition_powers", "markov.powers", _power_step),
     ("irmlab.diagrams", "enumerate_gluings", "diagrams.gluings", None),
     ("irmlab.diagrams", "glue", "diagrams.glue", None),
     ("irmlab.diagrams", "okounkov_contract", "diagrams.contract", None),
     # skeleton_sum keys a diagram only after it survived the tree and
     # connectivity filters, so these spans count the kept gluings
     ("irmlab.diagrams", "Diagram.structure_key", "diagrams.kept", None),
     ("irmlab.diagrams", "diagram_value", "diagrams.value", None),
     ("irmlab.diagrams", "wick_moment", "diagrams.wick", _wick_tuples),
     ("irmlab.nonbacktracking", "verify_wigner_path_expansion",
      "nonbacktracking.verify", None),
     ("irmlab.nonbacktracking", "verify_wishart_path_expansion",
      "nonbacktracking.verify", None),
     ("irmlab.nonbacktracking", "nb_powers", "nonbacktracking.nb_powers", None),
     ("irmlab.nonbacktracking", "seeded_family", "nonbacktracking.seeded_family", None)]
    + [("irmlab.profiles", f, "profiles.build", None) for f in _BUILDERS]
    + [("irmlab.chebyshev", f, "chebyshev", None) for f in _CHEBYSHEV]
)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

class SpanTable:
    """Column view of a tracer's spans with self times and nesting."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        name = np.asarray(tracer.name, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        self.dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(name))
        self.self_time = self.dur - child
        # a span nested in a span of the same name is not counted again
        nested = np.zeros(len(name), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
        self.name = name
        self.outer = ~nested

    def _mask(self, span):
        return self.name == self.ids.get(span, -1)

    def calls(self, span):
        return int(np.count_nonzero(self._mask(span) & self.outer))

    def total(self, span):
        return float(self.dur[self._mask(span) & self.outer].sum())

    def self_total(self, span):
        return float(self.self_time[self._mask(span)].sum())

    def pct_ms(self, span, q):
        d = self.dur[self._mask(span)]
        return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

    def counter(self, key):
        return float(self.tracer.counters.get(key, 0))


def _ratio(num, den):
    return num / den if den else 0.0


# Each entry: (unit, kind, value from a SpanTable); kind says how the number
# was obtained.
def _calls(span):
    return ("count", "counted", lambda s: s.calls(span))


def _total(span):
    return ("s", "measured", lambda s: s.total(span))


def _self(span):
    return ("s", "measured", lambda s: s.self_total(span))


def _pct(span, q):
    return ("ms", "measured", lambda s: s.pct_ms(span, q))


def _counter(key, unit, kind):
    return (unit, kind, lambda s: s.counter(key))


LAYER_METRICS = {
    "ensembles.sample.calls": _calls("ensembles.sample"),
    "ensembles.sample_s": _total("ensembles.sample"),
    "ensembles.sample.p50_ms": _pct("ensembles.sample", 50),
    "ensembles.sample.p99_ms": _pct("ensembles.sample", 99),
    "edgestats.spectrum.calls": _calls("edgestats.spectrum"),
    "edgestats.spectrum.self_s": _self("edgestats.spectrum"),
    "edgestats.spectrum.p50_ms": _pct("edgestats.spectrum", 50),
    "edgestats.spectrum.p99_ms": _pct("edgestats.spectrum", 99),
    "edgestats.eigvalsh.calls": _calls("edgestats.eigvalsh"),
    "edgestats.eigvalsh_s": _total("edgestats.eigvalsh"),
    "edgestats.eigvalsh.flops": _counter("edgestats.eigvalsh.flops", "flop", "computed"),
    "edgestats.ks.calls": _calls("edgestats.ks"),
    "edgestats.ks_s": _total("edgestats.ks"),
    "edgestats.universality.calls": _calls("edgestats.universality"),
    "edgestats.universality_s": _total("edgestats.universality"),
    "ensembles.digest.calls": _calls("ensembles.digest"),
    "ensembles.digest_s": _total("ensembles.digest"),
    "cli.run.calls": _calls("cli.run"),
    "cli.run.self_s": _self("cli.run"),
    "cli.output_bytes": _counter("cli.output_bytes", "B", "counted"),
    "profiles.build.calls": _calls("profiles.build"),
    "profiles.build_s": _total("profiles.build"),
    "markov.check.calls": _calls("markov.check"),
    "markov.check.self_s": _self("markov.check"),
    "markov.powers.count": _counter("markov.powers.items", "count", "counted"),
    "markov.powers_s": _total("markov.powers"),
    "markov.powers.flops": _counter("markov.powers.flops", "flop", "computed"),
    "markov.powers.longdouble_count": _counter("markov.powers.longdouble", "count",
                                               "counted"),
    "markov.tail_eig_s": _total("markov.tail_eig"),
    "markov.closed_ratio": ("ratio", "counted",
                            lambda s: _ratio(s.counter("markov.check.closed"),
                                             s.calls("markov.check"))),
    "diagrams.gluings.count": _counter("diagrams.gluings.items", "count", "counted"),
    "diagrams.gluings_s": _total("diagrams.gluings"),
    "diagrams.glue_s": _total("diagrams.glue"),
    "diagrams.contract.calls": _calls("diagrams.contract"),
    "diagrams.contract_s": _total("diagrams.contract"),
    "diagrams.kept_ratio": ("ratio", "counted",
                            lambda s: _ratio(s.calls("diagrams.kept"),
                                             s.counter("diagrams.gluings.items"))),
    "diagrams.value.calls": _calls("diagrams.value"),
    "diagrams.value_s": _total("diagrams.value"),
    "diagrams.value_reuse_ratio": ("ratio", "counted",
                                   lambda s: _ratio(s.calls("diagrams.kept")
                                                    - s.calls("diagrams.value"),
                                                    s.calls("diagrams.kept"))),
    "diagrams.wick.calls": _calls("diagrams.wick"),
    "diagrams.wick_s": _total("diagrams.wick"),
    "diagrams.wick.tuples": _counter("diagrams.wick.tuples", "count", "computed"),
    "nonbacktracking.verify.calls": _calls("nonbacktracking.verify"),
    "nonbacktracking.verify_s": _total("nonbacktracking.verify"),
    "nonbacktracking.nb_powers_s": _total("nonbacktracking.nb_powers"),
    "nonbacktracking.seeded_family_s": _total("nonbacktracking.seeded_family"),
    "chebyshev.calls": _calls("chebyshev"),
    "chebyshev_s": _total("chebyshev"),
}

# Whole-process context, filled in by the runner rather than from spans.
PROCESS_METRICS = {
    "proc.cpu_s": ("s", "measured"),
    "proc.cpu_util": ("ratio", "measured"),
    "trace.overhead_ratio": ("ratio", "measured"),
}


def layer_metrics(tracer):
    spans = SpanTable(tracer)
    return {name: float(fn(spans)) for name, (_, _, fn) in LAYER_METRICS.items()}


def per_op_summary(tracer, op_names):
    """For each op: span name -> [calls, total seconds] (outermost spans)."""
    spans = SpanTable(tracer)
    ops = np.asarray(tracer.op, dtype=np.int64)
    out = {}
    for op_id, op_name in enumerate(op_names):
        in_op = (ops == op_id) & spans.outer
        rows = {}
        for name, nid in spans.ids.items():
            sel = in_op & (spans.name == nid)
            if sel.any():
                rows[name] = [int(sel.sum()), float(spans.dur[sel].sum())]
        out[op_name] = rows
    return out
