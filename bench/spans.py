"""Spans and counters for the traced run, recorded from the benchmark side.

``install`` runs inside a forked job process only.  It replaces every
public function of each layer module, wherever an ``openstrings`` module
has bound it, with a wrapper that records a span (name, start, end,
parent, depth) in memory; ``NovikovSeries`` construction and ring
operators are wrapped on the class, because ``ainfty`` and ``morse`` bind
the class at import.  Wrappers never change arguments or results, so a
traced job prints the same bytes as an untraced one.

At the end of the job ``Recorder.finish`` turns the spans into per-name
self times and call counts plus the counters below, and keeps the
coarse spans (depth <= 2) for the span file written when the run ends.
"""

from __future__ import annotations

import inspect
import time

LAYERS = ("cli", "novikov", "ainfty", "morse", "maslov", "polytopes", "conductors")
# per-face helpers run ~10^5 times per polytope job; wrapping them would
# cost more than the work, so their time stays in their callers' self time
UNWRAPPED = {"polytopes.face_dimension", "polytopes.serialize_face",
             "polytopes.assoc_facet_parity", "polytopes.assoc_facet_sign",
             "polytopes.multi_lower_sign", "polytopes.multi_upper_sign"}
KEEP_DEPTH = 2
KEEP_SPANS = 1000


class Recorder:
    def __init__(self, job_id):
        self.job_id = job_id
        self.next_id = 0
        self.stack = []        # [span id, time covered by child spans]
        self.spans = []        # (id, parent, name, start ns, end ns, depth)
        self.self_ns = {}
        self.calls = {}
        self.counters = {}
        self.maxima = {}

    def add(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def finish(self):
        coarse = [s for s in self.spans if s[5] <= KEEP_DEPTH]
        return {"job": self.job_id, "self_ns": self.self_ns, "calls": self.calls,
                "counters": self.counters, "maxima": self.maxima,
                "span_count": len(self.spans), "spans": coarse[:KEEP_SPANS]}


def _wrap(rec, name, fn, observe=None, errors=None):
    clock = time.perf_counter_ns
    stack, spans, self_ns, calls = rec.stack, rec.spans, rec.self_ns, rec.calls

    def wrapper(*args, **kwargs):
        parent = stack[-1][0] if stack else 0
        rec.next_id += 1
        frame = [rec.next_id, 0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if errors and isinstance(exc, errors[0]):
                rec.add(errors[1])
            raise
        finally:
            end = clock()
            stack.pop()
            dur = end - start
            self_ns[name] = self_ns.get(name, 0) + dur - frame[1]
            calls[name] = calls.get(name, 0) + 1
            if stack:
                stack[-1][1] += dur
            spans.append((frame[0], parent, name, start, end, len(stack)))
        if observe is not None:
            observe(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


# ---------------------------------------------------------------------------
# counters observed at the layer boundaries


def _cohomology_cells(rec, args, result):
    c = args[0]
    mu = {g.id: g.mu for g in c.datum.generators}
    n = c.modulus
    sizes = {}
    for word in c.words:
        g = sum(mu[x] for x in word) + len(word) - 1
        g = g % n if n > 0 else g
        sizes[g] = sizes.get(g, 0) + 1
    for g, rows in sizes.items():
        up = (g + 1) % n if n > 0 else g + 1
        rec.add("ainfty.cohomology_cells", rows * sizes.get(up, 0))


def _observers(mods):
    series = mods["novikov"].NovikovSeries

    def terms_out(rec, args, result):
        if isinstance(result, series):
            rec.add("novikov.terms_out", len(result.terms))

    def crossings(rec, args, result):
        rec.add("maslov.crossings", len(result.crossings))
        rec.add("maslov.irrational_crossings",
                sum(1 for c in result.crossings if c.lower != c.upper))

    return {
        "cli.main": lambda rec, a, r: rec.add("cli.bad_input", int(r == 2)),
        "novikov.NovikovSeries.__init__":
            lambda rec, a, r: rec.peak("novikov.max_terms", len(a[0].terms)),
        "novikov.NovikovSeries.__mul__": terms_out,
        "ainfty.enumerate_words": lambda rec, a, r: rec.add("ainfty.words", len(r)),
        "ainfty.assemble_differential": lambda rec, a, r: rec.add(
            "ainfty.differential_nnz", sum(len(row) for row in r.differential.values())),
        "ainfty.cohomology": _cohomology_cells,
        "maslov.path_from_json": lambda rec, a, r: rec.add("maslov.paths"),
        "maslov.rs_index_report": crossings,
        "polytopes.enumerate_faces": lambda rec, a, r: rec.add("polytopes.faces", len(r)),
        "polytopes.boundary_map_consistency": lambda rec, a, r: rec.add(
            "polytopes.boundary_entries", r["boundary_entries"]),
    }


def _errors(mods):
    rejected = (mods["maslov"].DegenerateCrossing, mods["maslov"].ChartMismatch)
    return {
        "ainfty.cohomology": ((mods["ainfty"].NonUnitPivot,), "ainfty.nonunit_pivots"),
        "maslov.rs_index_report": (rejected, "maslov.rejected"),
        "maslov.path_from_json": (rejected, "maslov.rejected"),
    }


SERIES_METHODS = ("__init__", "__mul__", "__rmul__", "__add__", "__radd__",
                  "__sub__", "__rsub__", "__neg__", "scale")


def install(job_id, mods):
    """Wrap every layer's public functions; ``mods`` maps layer -> module."""
    rec = Recorder(job_id)
    observers, errors = _observers(mods), _errors(mods)
    wrapped = {}

    def wrap(name, fn):
        if fn not in wrapped:
            wrapped[fn] = _wrap(rec, name, fn, observers.get(name), errors.get(name))
        return wrapped[fn]

    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or f"{layer}.{attr}" in UNWRAPPED):
                continue
            w = wrap(f"{layer}.{attr}", obj)
            for other in mods.values():
                if getattr(other, attr, None) is obj:
                    setattr(other, attr, w)
    series = mods["novikov"].NovikovSeries
    for meth in SERIES_METHODS:
        fn = vars(series)[meth]
        setattr(series, meth, wrap(f"novikov.NovikovSeries.{fn.__name__}", fn))
    return rec
