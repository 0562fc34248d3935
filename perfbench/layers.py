"""Traced runs: per-layer self time and calls, spans, GC and counters.

The tracer is installed from the benchmark's own files: cProfile for
self time and call counts, grouped by the source file that defines each
function; ``gc.callbacks`` for collector time; and spans that the
workloads record around their calls into qcolour's entry points.
"""

from __future__ import annotations

import cProfile
import fractions
import gc
import importlib
import os
import pstats
import time

LAYERS = ("scalars", "polys", "series", "rootdata", "crystal", "gqe",
          "repmod", "langint")

SPANS = ("crystal.congruence", "crystal.check_h_admissible",
         "crystal.h_admissible_expansion", "gqe.solve",
         "gqe.deformed_commutator_operator", "repmod.build_L",
         "repmod.freudenthal_char", "repmod.decompose_into_irreducibles",
         "langint.power_commutation_residual",
         "langint.dual_module_decomposition")

# hot functions: metric name -> (module, qualified name, profile field)
COUNTERS = {
    "polys.Poly.substitute.calls": ("polys", "Poly.substitute", "calls"),
    "polys.Poly.__init__.calls": ("polys", "Poly.__init__", "calls"),
    "polys.Poly.__mul__.calls": ("polys", "Poly.__mul__", "calls"),
    "series.TruncSeries1.__mul__.calls": ("series", "TruncSeries1.__mul__",
                                          "calls"),
    "series.series_div.calls": ("series", "series_div", "calls"),
    "crystal.CongruenceClass.value.calls": ("crystal",
                                            "CongruenceClass.value", "calls"),
    "gqe.verify_residuals.s": ("gqe", "verify_residuals", "cumtime"),
    "rootdata.RootDatum.inner_pairings.calls": (
        "rootdata", "RootDatum.inner_pairings", "calls"),
    "repmod.freudenthal_char.calls": ("repmod", "freudenthal_char", "calls"),
    "scalars.CyclotomicScalar.__mul__.calls": (
        "scalars", "CyclotomicScalar.__mul__", "calls"),
    "scalars.CyclotomicScalar.inverse.calls": (
        "scalars", "CyclotomicScalar.inverse", "calls"),
}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for layer in LAYERS + ("fractions",):
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
    out["runtime.gc_s"] = "s"
    out["runtime.gc_collections"] = "count"
    for name in SPANS:
        out[f"{name}.s"] = "s"
    for name in COUNTERS:
        out[name] = "s" if name.endswith(".s") else "count"
    out["trace.overhead_ratio"] = "ratio"
    return out


class Untraced:
    """Calls entry points directly; the tracer records spans instead."""

    task_id = None

    def call(self, name, fn, *args, **kw):
        return fn(*args, **kw)


class Tracer(Untraced):
    def __init__(self):
        self.spans = []             # (name, task id, start, end)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self.profile = cProfile.Profile()

    def call(self, name, fn, *args, **kw):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            self.spans.append((name, self.task_id, t0, time.perf_counter()))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        gc.callbacks.remove(self._on_gc)

    def metrics(self):
        """Per-layer metrics (without the overhead ratio)."""
        stats = pstats.Stats(self.profile).stats
        pkg = os.path.dirname(importlib.import_module("qcolour").__file__)
        frac = os.path.realpath(fractions.__file__)
        out = {}
        for layer in LAYERS + ("fractions",):
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for (path, _, _), (_, ncalls, tottime, _, _) in stats.items():
            if os.path.dirname(path) == pkg:
                layer = os.path.basename(path)[:-3]
            elif os.path.realpath(path) == frac:
                layer = "fractions"
            else:
                continue
            if f"{layer}.calls" in out:
                out[f"{layer}.self_s"] += tottime
                out[f"{layer}.calls"] += ncalls
        out["runtime.gc_s"] = self.gc_s
        out["runtime.gc_collections"] = self.gc_collections
        for name in SPANS:
            out[f"{name}.s"] = sum(end - start for nm, _, start, end
                                   in self.spans if nm == name)
        for name, (module, qualname, field) in COUNTERS.items():
            row = stats.get(_profile_key(module, qualname))
            if row is None:
                out[name] = 0
            else:
                out[name] = row[1] if field == "calls" else row[3]
        return out

    def span_records(self):
        return [{"name": nm, "task": task, "start": start, "end": end}
                for nm, task, start, end in self.spans]


def _profile_key(module, qualname):
    """cProfile's (file, first line, name) key of a qcolour function, or
    None when the function no longer exists."""
    obj = importlib.import_module(f"qcolour.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)
