"""Span tracing around calls into the library's layers.

The tracer replaces module attributes through which one layer calls
another (for example `verify.segment_inside`, the name verify uses to reach
geometry) with timing wrappers, and puts the originals back on exit.
Nothing under src/ changes.  Spans (layer, parent span, start, end) stay in
memory; `write` saves them once the run is over.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager

# (module the caller looks the name up in, attribute, layer function)
SITES = (
    ("verify", "verify_reachability", "verify.verify_reachability"),
    ("verify", "fold_rule", "verify.fold_rule"),
    ("verify", "circle_path_intersections", "geometry.circle_path_intersections"),
    ("verify", "segment_inside", "geometry.segment_inside"),
    ("verify", "region_diameter", "geometry.region_diameter"),
    ("geometry", "arc_path_area", "geometry.arc_path_area"),
    ("geometry", "path_self_intersects", "geometry.path_self_intersects"),
    ("involute", "involute_cover", "involute.involute_cover"),
    ("search", "involute_cover", "involute.involute_cover"),
    ("involute", "validate_chain", "involute.validate_chain"),
    ("search", "local_search", "search.local_search"),
    ("search", "perturb", "search.perturb"),
    ("smooth", "reproduce_appendix", "smooth.reproduce_appendix"),
    ("smooth", "optimize_smooth", "smooth.optimize_smooth"),
    ("smooth", "discretize_smooth", "smooth.discretize_smooth"),
    ("smooth", "solve_coefficients", "smooth.solve_coefficients"),
    ("smooth", "smooth_area", "smooth.smooth_area"),
    ("numerics", "minimize_1d", "numerics.minimize_1d"),
    ("highprec", "sin_decimal", "highprec.sin_decimal"),
    ("highprec", "cos_decimal", "highprec.cos_decimal"),
)

CHAIN_DIAGNOSTIC_KINDS = ("length", "symmetry", "concavity", "endpoints",
                          "ordering", "unwrap", "closure", "simple")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []     # (name id, parent span index or -1, start, end)
        self._open = []     # indices of the spans still running
        self.counts = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """fn timed as a span of `name`; hooks see its result or exception."""
        nid = self._name_id(name)
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            # span() inlined: this runs on every call of a traced layer
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                spans[index] = (nid, parent, start, clock())
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a phase."""
        nid = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (nid, parent, start, time.perf_counter())
            self._open.pop()

    @contextmanager
    def installed(self, lib):
        """Wrap every site in SITES on the modules of `lib`; restore on exit."""
        hooks = self._hooks(lib)
        saved = []
        try:
            for module_name, attr, layer in SITES:
                module = getattr(lib, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                on_result, on_error, adapt = hooks.get(layer, (None, None, None))
                fn = adapt(original) if adapt else original
                setattr(module, attr, self.wrap(layer, fn, on_result, on_error))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _hooks(self, lib):
        """Per-layer counters: layer -> (on_result, on_error, adapt)."""
        counts = self.counts
        rejection = lib.involute.InadmissibleChainError

        def hits(result):
            counts["geometry.circle_path_intersections.hits"] += len(result)

        def accepted(result):
            counts["geometry.segment_inside.accepted"] += bool(result)

        def rejected(exc):
            if isinstance(exc, rejection):
                for kind in sorted({d.kind for d in exc.diagnostics}):
                    counts[f"involute.rejected.{kind}"] += 1

        def improvements(trace):
            areas = trace.best_areas
            counts["search.iterations"] += len(areas) - 1
            counts["search.improvements"] += sum(
                1 for a, b in zip(areas, areas[1:]) if b < a)

        def pi_misses(report):
            counts["highprec.pi_decimal.misses"] += \
                lib.highprec.pi_decimal.cache_info().misses

        def minimizer(result):
            counts["numerics.minimize_1d.iterations"] += result.iterations
            counts["numerics.minimize_1d.unconverged"] += not result.converged

        def count_evals(minimize_1d):
            def counted(f, *args, **kwargs):
                def objective(x):
                    counts["numerics.minimize_1d.evals"] += 1
                    return f(x)
                return minimize_1d(objective, *args, **kwargs)
            return counted

        return {
            "geometry.circle_path_intersections": (hits, None, None),
            "geometry.segment_inside": (accepted, None, None),
            "involute.involute_cover": (None, rejected, None),
            "search.local_search": (improvements, None, None),
            "smooth.reproduce_appendix": (pi_misses, None, None),
            "numerics.minimize_1d": (minimizer, None, count_evals),
        }

    def layer_totals(self):
        """name -> (calls, self seconds); self time excludes child spans."""
        n = len(self.names)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * n
        spans = self.spans
        for (nid, parent, start, end) in spans:
            calls[nid] += 1
            total[nid] += end - start
            if parent >= 0:
                child[spans[parent][0]] += end - start
        return {name: (calls[i], total[i] - child[i])
                for i, name in enumerate(self.names)}

    def call_edges(self):
        """'caller -> callee' -> number of calls, from the span parents."""
        edges = Counter()
        spans, names = self.spans, self.names
        for (nid, parent, _, _) in spans:
            caller = names[spans[parent][0]] if parent >= 0 else "(root)"
            edges[f"{caller} -> {names[nid]}"] += 1
        return dict(sorted(edges.items()))

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value, for the names in BENCHMARK.json."""
        totals = self.layer_totals()
        counts = self.counts
        out = {}

        def calls(layer):
            return totals.get(layer, (0, 0.0))[0]

        def ratio(num, den):
            return num / den if den else 0.0

        for layer in ("verify.verify_reachability", "verify.fold_rule",
                      "geometry.circle_path_intersections",
                      "geometry.segment_inside", "geometry.path_self_intersects",
                      "involute.involute_cover", "search.perturb",
                      "highprec.sin_decimal", "highprec.cos_decimal",
                      "smooth.solve_coefficients", "smooth.smooth_area",
                      "numerics.minimize_1d"):
            out[f"{layer}.calls"] = calls(layer)
        for layer in ("verify.verify_reachability", "verify.fold_rule",
                      "geometry.circle_path_intersections",
                      "geometry.segment_inside", "geometry.region_diameter",
                      "geometry.path_self_intersects", "geometry.arc_path_area",
                      "involute.involute_cover", "involute.validate_chain",
                      "search.perturb", "highprec.sin_decimal",
                      "highprec.cos_decimal", "smooth.solve_coefficients",
                      "smooth.smooth_area", "smooth.discretize_smooth",
                      "smooth.optimize_smooth", "numerics.minimize_1d"):
            out[f"{layer}.self_s"] = totals.get(layer, (0, 0.0))[1]
        cpi = "geometry.circle_path_intersections"
        out[f"{cpi}.hits_per_call"] = ratio(counts[f"{cpi}.hits"], calls(cpi))
        si = "geometry.segment_inside"
        out[f"{si}.accept_ratio"] = ratio(counts[f"{si}.accepted"], calls(si))
        for kind in CHAIN_DIAGNOSTIC_KINDS:
            out[f"involute.rejected.{kind}"] = counts[f"involute.rejected.{kind}"]
        out["search.accept_ratio"] = ratio(counts["search.improvements"],
                                           counts["search.iterations"])
        out["highprec.pi_decimal.misses"] = counts["highprec.pi_decimal.misses"]
        for key in ("iterations", "evals", "unconverged"):
            out[f"numerics.minimize_1d.{key}"] = counts[f"numerics.minimize_1d.{key}"]
        return out

    def write(self, path, extra: dict):
        """Save names, spans, call edges and counters as gzipped JSON."""
        doc = dict(extra)
        doc.update(names=self.names, spans=self.spans,
                   edges=self.call_edges(), counts=dict(sorted(self.counts.items())))
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
