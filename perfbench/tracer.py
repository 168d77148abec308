"""Span tracer that wraps polyaprofile's public functions from outside.

The tracer replaces each traced function or method with a wrapper that
records one span (name, start, end, parent span, run id) per call, in
memory.  Nothing inside ``src/`` changes: module-level functions are
replaced in every ``polyaprofile`` module that holds a reference to them,
and methods are replaced on their class (aliases such as ``__rmul__`` too).
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (layer name, module, owner attribute, method attribute or None, note kind)
LAYERS = (
    ("enumeration.count_trees", "enumeration", "count_trees", None, None),
    ("enumeration.tree_series", "enumeration", "tree_series", None, None),
    ("enumeration.multiset_cap_series", "enumeration", "multiset_cap_series", None, None),
    ("series.mul", "series", "TruncatedSeries", "__mul__", None),
    ("series.add", "series", "TruncatedSeries", "__add__", None),
    ("series.substitute_power", "series", "TruncatedSeries", "substitute_power", None),
    ("series.exp", "series", "TruncatedSeries", "exp", None),
    ("series.evaluate", "series", "TruncatedSeries", "evaluate", None),
    ("series.marked_mul", "series", "MarkedSeries", "__mul__", None),
    ("series.marked_exp", "series", "MarkedSeries", "exp", None),
    ("series.marked_polya_exponent", "series", "MarkedSeries", "polya_exponent", None),
    ("profile.gamma_series", "profile", "gamma_series", None, None),
    ("profile.second_factorial_series", "profile", "second_factorial_series", None, None),
    ("profile.mixed_gamma_series", "profile", "mixed_gamma_series", None, None),
    ("profile.finite_covariance", "profile", "finite_covariance", None, None),
    ("profile.level_degree_series", "profile", "level_degree_series", None, None),
    ("profile.two_level_series", "profile", "two_level_series", None, None),
    ("profile.mixed_degree_series", "profile", "mixed_degree_series", None, None),
    ("constants.compute_constants", "constants", "compute_constants", None, None),
    ("constants.compute_rho", "constants", "compute_rho", None, None),
    ("constants.compute_b", "constants", "compute_b", None, None),
    ("constants.compute_C", "constants", "compute_C", None, None),
    ("constants.c_d_rho_solve", "constants", "c_d_rho_solve", None, None),
    ("sampling.monte_carlo", "sampling", "monte_carlo", None, None),
    ("sampling.sample_shape", "sampling", "TreeSampler", "sample_shape", "size"),
    ("sampling.from_shape", "sampling", "PolyaTree", "from_shape", "nodes"),
    ("sampling.extract_profile", "sampling", "extract_profile", None, None),
    ("limits.eval_psi", "limits", "eval_psi", None, None),
    ("limits.correlation_convergence_report", "limits", "correlation_convergence_report",
     None, None),
    ("limits.eval_limit_mean", "limits", "eval_limit_mean", None, None),
)

SAMPLE_SIZES = (1600, 6400)  # tree sizes whose sample_shape percentiles are reported


def _note(kind, args, result):
    if kind == "size":  # TreeSampler.sample_shape(self, n, rng)
        return args[1]
    if kind == "nodes" and result is not None:  # PolyaTree.from_shape(cls, shape)
        return len(result.parent)
    return None


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, *_ in LAYERS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
        out[f"{name}.self_s"] = "s"
    for n in SAMPLE_SIZES:
        out[f"sampling.sample_shape.n{n}.ms_p50"] = "ms"
        out[f"sampling.sample_shape.n{n}.ms_p99"] = "ms"
    out["sampling.nodes_emitted"] = "count"
    out["trace_overhead_frac"] = "ratio"
    return out


class Tracer:
    """Records spans for the calls into LAYERS while installed."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, name, start, end, parent id, note)
        self._open = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original object)

    def _wrap(self, name, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._open[-1] if tracer._open else None
            tracer._open.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                note = _note(kind, args, result) if kind else None
                tracer.spans.append((span_id, name, start, end, parent, note))

        return traced

    def _replace_everywhere(self, original, replacement, owners):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, replacement)

    def _owners(self):
        """The polyaprofile modules, and the classes whose methods are traced."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "polyaprofile" or key.startswith("polyaprofile."))]
        classes = {getattr(sys.modules[f"polyaprofile.{module}"], owner_attr)
                   for _, module, owner_attr, method, _ in LAYERS if method is not None}
        return modules, list(classes)

    def install(self):
        modules, _ = self._owners()
        for name, module, attr, method, kind in LAYERS:
            obj = getattr(sys.modules[f"polyaprofile.{module}"], attr)
            if method is None:  # a module-level function: replace every reference to it
                self._replace_everywhere(obj, self._wrap(name, obj, kind), modules)
                continue
            raw = vars(obj)[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, kind))
            else:
                wrapped = self._wrap(name, raw, kind)
            self._replace_everywhere(raw, wrapped, [obj])

    def uninstall(self):
        """Restore every patched attribute; True when no wrapper is left anywhere."""
        held = [vars(owner)[attr] for owner, attr, _ in self._patches]  # keeps ids unique
        wrappers = {id(w) for w in held}
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        modules, classes = self._owners()
        return not any(id(value) in wrappers
                       for owner in modules + classes for value in vars(owner).values())

    def write(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, note in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "note": note}) + "\n")

    def per_layer(self):
        """calls / total s / self s per layer, sample_shape percentiles, nodes emitted."""
        child_time = {}
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        metrics = {}
        for name, *_ in LAYERS:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.s"] = 0.0
            metrics[f"{name}.self_s"] = 0.0
        shape_ms = {n: [] for n in SAMPLE_SIZES}
        nodes = 0
        for span_id, name, start, end, _, note in self.spans:
            dur = end - start
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.s"] += dur
            metrics[f"{name}.self_s"] += dur - child_time.get(span_id, 0.0)
            if name == "sampling.sample_shape" and note in shape_ms:
                shape_ms[note].append(dur * 1000.0)
            elif name == "sampling.from_shape" and note is not None:
                nodes += note
        for n, values in shape_ms.items():
            metrics[f"sampling.sample_shape.n{n}.ms_p50"] = _quantile(values, 50)
            metrics[f"sampling.sample_shape.n{n}.ms_p99"] = _quantile(values, 99)
        metrics["sampling.nodes_emitted"] = nodes
        return metrics


def _quantile(values, pct):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
