"""Span tracer for the traced benchmark run.

The tracer wraps public names of the vemtransport modules from outside
the package, at the place where each caller looks the name up (for
example ``vemtransport.cli.solve_darcy_mixed``, because ``cli`` imported
it by name). Three kinds of wrapper exist:

* spans record (name, start, end, parent) for coarse calls, such as a
  Darcy solve or one right-hand-side evaluation;
* callbacks (the data methods of the problem classes) are called up to
  half a million times per run, so they are aggregated into calls,
  points and seconds; their time is still charged to the enclosing span
  so that self times stay exact;
* counters only count calls (quadrature rules and root computations).

Spans are kept in memory and written once when the run ends. A name a
later refactor removes is reported as missing rather than crashing.
"""

import importlib
import json
import os
import threading
import time

import numpy as np

CLI = "vemtransport.cli"
TS = "vemtransport.timestepping"

#: span name -> per-layer metrics read from it:
#: (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "geometry.generate": ("geometry.generate_s", None),
    "darcy.solve": ("darcy.solve_s", "darcy.calls"),
    "linalg.saddle_solve": ("linalg.saddle_solve_s", None),
    "element.vemspace": ("element.vemspace_s", "element.vemspace_calls"),
    "transport.assembly": ("transport.assembly_s", None),
    "transport.rhs": ("transport.rhs_s", "transport.rhs_calls"),
    "timestepping.advance": ("timestepping.advance_self_s", None),
    "timestepping.slab_matrix": ("timestepping.slab_matrix_s", None),
    "timestepping.factor": ("timestepping.factor_s", "timestepping.factor_calls"),
    "timestepping.slab_solve": ("timestepping.slab_solve_s", "timestepping.slabs"),
    "postproc.error_norms": ("postproc.error_norms_s", None),
    "postproc.minmax": ("postproc.minmax_s", None),
    "meshio.write": ("meshio.write_s", None),
}

#: problem-size fields; the metric is the largest value over the run
SIZE_METRICS = {
    "cells": "geometry.cells",
    "dofs": "element.dofs",
    "saddle_unknowns": "linalg.saddle_unknowns",
    "saddle_nnz": "linalg.saddle_nnz",
    "slab_unknowns": "timestepping.slab_unknowns",
    "slab_nnz": "timestepping.slab_nnz",
}

COUNTER_METRICS = ("quadrature.roots_calls", "quadrature.polygon_rule_calls",
                   "quadrature.edge_rule_calls")

CALLBACK_METHODS = {
    "vemtransport.problems:ManufacturedProblem": (
        "velocity", "pressure", "f", "darcy_f", "darcy_g_D",
        "c", "grad_c", "c0", "c_tilde", "c_inflow",
    ),
    "vemtransport.problems:WellsProblem": (
        "f", "darcy_f", "g_N", "c_tilde", "c_inflow", "c0",
    ),
}

#: every per-layer metric the traced run reports, in output order
PER_LAYER = (
    ["geometry.generate_s", "geometry.cells",
     "darcy.solve_s", "darcy.calls",
     "linalg.saddle_solve_s", "linalg.saddle_unknowns", "linalg.saddle_nnz",
     "element.vemspace_s", "element.vemspace_calls", "element.dofs",
     "transport.assembly_s", "transport.rhs_s", "transport.rhs_calls",
     "timestepping.advance_self_s", "timestepping.slab_matrix_s",
     "timestepping.factor_s", "timestepping.factor_calls",
     "timestepping.slab_solve_s", "timestepping.slabs",
     "timestepping.factor_reuse_ratio",
     "timestepping.slab_unknowns", "timestepping.slab_nnz",
     "postproc.error_norms_s", "postproc.minmax_s",
     "meshio.write_s", "meshio.bytes",
     "problems.callback_calls", "problems.callback_points", "problems.callback_s"]
    + list(COUNTER_METRICS)
    + ["cli.self_s", "cli.cpu_over_wall", "trace.wall_s", "trace.overhead_s"]
)


def unit(metric):
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("ratio", "over_wall")):
        return "ratio"
    return "count"


def _n_points(args):
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim == 2:
            return len(a)
    return 0


class Tracer:
    """In-memory record of one traced run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, callback seconds inside]
        self.spans = []
        self.sizes = []  # (span index, {field: value})
        self.counts = dict.fromkeys(COUNTER_METRICS, 0)
        self.callbacks = {"calls": 0, "points": 0, "seconds": 0.0}
        self.meshio_bytes = 0
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.in_callback = False
        return st

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap `fn` so that each call records a span; `after(result, args,
        kwargs, index)` may record sizes or wrap the returned object."""

        def wrapper(*args, **kwargs):
            st = self._state()
            with self._lock:
                index = len(self.spans)
                parent = st.stack[-1] if st.stack else -1
                self.spans.append([name, time.perf_counter(), None, parent, 0.0])
            st.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                st.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                try:
                    after(result, args, kwargs, index)
                except (AttributeError, IndexError, TypeError, OSError):
                    # a changed signature or return type loses the size
                    # record, not the run
                    self.missing.append(f"{name} (size record)")
            return result

        return wrapper

    def callback(self, fn):
        """Wrap a problem-data method; nested data calls count once."""

        def wrapper(*args, **kwargs):
            st = self._state()
            if st.in_callback:
                return fn(*args, **kwargs)
            st.in_callback = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.in_callback = False
                with self._lock:
                    cb = self.callbacks
                    cb["calls"] += 1
                    cb["points"] += _n_points(args)
                    cb["seconds"] += dt
                    if st.stack:
                        self.spans[st.stack[-1]][4] += dt

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- after-hooks --------------------------------------------------------

    def _record(self, index, **fields):
        with self._lock:
            self.sizes.append((index, fields))

    def _file_bytes(self, path):
        with self._lock:
            self.meshio_bytes += os.path.getsize(path)

    def install(self):
        """Patch the vemtransport modules in this process."""
        span_targets = [
            (f"{CLI}:generate_family", "geometry.generate",
             lambda r, a, k, i: self._record(i, cells=r.num_cells)),
            (f"{CLI}:generate_hexa", "geometry.generate",
             lambda r, a, k, i: self._record(i, cells=r.num_cells)),
            (f"{CLI}:run_manufactured_level", "cli.level",
             lambda r, a, k, i: self._record(i, cells=a[0].num_cells,
                                             level=k.get("level"), D=a[4])),
            (f"{CLI}:solve_darcy_mixed", "darcy.solve", None),
            ("vemtransport.darcy:solve", "linalg.saddle_solve",
             lambda r, a, k, i: self._record(i, saddle_unknowns=len(r[0]),
                                             saddle_nnz=int(a[0].nnz))),
            ("vemtransport.transport:VemSpace", "element.vemspace",
             lambda r, a, k, i: self._record(i, dofs=int(r.n_dofs))),
            (f"{CLI}:advance", "timestepping.advance", None),
            (f"{TS}:slab_matrix", "timestepping.slab_matrix",
             lambda r, a, k, i: self._record(i, slab_unknowns=r.shape[0],
                                             slab_nnz=int(r.nnz))),
            (f"{TS}:Factorization", "timestepping.factor", self._wrap_slab_solve),
            (f"{CLI}:error_norms", "postproc.error_norms", None),
            (f"{CLI}:minmax_trace", "postproc.minmax", None),
            (f"{CLI}:write_polymesh", "meshio.write",
             lambda r, a, k, i: self._file_bytes(a[1])),
            (f"{CLI}:write_vtk", "meshio.write",
             lambda r, a, k, i: self._file_bytes(a[1])),
            ("vemtransport.meshio:write_vtk", "meshio.write",
             lambda r, a, k, i: self._file_bytes(a[1])),
            (f"{CLI}:write_vtk_series", "meshio.write",
             lambda r, a, k, i: self._file_bytes(r)),
        ]
        for method in ("__init__", "mass", "operator_parts", "advection_operator",
                       "initial_condition"):
            span_targets.append(
                (f"vemtransport.transport:TransportSystem.{method}", "transport.assembly", None)
            )
        span_targets.append(("vemtransport.transport:TransportSystem.rhs", "transport.rhs", None))
        for target, name, after in span_targets:
            self._patch(target, lambda fn, n=name, h=after: self.span(n, fn, h))

        counter_targets = [
            ("vemtransport.quadrature:roots_legendre", "quadrature.roots_calls"),
            ("vemtransport.quadrature:roots_jacobi", "quadrature.roots_calls"),
            ("vemtransport.quadrature:polygon_rule", "quadrature.polygon_rule_calls"),
            ("vemtransport.element:polygon_rule", "quadrature.polygon_rule_calls"),
            ("vemtransport.darcy:polygon_rule", "quadrature.polygon_rule_calls"),
            ("vemtransport.element:edge_rule", "quadrature.edge_rule_calls"),
            ("vemtransport.darcy:edge_rule", "quadrature.edge_rule_calls"),
        ]
        for target, name in counter_targets:
            self._patch(target, lambda fn, n=name: self.counter(n, fn))

        for cls, methods in CALLBACK_METHODS.items():
            for method in methods:
                self._patch(f"{cls}.{method}", self.callback)

    def _wrap_slab_solve(self, fact, args, kwargs, index):
        fact.solve = self.span("timestepping.slab_solve", fact.solve)

    def _patch(self, target, make_wrapper):
        module_name, attr_path = target.split(":")
        *owners, attr = attr_path.split(".")
        try:
            obj = importlib.import_module(module_name)
            for name in owners:
                obj = getattr(obj, name)
            original = getattr(obj, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(obj, attr, make_wrapper(original))

    # -- output -------------------------------------------------------------

    def write(self, path, wall_s, cpu_s):
        """Write the whole record as JSON once, at the end of the run."""
        payload = {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "spans": self.spans,
            "sizes": self.sizes,
            "counts": self.counts,
            "callbacks": self.callbacks,
            "meshio_bytes": self.meshio_bytes,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans):
    """Self time of every span: its duration minus its child spans and the
    data callbacks that ran directly inside it."""
    own = [end - start - cb for _, start, end, _, cb in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def problem_sizes(trace):
    """One row per study level: sizes from the objects the wrapped calls
    took or returned. Records outside any level span (mesh generation,
    or the whole wells study, which has no level span) form a row only
    when the run has no level span."""
    spans = trace["spans"]
    rows = {}
    for index, fields in trace["sizes"]:
        level = index
        while level >= 0 and spans[level][0] != "cli.level":
            level = spans[level][3]
        rows.setdefault(level, {}).update(fields)
    if len(rows) > 1:
        rows.pop(-1, None)
    return [rows[key] for key in sorted(rows)]


def layer_metrics(trace):
    """Per-layer metrics of one traced run (see PER_LAYER)."""
    spans = trace["spans"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        if name not in SPAN_METRICS:
            continue
        time_metric, count_metric = SPAN_METRICS[name]
        metrics[time_metric] += own
        if count_metric:
            metrics[count_metric] += 1
    for row in problem_sizes(trace):
        for field, metric in SIZE_METRICS.items():
            if field in row:
                metrics[metric] = max(metrics[metric], row[field])
    if metrics["timestepping.slabs"]:
        metrics["timestepping.factor_reuse_ratio"] = (
            1.0 - metrics["timestepping.factor_calls"] / metrics["timestepping.slabs"]
        )
    metrics["meshio.bytes"] = trace["meshio_bytes"]
    cb = trace["callbacks"]
    metrics["problems.callback_calls"] = cb["calls"]
    metrics["problems.callback_points"] = cb["points"]
    metrics["problems.callback_s"] = cb["seconds"]
    metrics.update(trace["counts"])
    layered = sum(metrics[SPAN_METRICS[name][0]] for name in SPAN_METRICS)
    metrics["cli.self_s"] = trace["wall_s"] - layered - cb["seconds"]
    metrics["cli.cpu_over_wall"] = trace["cpu_s"] / trace["wall_s"]
    metrics["trace.wall_s"] = trace["wall_s"]
    return metrics
