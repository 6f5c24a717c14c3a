"""Spans and counts around the program's layer functions, added at run time.

The program has no instrumentation of its own yet, so the traced run wraps
the functions below in place and restores them afterwards.  A function that
another module imported by name (``from .series import compose3``) is
patched under every name that refers to it, so the wrapper sees every call.

Each span keeps its name, start, end and parent; counts are kept at the same
boundaries.  ``self`` time is a span's duration minus the duration of its
direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name).  A dotted attribute is a method.
TARGETS = (
    ("beltrami.series", "TruncatedSeries.__mul__", "series.mul"),
    ("beltrami.series", "compose3", "series.compose3"),
    ("beltrami.series", "eval_batch", "series.eval_batch"),
    ("beltrami.expr", "evaluate", "expr.evaluate"),
    ("beltrami.expr", "jet", "expr.jet"),
    ("beltrami.chart", "frame_jet", "chart.frame_jet"),
    ("beltrami.chart", "_graph_solve_from_jet", "chart.graph_solve"),
    ("beltrami.chart", "_flow_from_jet", "chart.flow"),
    ("beltrami.chart", "metric_data", "chart.metric"),
    ("beltrami.obstruction", "obstruction_P", "obstruction.obstruction_P"),
    ("beltrami.obstruction", "tensor_T", "obstruction.tensor_T"),
    ("beltrami.obstruction", "hierarchy_vectors", "obstruction.hierarchy_vectors"),
    ("beltrami.obstruction", "script_Tn", "obstruction.script_Tn"),
    ("beltrami.obstruction", "det4", "obstruction.det4"),
    ("beltrami.fd_oracle", "P_point_fd", "fd_oracle.P_point_fd"),
    ("beltrami.fd_oracle", "numeric_flow", "fd_oracle.numeric_flow"),
    ("beltrami.beltrami_ops", "chart_pullback", "beltrami_ops.chart_pullback"),
    ("beltrami.evolution", "run", "evolution.run"),
    ("beltrami.evolution", "init_from_potential", "evolution.init"),
    ("beltrami.evolution", "init_from_field", "evolution.init"),
    ("beltrami.evolution", "TEvaluator.__call__", "evolution.T_eval"),
    ("beltrami.evolution", "step", "evolution.step"),
    ("beltrami.evolution", "drift", "evolution.drift"),
)


MAX_SPANS = 500_000  # spans kept for the trace file; the metrics see every span


class Tracer:
    """Collects spans while installed; ``metrics`` reduces them per pass."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.total = defaultdict(float)  # name -> summed duration
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)  # duration minus direct children
        self.child_time = defaultdict(float)  # (parent, child) -> duration
        self.child_calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.dropped = 0
        self.absent = []
        self._stack = []  # [name, start, child duration, span index]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        if len(self.spans) < MAX_SPANS:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def _close(self):
        end = time.perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        if idx >= 0:
            self.spans[idx] = (nid, start, end, parent[3] if parent else -1)
        self.total[name] += dur
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if parent is not None:
            parent[2] += dur
            self.child_time[(parent[0], name)] += dur
            self.child_calls[(parent[0], name)] += 1

    def _wrap(self, fn, name):
        tracer = self

        if name == "series.mul":
            def wrapper(a, b):
                if not isinstance(b, type(a)):
                    return fn(a, b)  # scalar scaling, not a series product
                tracer._open("series.mul_exact" if a.exact else "series.mul_double")
                try:
                    return fn(a, b)
                finally:
                    tracer._close()
        elif name == "expr.evaluate":
            def wrapper(node, bindings, point):
                shape = getattr(point, "shape", None)
                tracer.counts["expr.evaluate.rows"] += (
                    shape[0] if shape is not None and len(shape) == 2 else 1)
                tracer._open(name)
                try:
                    return fn(node, bindings, point)
                finally:
                    tracer._close()
        else:
            def wrapper(*args, **kwargs):
                tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close()
        return wrapper

    # -- install / restore -------------------------------------------------

    def install(self):
        """Patch every target; a target missing from the program is recorded
        in ``absent`` and reported as such instead of failing the run."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "beltrami" or n.startswith("beltrami."))]
        wrapped = {}
        for module_name, attr, span in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if id(fn) in wrapped:
                continue
            wrapper = wrapped[id(fn)] = self._wrap(fn, span)
            if path:
                self._patches.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            for mod in package:  # every module that imported it by name
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def metrics(self, passes: int, spaces_built: int) -> dict:
        """Per-layer metrics, each a mean per pass (``spaces_built`` is the
        process total of monomial spaces, set-up included)."""
        n = max(passes, 1)

        def s(name):
            return self.total[name] / n

        def calls(name):
            return self.calls[name] / n

        def self_s(name):
            return self.self_time[name] / n

        hv = "obstruction.hierarchy_vectors"
        recursion = (self.total[hv] - self.child_time[(hv, "obstruction.tensor_T")]
                     - self.child_time[(hv, "obstruction.script_Tn")]) / n
        out = {
            "series.mul_exact.calls": calls("series.mul_exact"),
            "series.mul_exact.s": s("series.mul_exact"),
            "series.mul_double.calls": calls("series.mul_double"),
            "series.mul_double.s": s("series.mul_double"),
            "series.compose3.calls": calls("series.compose3"),
            "series.compose3.s": s("series.compose3"),
            "chart.frame_jet.s": s("chart.frame_jet"),
            "chart.graph_solve.s": s("chart.graph_solve"),
            "chart.graph_solve.compose3_calls":
                self.child_calls[("chart.graph_solve", "series.compose3")] / n,
            "chart.flow.s": s("chart.flow"),
            "chart.flow.compose3_calls":
                self.child_calls[("chart.flow", "series.compose3")] / n,
            "chart.metric.s": s("chart.metric"),
            "obstruction.tensor_T.s": s("obstruction.tensor_T"),
            "obstruction.recursion.s": recursion,
            "obstruction.script_Tn.s": s("obstruction.script_Tn"),
            "obstruction.det4.s": s("obstruction.det4"),
            "expr.evaluate.calls": calls("expr.evaluate"),
            "expr.evaluate.rows": self.counts["expr.evaluate.rows"] / n,
            "expr.evaluate.s": s("expr.evaluate"),
            "fd_oracle.P_point_fd.self_s": self_s("fd_oracle.P_point_fd"),
            "fd_oracle.numeric_flow.self_s": self_s("fd_oracle.numeric_flow"),
            "series.eval_batch.calls": calls("series.eval_batch"),
            "series.eval_batch.s": s("series.eval_batch"),
            "evolution.T_eval.s": s("evolution.T_eval"),
            "evolution.step.calls": calls("evolution.step"),
            "evolution.step.self_s": self_s("evolution.step"),
            "evolution.drift.s": s("evolution.drift"),
            "evolution.init.s": s("evolution.init"),
            "beltrami_ops.chart_pullback.s": s("beltrami_ops.chart_pullback"),
            "expr.jet.calls": calls("expr.jet"),
            "expr.jet.s": s("expr.jet"),
            "series.spaces_built": float(spaces_built),
        }
        return out

    def dump(self) -> dict:
        """Spans as written to the trace file."""
        return {"names": self.names, "absent": self.absent, "dropped": self.dropped,
                "columns": ["name", "start", "end", "parent"],
                "spans": [list(sp) for sp in self.spans if sp is not None]}
