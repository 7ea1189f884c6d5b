"""In-memory span tracer that wraps `dagum` functions from outside.

Each wrapped call records a span ``[name, start, end, parent]``, where
``parent`` is the index of the innermost wrapped call that was open.  A
span's self time is its duration minus the durations of its child spans.
Counters (integrand and objective evaluations, points, builds) are taken at
the same boundaries.  Nothing here changes an argument's value or a result,
so traced output bytes equal untraced ones; the runner checks that.

A function is replaced in every `dagum` module that binds it, because
modules import names directly (``classify`` binds ``maximize_1d``,
``find_root`` and ``eta_grid``; ``kernels`` binds ``integrate``).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.leaf_s = Counter()  # per span index: time in counted, unspanned callees
        self.tables = {}  # phi tables seen, by id (held so ids stay unique)
        self.build_spans = []  # spans of phi_callable calls that built a table

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, errors=()):
        """Span-recording wrapper; ``before`` may replace the arguments,
        ``after(args, result, span_index)`` takes counts."""
        spans, stack = self.spans, self.stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            if before is not None:
                args = before(args)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors:
                counts[name + ".errors"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, idx)
            return result

        return wrapper

    def counted(self, key, fn, timed=False):
        """Counting wrapper for a callable passed into a layer (integrands,
        objectives) or returned by one (model callables).  With ``timed``
        its time is charged to the enclosing span as child time."""
        counts = self.counts
        if not timed:

            def f(*args):
                counts[key] += 1
                return fn(*args)

            return f
        stack, leaf_s = self.stack, self.leaf_s

        def g(*args):
            counts[key] += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                leaf_s[stack[-1] if stack else -1] += perf_counter() - t0

        return g

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i] - self.leaf_s.get(i, 0.0)
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum(1 for s in self.spans if s[0] == child_name and s[3] in parents)

    def build_s(self) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.build_spans)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], t0, t1, p] for n, t0, t1, p in self.spans]}, fh)


def _replace(orig, wrapper) -> None:
    """Rebind ``orig`` to ``wrapper`` in every loaded dagum module."""
    for modname, mod in list(sys.modules.items()):
        if modname == "dagum" or modname.startswith("dagum."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose work the per-layer metrics count."""
    import dagum.cli  # noqa: F401  (load every module before rebinding)
    from dagum import classify, cli, fields, kernels, models, numerics, taylor
    from dagum.errors import ConvergenceError

    t, c = tracer, tracer.counts

    def count_arg(key):
        def before(args):
            return (t.counted(key, args[0]),) + tuple(args[1:])
        return before

    def patch(module, attr, name, **kw):
        orig = getattr(module, attr)
        _replace(orig, t.wrap(name, orig, **kw))

    patch(numerics, "integrate", "numerics.integrate",
          before=count_arg("numerics.integrate.integrand_evals"), errors=ConvergenceError)
    patch(numerics, "maximize_1d", "numerics.maximize_1d",
          before=count_arg("numerics.maximize_1d.objective_evals"))
    patch(numerics, "find_root", "numerics.find_root",
          before=count_arg("numerics.find_root.objective_evals"))

    ev = kernels.PsiEvaluator
    ev.__init__ = t.wrap("kernels.psi_evaluator.build", ev.__init__)

    def psi_points(args, result, idx):
        self, ts = args[0], args[1]
        n = int(np.size(ts))
        c["kernels.psi_values.points"] += n
        c["kernels.psi_values.exp_evals"] += n * int(np.size(self._weights))

    ev.psi_values = t.wrap("kernels.psi_values", ev.psi_values, after=psi_points)

    def phi_table(args, result, idx):
        if id(result) not in t.tables:
            t.tables[id(result)] = result
            t.build_spans.append(idx)

    patch(kernels, "phi_callable", "kernels.phi_table", after=phi_table)

    def eta_points(args, result, idx):
        c["kernels.eta_grid.points"] += int(np.size(args[2]))

    patch(kernels, "eta_grid", "kernels.eta_grid", after=eta_points)

    for name in ("psi_max", "beta_star", "c_bounds", "cm_scan",
                 "classify_aux_cm", "classify_aux_lcm", "classify_dagum", "classify_g"):
        patch(classify, name, "classify." + name)

    def witness(args, result, idx):
        c["classify.eta_witness.certificates"] += result is not None

    patch(classify, "eta_negative_witness", "classify.eta_witness", after=witness)
    patch(taylor, "taylor_eval", "taylor.taylor_eval")

    orig_corr = models.correlation

    def traced_correlation(*args, **kwargs):
        return t.counted("models.point_evals", orig_corr(*args, **kwargs), timed=True)

    _replace(orig_corr, t.wrap("models.correlation", traced_correlation))

    def gram(args, result, idx):
        n = int(result.shape[0])
        c["fields.gram_matrix.entries"] += n * n
        c["fields.gram_matrix.bytes"] += n * n * result.itemsize

    patch(fields, "gram_matrix", "fields.gram_matrix", after=gram)
    patch(fields, "random_point_set", "fields.random_point_set")
    patch(fields, "psd_check", "fields.psd_check")
    patch(fields, "simulate_profile", "fields.simulate_profile")

    def search(args, result, idx):
        c["fields.nonpsd_search.found"] += result is not None

    patch(fields, "nonpsd_search", "fields.nonpsd_search", after=search)
    patch(cli, "main", "cli.main")
