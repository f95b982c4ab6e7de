"""Spans and per-layer counters for the benchmark's traced run.

`Tracer.install` wraps the public callables of each matym layer from
outside the package (every module binding of a function, and the class
attribute of a method); `Tracer.restore` puts every original back. Each
wrapped call opens a span: name, start, end, parent span and pass id.
Self time is a span's duration minus the time its child spans cover. A
call made directly inside a span of the same name (recursion, `__rsub__`
calling `__sub__`, `hodge(..., "right")` calling the left star) belongs to
the outer span.

The per-element layers (form algebra, exact scalar arithmetic, the Hodge
star and vector packing) run hundreds of thousands of times a pass; they
are counted and timed in aggregate but keep no span of their own.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from matym import fields as fd
from matym.matforms import DiffForm

_EXACT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__")


def _mul_layer(form, other, *_):
    return "matforms.wedge" if isinstance(other, DiffForm) else "matforms.linear"


# (module, class or None, attributes, layer, keeps spans). A callable layer
# picks the name from the call's arguments.
TARGETS = (
    ("matym.matforms", "DerivationCalculus", ("__init__",), "matforms.calculus", True),
    ("matym.matforms", "DiffForm", ("d",), "matforms.d", False),
    ("matym.matforms", "DiffForm", ("wedge", "lmul", "rmul"), "matforms.wedge", False),
    ("matym.matforms", "DiffForm", ("__mul__",), _mul_layer, False),
    ("matym.matforms", "DiffForm", ("star",), "matforms.star", False),
    ("matym.matforms", "DiffForm", ("__add__", "__sub__", "__neg__", "__rmul__", "__truediv__"),
     "matforms.linear", False),
    ("matym.qriemann", None, ("hodge", "hodge_inv"), "qriemann.hodge", False),
    ("matym.qriemann", None, ("codifferential",), "qriemann.codifferential", True),
    ("matym.qriemann", None, ("laplacian",), "qriemann.laplacian", True),
    ("matym.qriemann", None, ("operator_matrix",), "qriemann.operator_matrix", True),
    ("matym.qriemann", None, ("gram_matrices",), "qriemann.gram_matrices", True),
    # spectrum's self time is the eigensolve: gram_matrices is its child
    ("matym.qriemann", None, ("spectrum",), "qriemann.eigensolve", True),
    ("matym.qriemann", None, ("form_to_vec", "vec_to_form"), "qriemann.vec", False),
    ("matym.qbundle", None, ("cov_derivative",), "qbundle.cov_derivative", True),
    ("matym.qbundle", None, ("cov_codifferential",), "qbundle.cov_codifferential", True),
    ("matym.fields", None, ("residual_blocks",), "fields.residual", True),
    ("matym.fields", None, ("solve_stationary",), "fields.solve", True),
    ("matym.fields", None, ("ym_action", "gsm_action", "sm_action", "ymsm_action"),
     "fields.action", True),
    ("matym.exact", "GaussianRational", _EXACT_OPS, "exact", False),
    ("matym.verify", None, ("run_verification",), "verify.run", True),
    ("matym.cli", None, ("main",), "cli.main", True),
)

LAYERS = (
    "matforms.calculus", "matforms.d", "matforms.wedge", "matforms.star", "matforms.linear",
    "qriemann.hodge", "qriemann.codifferential", "qriemann.laplacian",
    "qriemann.operator_matrix", "qriemann.gram_matrices", "qriemann.eigensolve",
    "qriemann.vec", "qbundle.cov_derivative", "qbundle.cov_codifferential",
    "fields.residual", "fields.solve", "fields.action", "exact", "verify.run", "cli.main",
)
# layers whose inclusive share of the pass is reported as well
INCLUSIVE = ("qriemann.operator_matrix", "qriemann.eigensolve", "fields.solve",
             "fields.residual", "verify.run", "cli.main")
COUNTS = ("fields.converged", "fields.iterations", "fields.residual_evals",
          "fields.line_search_trials", "verify.checks", "verify.failed")


def solver_coordinates(cfg, options):
    """Length of the solver's real coordinate vector: real and imaginary
    parts of every varied connection and section entry."""
    calc = cfg.calc
    n2 = calc.N * calc.N
    complex_size = calc.dim * n2 if options.vary_connection else 0
    complex_size += n2 * ((options.vary_left and cfg.left is not None)
                          + (options.vary_right and cfg.right is not None))
    return 2 * complex_size


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []  # (id, name, start, end, parent id, pass id)
        self.pass_id = None
        self._stack = []  # open frames: [name, child seconds, span id]
        self._patched = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, keep):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            name = layer(*args) if callable(layer) else layer
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, len(spans) if keep else parent]
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[frame[2]] = (frame[2], name, start, end, parent, self.pass_id)

        traced.__wrapped__ = fn
        return traced

    def _observe_solve(self, fn):
        """Solver counters; residual evaluations are the fields.residual
        spans that close while this solve runs."""
        def solve_stationary(cfg0, options=None):
            before = self.calls["fields.residual"]
            cfg, report = fn(cfg0, options)
            evals = self.calls["fields.residual"] - before
            m = solver_coordinates(cfg0, options or fd.SolverOptions())
            self.counts["fields.converged"] += bool(report.converged)
            self.counts["fields.iterations"] += report.iterations
            self.counts["fields.residual_evals"] += evals
            # initial and report evaluations, 2m per Jacobian or gradient
            self.counts["fields.line_search_trials"] += evals - 2 - report.iterations * 2 * m
            return cfg, report
        return solve_stationary

    def _observe_verify(self, fn):
        def run_verification(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.counts["verify.checks"] += report["summary"]["total"]
            self.counts["verify.failed"] += report["summary"]["failed"]
            return report
        return run_verification

    def install(self):
        matym_modules = [m for name, m in list(sys.modules.items())
                         if name == "matym" or name.startswith("matym.")]
        try:
            for module_name, class_name, attrs, layer, keep in TARGETS:
                module = sys.modules[module_name]
                for attr in attrs:
                    if class_name is not None:
                        owner = getattr(module, class_name)
                        self._patch(owner, attr, self._wrap(owner.__dict__[attr], layer, keep))
                        continue
                    original = getattr(module, attr)
                    inner = {"solve_stationary": self._observe_solve,
                             "run_verification": self._observe_verify}.get(attr)
                    traced = self._wrap(inner(original) if inner else original, layer, keep)
                    for mod in matym_modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, traced)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def solver_share(self):
        """Share of verify.run time spent inside fields.solve spans."""
        by_id = {s[0]: s for s in self.spans if s is not None}
        inside = 0.0
        for span in by_id.values():
            if span[1] != "fields.solve":
                continue
            parent = span[4]
            while parent is not None and by_id[parent][1] != "verify.run":
                parent = by_id[parent][4]
            if parent is not None:
                inside += span[3] - span[2]
        verify_s = self.total_s["verify.run"]
        return 100.0 * inside / verify_s if verify_s else 0.0

    def layer_metrics(self, traced_s, passes):
        """Per-layer metrics for `passes` traced passes that took `traced_s`
        seconds in all: counts per pass, and self time and (for INCLUSIVE)
        span time as a share of `traced_s`."""
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = (self.calls[name] / passes, "count/pass")
            metrics[f"{name}.self_pct"] = (100.0 * self.self_s[name] / traced_s, "%")
        for name in INCLUSIVE:
            metrics[f"{name}.total_pct"] = (100.0 * self.total_s[name] / traced_s, "%")
        for name in COUNTS:
            metrics[name] = (self.counts[name] / passes, "count/pass")
        metrics["verify.solver_share"] = (self.solver_share(), "%")
        return metrics

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, pass_id in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                    "parent": parent, "pass": pass_id}) + "\n")
