"""In-memory span tracer that instruments qcircle from outside its source.

The library imports its kernels with ``from .x import y``, so a function is
reachable through several module namespaces.  ``Tracer.install`` rebinds
each wrapped function in every ``qcircle`` module that holds it (and in the
suite registry), records every rebinding, and ``Tracer.uninstall`` puts the
originals back.  The operator factories ``dq_apply``, ``tq_apply``,
``tq_iterate`` and ``m_apply`` are wrapped so that the closures they return
are traced too, because that is where their work happens.

A span is ``(id, parent_id, name, start_ns, end_ns)``; spans stay in memory
and ``write_spans`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

ROOT_PARENT = -1
# Span of the counting hooks, so that their cost is not any layer's self time.
HOOK_SPAN = "trace.hook"

# Span names for plain functions: (module, attribute) -> span name.
FUNCTION_SPANS = {
    ("qcore", "qpochhammer_inf"): "qcore.qpochhammer_inf",
    ("qcore", "qpochhammer"): "qcore.qpochhammer",
    ("qcore", "phi"): "qcore.phi",
    ("circle", "contour_mean"): "circle.quadrature",
    ("circle", "inner_product_c"): "circle.quadrature",
    ("szego", "szego_weight"): "szego.weight",
    ("szego", "szego_gram"): "szego.gram",
    ("biortho", "biortho_weight"): "biortho.weight",
    ("biortho", "r_fn"): "biortho.r_fn",
    ("biortho", "kappa_closed"): "biortho.kappa_closed",
    ("biortho", "biortho_gram"): "biortho.gram",
    ("suites", "run_suite"): "suites.run_suite",
    ("suites", "render"): "suites.render",
    ("cli", "main"): "cli.main",
}

# Factories whose returned closures are traced: (module, attribute) -> name.
OPERATOR_SPANS = {
    ("circle", "dq_apply"): "circle.operator",
    ("circle", "tq_apply"): "circle.operator",
    ("circle", "tq_iterate"): "circle.operator",
    ("qsl", "m_apply"): "qsl.m_apply",
}

# Suite functions observed (no span) for the worst residual of each module.
SUITE_MODULES = {
    "szego_suite": "szego",
    "biortho_suite": "biortho",
    "sears_suite": "sears",
    "qsl_suite": "qsl",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _array_key(z) -> tuple:
    arr = np.ascontiguousarray(z, dtype=complex)
    return arr.shape, hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def self_times(spans) -> dict:
    """Total self time per span name, in nanoseconds.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    totals = defaultdict(int)
    for sid, _, name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """Spans, counts and per-verdict distinct-input sets for one run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.residuals = defaultdict(list)
        self._distinct = defaultdict(set)
        self._stack = []
        self._ids = itertools.count()
        self._bindings = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_return=None):
        """Return `fn` wrapped in a span called `name`.  `on_call(args,
        kwargs)` runs before the span opens and `on_return(result)` after it
        closes, each in a HOOK_SPAN of its own, so that neither counts
        towards `name` or its caller."""
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        if on_call is not None:
            on_call = self.wrap(HOOK_SPAN, on_call)
        if on_return is not None:
            on_return = self.wrap(HOOK_SPAN, on_return)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else ROOT_PARENT
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def count(self, key, n=1):
        self.counts[key] += n

    def distinct(self, name, key):
        self._distinct[name].add(key)

    def end_verdict(self):
        """Fold this verdict's distinct-input sets into the counts."""
        for name, keys in self._distinct.items():
            self.counts[f"{name}.distinct"] += len(keys)
        self._distinct.clear()

    # -- instrumentation -------------------------------------------------

    def install(self):
        """Rebind the traced functions throughout the loaded qcircle."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        mods = {name: importlib.import_module(f"qcircle.{name}")
                for name in ("qcore", "circle", "szego", "biortho", "qsl",
                             "suites", "cli")}
        hooks = self._hooks()
        for (mod, attr), span in FUNCTION_SPANS.items():
            orig = getattr(mods[mod], attr)
            self._rebind(orig, self.wrap(span, orig, *hooks.get(span, ())))
        for (mod, attr), span in OPERATOR_SPANS.items():
            orig = getattr(mods[mod], attr)
            self._rebind(orig, self._operator_factory(span, orig))
        registry = mods["suites"].SUITES
        for attr, module in SUITE_MODULES.items():
            orig = getattr(mods["suites"], attr)
            self._rebind(orig, self._observe_reports(module, orig), registry)
        laurent = mods["circle"].LaurentPoly
        orig_call = vars(laurent)["__call__"]
        self._bindings.append((laurent, "__call__", orig_call))
        laurent.__call__ = self.wrap("circle.laurent_eval", orig_call)

    def uninstall(self):
        """Restore every binding made by install, newest first."""
        while self._bindings:
            namespace, key, orig = self._bindings.pop()
            if isinstance(namespace, dict):
                namespace[key] = orig
            else:
                setattr(namespace, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, orig, new, registry=None):
        for name, module in list(sys.modules.items()):
            if name != "qcircle" and not name.startswith("qcircle."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._bindings.append((module, attr, orig))
                    setattr(module, attr, new)
        if registry is not None:
            for key, value in list(registry.items()):
                if value is orig:
                    self._bindings.append((registry, key, orig))
                    registry[key] = new

    def _operator_factory(self, span, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            op = factory(*args, **kwargs)
            if args and op is args[0]:
                return op  # T_q^0 f is f itself; its calls are traced already
            return self.wrap(span, op)

        return make

    def _observe_reports(self, module, suite_fn):
        @functools.wraps(suite_fn)
        def observed(*args, **kwargs):
            reports = suite_fn(*args, **kwargs)
            self.residuals[module].extend(
                r.residual for r in reports if not r.informational)
            return reports

        return observed

    def _hooks(self) -> dict:
        count, distinct = self.count, self.distinct

        def qpoch_inf(args, kwargs):
            a = np.asarray(_arg(args, kwargs, 0, "a"))
            count("qcore.qpochhammer_inf.points", a.size)
            if a.ndim == 0:
                count("qcore.qpochhammer_inf.scalar_calls")

        def szego_weight(args, kwargs):
            z = _arg(args, kwargs, 0, "z")
            count("szego.weight.points", np.size(z))
            distinct("szego.weight", (repr(_arg(args, kwargs, 1, "q")),
                                      kwargs.get("tol", args[2:3]),
                                      _array_key(z)))

        def biortho_weight(args, kwargs):
            distinct("biortho.weight", (_arg(args, kwargs, 1, "p"),
                                        kwargs.get("tol", args[2:3]),
                                        _array_key(_arg(args, kwargs, 0, "z"))))

        def r_fn(args, kwargs):
            count("biortho.r_fn.points", np.size(_arg(args, kwargs, 1, "z")))

        def kappa(args, kwargs):
            distinct("biortho.kappa_closed", (_arg(args, kwargs, 0, "p"),
                                              kwargs.get("tol", args[1:2])))

        def rendered(text):
            count("suites.render.bytes", len(text.encode()))

        return {
            "qcore.qpochhammer_inf": (qpoch_inf,),
            "szego.weight": (szego_weight,),
            "biortho.weight": (biortho_weight,),
            "biortho.r_fn": (r_fn,),
            "biortho.kappa_closed": (kappa,),
            "suites.render": (None, rendered),
        }


def write_spans(spans, path):
    """Write spans as tab-separated `id parent name start_ns end_ns` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
        fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\n"
                      for s in spans)
