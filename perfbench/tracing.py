"""Tracing from outside the package: wrap public functions, record spans and self time.

A `Tracer` replaces every binding of each traced function in the loaded
canonform modules (a `from .x import f` copies the name, so patching only
the defining module would miss calls made through the copy) and restores
them on `uninstall`.  Per call it measures wall time and subtracts the time
of traced calls nested inside, which gives self time.

Hot recursive functions are only aggregated (calls, self and total time);
the others also store one span (op id, span id, parent span id, name,
start, end) per call.  Counters are kept per operation and merged into the
totals only when the caller says the operation counts (see `commit`).

Which end-to-end metric each per-layer metric should move, and where
(the per-layer entries of BENCHMARK.json have no room for it):

  cli.main.self_s (argparse, file read, print)   norm_p50_ms, both norm_*
  syntax.parse_definition, theory.classify,
    builder.compile_family, emit.emit_code .self_s   setup_s, all workloads
  syntax.parse_ground_term.self_s                 norm_p50_ms, norm_leaves_per_s, both norm_*
  builder.normalize.self_s; builder.construct, insert, insert_inv, delete,
    inverse_cf .calls/.self_s                     norm_leaves_per_s on norm_plain;
                                                  validate_terms_per_s on validate_fixtures
  builder.construct_calls_per_leaf                norm_leaves_per_s, norm_plain
  builder.delete.found_ratio                      norm_leaves_per_s, group sums of norm_plain
  terms.compare .calls/.self_s, compare_calls_per_leaf   norm_leaves_per_s, norm_plain
  terms.format_term.self_s                        norm_p50_ms, norm_plain
  terms.enumerate_ground.self_s                   validate_terms_per_s
  hashcons.canonical, from_term .calls/.self_s,
    hashcons.nodes, hashcons.edges                norm_leaves_per_s, norm_p50_ms, norm_shared
  hashcons.hit_ratio                              peak_rss_mb, norm_shared
  acnf.is_ac_normal, acnf.sort_combs, oracle.find_redex,
    oracle.semantic_key, oracle.closure_classes .self_s,
    oracle.validate_family.<fixture>_s            validate_terms_per_s (closure_classes:
                                                  the neu_rules share only)
  emit.generated.normalize.self_s, emit.code_bytes   emitted_leaves_per_s, norm_plain
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute; class attribute when written Class.method)
SPANNED = (
    ("cli.main", "canonform.cli", "main"),
    ("syntax.parse_definition", "canonform.syntax", "parse_definition"),
    ("syntax.parse_ground_term", "canonform.syntax", "parse_ground_term"),
    ("theory.classify", "canonform.theory", "classify"),
    ("builder.compile_family", "canonform.builder", "compile_family"),
    ("builder.normalize", "canonform.builder", "normalize"),
    ("emit.emit_code", "canonform.emit", "emit_code"),
    ("terms.enumerate_ground", "canonform.terms", "enumerate_ground"),
    ("oracle.validate_family", "canonform.oracle", "validate_family"),
    ("oracle.find_redex", "canonform.oracle", "find_redex"),
    ("oracle.closure_classes", "canonform.oracle", "closure_classes"),
)
HOT = (
    ("builder.construct", "canonform.builder", "construct"),
    ("builder.insert", "canonform.builder", "insert"),
    ("builder.insert_inv", "canonform.builder", "insert_inv"),
    ("builder.delete", "canonform.builder", "delete"),
    ("builder.inverse_cf", "canonform.builder", "inverse_cf"),
    ("terms.compare", "canonform.terms", "compare"),
    ("terms.format_term", "canonform.terms", "format_term"),
    ("hashcons.canonical", "canonform.hashcons", "HashConsTable.canonical"),
    ("hashcons.from_term", "canonform.hashcons", "HashConsTable.from_term"),
    ("acnf.is_ac_normal", "canonform.acnf", "is_ac_normal"),
    ("acnf.sort_combs", "canonform.acnf", "sort_combs"),
    ("oracle.semantic_key", "canonform.oracle", "semantic_key"),
)


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.found = [0, 0]  # delete: (found, attempts), committed
        self.spans: list[tuple] = []
        self._next_span = 0
        self._reset_op(None)
        self._patched: list[tuple[object, str, object]] = []

    def _reset_op(self, op_id) -> None:
        self.op_id = op_id
        self.op: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.op_found = [0, 0]
        self.op_spans: list[tuple] = []
        self._stack: list[list[float]] = []  # child time of each active traced call
        self._span_stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- operations ---------------------------------------------------------

    def begin(self, op_id) -> None:
        """Start counting for one operation; uncommitted counts are dropped."""
        self._reset_op(op_id)

    def commit(self) -> None:
        """Add the current operation's counts and spans to the totals."""
        for name, (calls, self_s, total_s) in self.op.items():
            t = self.totals[name]
            t[0] += calls
            t[1] += self_s
            t[2] += total_s
        self.found[0] += self.op_found[0]
        self.found[1] += self.op_found[1]
        self.spans.extend(self.op_spans)
        self._reset_op(None)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, spanned: bool):
        tracer = self
        is_delete = name == "builder.delete"

        def traced(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            if spanned:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent = tracer._span_stack[-1] if tracer._span_stack else None
                tracer._span_stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                stack.pop()
                depth[name] -= 1
                agg = tracer.op[name]
                agg[0] += 1
                agg[1] += elapsed - frame[0]
                if not depth[name]:
                    agg[2] += elapsed  # outermost activation only
                if stack:
                    stack[-1][0] += elapsed
                if spanned:
                    tracer._span_stack.pop()
                    tracer.op_spans.append((tracer.op_id, span_id, parent, name, t0, t1))
            if is_delete:
                tracer.op_found[1] += 1
                tracer.op_found[0] += result is not None
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra: tuple = ()) -> None:
        """Patch every binding of the traced functions; `extra` holds
        (name, namespace dict, key) triples for generated modules."""
        for table, spanned in ((SPANNED, True), (HOT, False)):
            for name, module, attr in table:
                mod = importlib.import_module(module)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], spanned))
                    continue
                fn = getattr(mod, attr)
                wrapper = self.wrap(name, fn, spanned)
                for m in [m for k, m in sys.modules.items() if k.split(".")[0] == "canonform"]:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)
        for name, namespace, key in extra:
            fn = namespace[key]
            self._patched.append((namespace, key, fn))
            namespace[key] = self.wrap(name, fn, False)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()
