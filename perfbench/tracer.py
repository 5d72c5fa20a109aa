"""Per-layer tracing of one wmfock process, installed from outside the package.

Each target function is replaced by a wrapper under every name that refers
to it in a loaded ``wmfock`` module.  ``suites``, ``spectrum`` and ``cli``
bind many layer functions with ``from ... import``, so patching only the
defining module would silently miss their calls; :meth:`Tracer.install`
therefore fails if any module still holds an original after patching.

Three kinds of wrapper keep the cost proportional to what is needed:

* ``SPAN``  -- coarse calls (suites, emitters, gauge checks): one span per
  call with its parent span id, plus aggregate count and time;
* ``TIMED`` -- frequent calls (rewrite, matmul, ...): aggregate count, total
  and self time, no per-call record;
* ``COUNT`` -- calls made 10^5 to 10^6 times per run (``precedes``,
  ``functional_apply``, ``column_map``, ...): a count per calling span only.

Self time of a span or timed call is its duration minus the time covered by
the timed calls nested in it; counted-only calls stay in their caller's
self time.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

SPAN, TIMED, COUNT = "span", "timed", "count"
ROOT = "run"

# (trace name, defining module, attribute or Class.method, kind)
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("fock.enumerate_basis", "fock", "enumerate_basis", SPAN),
    ("fock.column_map", "fock", "column_map", COUNT),
    ("fock.check_guarded_identity", "fock", "check_guarded_identity", SPAN),
    ("words.rewrite", "words", "rewrite", TIMED),
    ("words.evaluate_word", "words", "evaluate_word", TIMED),
    ("words.evaluate", "words", "evaluate", TIMED),
    ("words.precedes", "words", "precedes", COUNT),
    ("words.projection_product", "words", "projection_product", TIMED),
    ("sparse.matmul", "sparse", "SparseOp.__matmul__", TIMED),
    ("sparse.restrict_columns", "sparse", "SparseOp.restrict_columns", TIMED),
    ("masa.expectation", "masa", "expectation", COUNT),
    ("masa.rank_one_projection", "masa", "rank_one_projection", COUNT),
    ("spectrum.enumerate_spectrum", "spectrum", "enumerate_spectrum", SPAN),
    ("spectrum.emit_csv", "spectrum", "emit_csv", SPAN),
    ("spectrum.emit_svg", "spectrum", "emit_svg", SPAN),
    ("spectrum.verify_multiplicativity", "spectrum", "verify_multiplicativity", SPAN),
    ("spectrum.boundary_convergence_report", "spectrum",
     "boundary_convergence_report", SPAN),
    ("spectrum.functional_apply", "spectrum", "functional_apply", COUNT),
    ("gauge.gauge_unitary", "gauge", "gauge_unitary", SPAN),
    ("gauge.check_covariance", "gauge", "check_covariance", SPAN),
    ("gauge.check_group_law", "gauge", "check_group_law", SPAN),
    ("gauge.phase_matmul", "gauge", "PhaseMatrix.__matmul__", TIMED),
    ("suites.relations", "suites", "relations_suite", SPAN),
    ("suites.ck", "suites", "ck_suite", SPAN),
    ("suites.projections", "suites", "projections_suite", SPAN),
    ("suites.masa", "suites", "masa_suite", SPAN),
    ("suites.spectrum", "suites", "spectrum_suite", SPAN),
    ("suites.gauge", "suites", "gauge_suite", SPAN),
    ("suites.soundness_check", "suites", "soundness_check", SPAN),
    ("cli.report_write", "cli", "_write_output", SPAN),
)

# lru caches whose hit ratio is reported: trace name -> (module, attribute)
CACHES = {
    "fock.column_map": ("fock", "column_map"),
    "words.left_extend": ("words", "_left_extend"),
    "words.monomial_map": ("words", "_monomial_map"),
}


class Tracer:
    """Counters, timers and spans for one process; exported as plain JSON."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.calls: Dict[Tuple[str, str], int] = {}  # (name, parent name) -> n
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.spans: List[Tuple[int, int, str, float, float]] = []
        # frame: [name, span id, time covered by timed children]
        self.stack: List[list] = [["<setup>", 0, 0.0]]
        self.basis_states: Dict[object, int] = {}
        self.unitaries: set = set()
        self.bytes: Dict[str, int] = {"spectrum.emit": 0, "cli.report": 0}
        self.originals: Dict[str, object] = {}
        self.caches: Dict[str, Callable] = {}
        self._next_id = 1
        self._root_start = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wmfock" or name.startswith("wmfock."))]
        self.caches = {name: getattr(sys.modules["wmfock." + mod], attr)
                       for name, (mod, attr) in CACHES.items()}
        for name, module_name, attr, kind in TARGETS:
            home = sys.modules["wmfock." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, kind))
            else:
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, kind)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            self.originals[name] = original
        for module in modules:
            for key, value in vars(module).items():
                for name, original in self.originals.items():
                    if value is original:
                        raise RuntimeError("wrapper for %s missed %s.%s"
                                           % (name, module.__name__, key))

    def _wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        calls, stack = self.calls, self.stack
        observe = self._observer(name)
        if kind == COUNT:
            def counted(*args, **kwargs):
                key = (name, stack[-1][0])
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        clock, total_s, self_s, spans = self.clock, self.total_s, self.self_s, self.spans
        is_span = kind == SPAN

        def timed(*args, **kwargs):
            parent = stack[-1]
            key = (name, parent[0])
            calls[key] = calls.get(key, 0) + 1
            span_id = 0
            if is_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, span_id if is_span else parent[1], 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                total_s[name] = total_s.get(name, 0.0) + duration
                self_s[name] = self_s.get(name, 0.0) + duration - frame[2]
                if is_span:
                    spans.append((span_id, parent[1], name, start, end))
            if observe is not None:
                observe(args, result)
            return result
        return timed

    def _observer(self, name: str) -> Optional[Callable]:
        if name == "fock.enumerate_basis":
            def basis(args, result):
                self.basis_states[args[0]] = len(result)
            return basis
        if name == "gauge.gauge_unitary":
            def unitary(args, result):
                rep, w, variant = args
                self.unitaries.add((rep, w % rep.roots, variant))
            return unitary
        if name in ("spectrum.emit_csv", "spectrum.emit_svg"):
            def emitted(args, result):
                self.bytes["spectrum.emit"] += len(result.encode("utf-8"))
            return emitted
        if name == "cli.report_write":
            def written(args, result):
                self.bytes["cli.report"] += len(args[0].encode("utf-8"))
            return written
        return None

    # -- the root span around the measured work ------------------------------

    def open_root(self) -> None:
        self.stack.append([ROOT, 0, 0.0])
        self._root_start = self.clock()

    def close_root(self) -> None:
        end = self.clock()
        frame = self.stack.pop()
        duration = end - self._root_start
        self.total_s[ROOT] = duration
        self.self_s[ROOT] = duration - frame[2]
        self.spans.append((0, -1, ROOT, self._root_start, end))

    def export(self) -> dict:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "calls": [[name, parent, n] for (name, parent), n in sorted(self.calls.items())],
            "total_s": self.total_s,
            "self_s": self.self_s,
            "spans": [list(span) for span in sorted(self.spans)],
            "basis_states": sum(self.basis_states.values()),
            "distinct_unitaries": len(self.unitaries),
            "bytes": self.bytes,
            "caches": caches,
        }
