"""Outside-in layer tracing for the sugeno_bounds package.

The library's modules import each other's functions by name (``from .expr
import evaluate``), so a layer is traced by replacing every module-level
binding of its function, in every loaded ``sugeno_bounds`` module, with a
wrapper that records a span.  Nothing in the package changes on disk, and
``uninstall`` puts every original binding back.

A layer whose function no longer exists is reported as absent, with zero
calls, instead of failing the run.  That lets the library drop or rename
internals without a benchmark edit, as long as the layer functions listed
in ``LAYERS`` keep their names.

Spans carry a name, start, end, parent span and the operation they belong
to; they stay in memory (up to ``span_cap``) and are written out by the
runner when it ends.  Self time is a span's duration minus the time its
child spans cover, accumulated per layer and per phase.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

PACKAGE = "sugeno_bounds"

# (layer, defining module, function)
LAYERS = (
    ("expr.parse", "expr", "parse"),
    ("expr.evaluate", "expr", "evaluate"),
    ("expr.evaluate_array", "expr", "evaluate_array"),
    ("measure.distortion", "measure", "distortion"),
    ("rootfind.sup_threshold", "rootfind", "solve_sup_threshold"),
    ("rootfind.sign_change", "rootfind", "solve_sign_change"),
    ("sugeno.integral", "sugeno", "sugeno_integral"),
    ("bounds.hadamard_bound", "bounds", "hadamard_bound"),
    ("bounds.verify", "bounds", "verify_hadamard"),
    ("convexity.check", "convexity", "check_sm_convex"),
)
# Spans that do not wrap a module binding: the level-set measure G handed to
# solve_sup_threshold by the sugeno module, and the benchmark's own roots.
LEVEL_MEASURE = "sugeno.level_measure"
OP = "bench.op"
SETUP = "bench.setup"


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        """Accumulate a counter; keys ending in ``_max`` keep the largest value instead."""
        if key.endswith("_max"):
            self.counters[key] = max(self.counters.get(key, 0), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns, "total_ns": self.total_ns,
                "counters": dict(self.counters)}


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.active = False
        self.phase = "setup"
        self.stats: dict[str, dict[str, LayerStats]] = {}
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def layer(self, name: str) -> LayerStats:
        phase = self.stats.setdefault(self.phase, {})
        if name not in phase:
            phase[name] = LayerStats()
        return phase[name]

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        op_id = parent[4] if parent else self._next_id
        parent_id = parent[3] if parent else 0
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id, op_id, parent_id])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, span_id, op_id, parent_id = self._stack.pop()
        duration = end - start
        stats = self.layer(name)
        stats.calls += 1
        stats.total_ns += duration
        stats.self_ns += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, op_id, self.phase, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, fn, consumer: str):
        tracer = self
        before = getattr(self, "_before_" + layer.replace(".", "_"), None)
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        measure_alloc = layer == "convexity.check"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args, consumer)
            started_alloc = measure_alloc and not tracemalloc.is_tracing()
            if started_alloc:
                tracemalloc.start()
            tracer.enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
                if started_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.layer(layer).add("peak_alloc_bytes_max", peak)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _counting(self, fn, layer: str, span_name: str | None):
        tracer = self

        def counted(t):
            tracer.layer(layer).add("g_evals", 1)
            if span_name is None:
                return fn(t)
            tracer.enter(span_name)
            try:
                return fn(t)
            finally:
                tracer.exit()

        return counted

    # The solvers take the function first; a call that passes it by keyword
    # is traced without counting its evaluations.
    def _before_rootfind_sup_threshold(self, args, consumer):
        if not args:
            return args
        span = LEVEL_MEASURE if consumer == f"{PACKAGE}.sugeno" else None
        return (self._counting(args[0], "rootfind.sup_threshold", span), *args[1:])

    def _before_rootfind_sign_change(self, args, consumer):
        if not args:
            return args
        return (self._counting(args[0], "rootfind.sign_change", None), *args[1:])

    def _after_expr_evaluate_array(self, args, kwargs, out):
        self.layer("expr.evaluate_array").add("points", int(getattr(out, "size", 0)))

    def _after_sugeno_integral(self, args, kwargs, out):
        self.layer("sugeno.integral").add("exact", int(getattr(out, "grid_points", 0) is None))

    def _after_convexity_check(self, args, kwargs, out):
        stats = self.layer("convexity.check")
        grid = getattr(out, "grid", 0)
        stats.add("lattice_points", grid**3)
        stats.add("skipped", getattr(out, "skipped", 0))

    def install(self) -> None:
        """Wrap every binding of every layer function that exists; record the rest as absent."""
        modules = [(name, mod) for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, module_name, attr in LAYERS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            for consumer, module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, self._wrap(layer, original, consumer))
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        self.active = False

    def export(self, phase: str) -> dict:
        return {name: stats.as_dict() for name, stats in self.stats.get(phase, {}).items()}
