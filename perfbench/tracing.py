"""Spans around calls into the package's modules, kept in memory.

The benchmark records spans from outside the program: `Tracer.instrument`
replaces each public function of a module (the names in its `__all__`)
with a wrapper that records a span, and `Tracer.restore` puts the
originals back. Because a module's attributes are its globals, calls
between functions of one module are recorded too. A span is
[id, name, start_ns, end_ns, parent_id, trace_id]; spans of one replayed
CLI call share a trace_id.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self, keep=(), samples=None):
        self.spans = []
        self.trace_id = 0
        self.calls = {}                   # caller's label -> trace_id
        self.kept = {}                    # (trace_id, name) -> last return value
        self.samples = defaultdict(int)   # name -> sum of samples(result)
        self._keep = set(keep)
        self._samples = samples or {}     # name -> callable(result) -> int
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0, 0, stack[-1] if stack else None, self.trace_id]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if name in self._keep:
                self.kept[(self.trace_id, name)] = result
            if name in self._samples:
                self.samples[name] += self._samples[name](result)
            return result
        return traced

    def instrument(self, module, names=None) -> None:
        """Record a span around every call of the module's public functions."""
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr in names or module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def total_s(self, *names, trace=None) -> float:
        """Summed duration of the spans with these names (in one trace), in seconds."""
        return sum(s[3] - s[2] for s in self.spans
                   if s[1] in names and trace in (None, s[5])) * 1e-9

    def self_s(self) -> dict:
        """Per layer: span time not covered by child spans, in seconds."""
        child = defaultdict(int)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out = defaultdict(float)
        for s in self.spans:
            out[s[1].split(".", 1)[0]] += (s[3] - s[2] - child[s[0]]) * 1e-9
        return dict(out)


def span_cost_ns(calls: int = 20000, repeats: int = 7) -> float:
    """Cost of recording one span: a traced no-op call minus a bare one, in ns.

    The two are timed in alternating batches of `calls`; the result is the
    median over `repeats` batches of each.
    """
    def noop():
        return None

    traced = Tracer()._wrap("probe.noop", noop)
    per_call = {noop: [], traced: []}
    for _ in range(repeats):
        for fn in (noop, traced):
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            per_call[fn].append((time.perf_counter_ns() - start) / calls)
    return statistics.median(per_call[traced]) - statistics.median(per_call[noop])
