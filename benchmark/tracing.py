"""Layer spans recorded from outside the program.

While installed, a ``Tracer`` replaces the module attributes in
``WRAPPED`` with wrappers that record one span per call: request id,
name, parent span, start and end.  A span's self time is its duration
minus its children's, so the self times of one request add up to its
root span.  A wrapped name that a later version of the program no longer
has is reported as absent, and its time stays in its caller's self time.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

ROOT_SPAN = "cli"
ROOT_LAYER = "cli.self_ms"
# Time the tracer spends reading counts, kept out of the caller's self time.
COUNT_SPAN = "trace.count"
# (module, attribute, layer metric its self time is charged to)
WRAPPED = (
    ("desopacity.cli", "parse_des", "desfile.parse_ms"),
    ("desopacity.cli", "verify_weak", "weak.verify_self_ms"),
    ("desopacity.cli", "reduce_to_weak", "strong.reduce_self_ms"),
    ("desopacity.weak", "project", "automata.project_ms"),
    ("desopacity.weak", "observer", "automata.observer_ms"),
    ("desopacity.weak", "compute_seeds", "weak.seeds_ms"),
    ("desopacity.weak", "bounded_bfs", "weak.bfs_ms"),
    ("desopacity.strong", "normalize", "strong.normalize_ms"),
    ("desopacity.strong", "strong_to_weak", "strong.transform_ms"),
)
LAYER_OF = {ROOT_SPAN: ROOT_LAYER, COUNT_SPAN: "trace.count_ms", **{f"{m}.{a}": layer for m, a, layer in WRAPPED}}


class Tracer:
    def __init__(self):
        self.spans = []  # (request, name, parent index or None, start, end)
        self.counts = {}  # request -> {count name: value}
        self.absent = set()
        self._stack = []
        self._request = None
        self._sink = None

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        for module_name, attr, _layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
            saved.append((module, attr, original))
        self._sink = getattr(importlib.import_module("desopacity.weak"), "SINK", None)
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def call(self, request, fn, *args, **kwargs):
        """Run one request under a root span tagged with ``request``."""
        self._request = request
        return self._wrap(ROOT_SPAN, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self._request, name, parent, start, end)
            self._count(name, args, result)
            self.spans.append((self._request, COUNT_SPAN, parent, end, time.perf_counter()))
            return result

        return traced

    def _count(self, name, args, result):
        """Counts read at the span boundary from arguments and results."""
        counts = self.counts.setdefault(self._request, {})
        try:
            if name == "desopacity.weak.compute_seeds":
                counts["weak.seeds"] = len(result)
            elif name == "desopacity.cli.reduce_to_weak":
                counts["strong.states_added"] = result[1].des_prime.state_count - args[0].state_count
            elif name == "desopacity.weak.bounded_bfs" and self._sink is not None:
                marked = result[0]  # vertex -> parent link, in discovery order
                first = next((i for i, v in enumerate(marked) if v[1] is self._sink), None)
                if first is not None:
                    counts["weak.bfs_after_violation_frac"] = (len(marked) - first - 1) / len(marked)
        except (AttributeError, IndexError, TypeError):
            pass  # the program's types changed; leave the count out

    def self_seconds(self, first: int = 0) -> dict:
        """Total self time per layer metric, over the spans from ``first`` on.

        A request's spans are contiguous, so a ``first`` taken between
        requests keeps every parent in range.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _request, _name, parent, start, end in spans:
            if parent is not None:
                child[parent - first] += end - start
        totals = dict.fromkeys(LAYER_OF.values(), 0.0)
        for (_request, name, _parent, start, end), nested in zip(spans, child):
            totals[LAYER_OF[name]] += end - start - nested
        return totals
