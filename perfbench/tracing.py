"""Per-layer attribution by wrapping relac's public functions from outside.

Nothing inside ``relac`` is changed on disk: :meth:`Tracer.install` swaps
module attributes and class methods for timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back. Functions that a module
imports by name are wrapped in the module that calls them (``policy`` and
``engine`` hold their own references to ``match_principals``,
``compile_condition`` and friends), methods on their class.

Spans live in memory as ``[name, parent, start_ns, end_ns, request]`` and
are written out once at the end. ``graph.neighbors`` runs millions of times
per run, so it gets no spans: each call adds to a ``[calls, ns]`` counter
kept per parent span. A span's self time is its duration minus the time
covered by its child spans and its ``neighbors`` counter.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# Boundaries that are spans, as (module attribute path, attribute, span
# name). The module path is where the call happens, not where the function
# is defined.
_SPANS = (
    ("graph.SystemGraph", "lookup_cache", "graph.lookup_cache"),
    ("graph.SystemGraph", "add_relationship", "graph.add_relationship"),
    ("graph.SystemGraph", "record_typed_edge", "graph.record_typed_edge"),
    ("graph.SystemGraph", "invalidate_caches", "graph.invalidate_caches"),
    ("pathcond", "parse", "pathcond.parse"),
    ("pathcond", "simplify", "pathcond.simplify"),
    ("engine", "simplify", "pathcond.simplify"),
    ("policy", "compile_condition", "automata.compile_condition"),
    ("engine", "compile_condition", "automata.compile_condition"),
    ("policy", "match_detail", "automata.match"),
    ("policy", "matches", "automata.match"),
    ("automata", "intersection_search", "automata.intersection_search"),
    ("engine", "match_principals", "policy.match_principals"),
    ("engine", "collect_decisions", "policy.decide"),
    ("engine", "resolve_conflicts", "policy.decide"),
    ("engine.Evaluator", "evaluate", "engine.evaluate"),
    ("engine.Evaluator", "warm", "engine.warm"),
    ("engine", "interest_writeback", "engine.interest_writeback"),
    ("fileformat", "parse_model", "fileformat.load"),
    ("fileformat", "parse_graph", "fileformat.load"),
    ("fileformat", "parse_policy", "fileformat.load"),
    ("fileformat", "save_graph", "fileformat.save_graph"),
    ("cli", "main", "cli"),
)


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"relac.{module}")
    return getattr(obj, cls) if cls else obj


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.neighbors: dict[int, list[int]] = {}
        self.counts: Counter = Counter()
        self.label = "-"  # the evaluator that the next request goes to
        self.paused = False
        self._stack: list[int] = []
        self._request: int | None = None
        self._next_request = 0
        self._patches = Patches()

    # -- installation

    def install(self) -> None:
        for path, attr, name in _SPANS:
            self._patches.wrap(_resolve(path), attr, self._spanned(name))
        self._patches.wrap(_resolve("engine"), "reachable_accepting", self._reach)
        self._patches.wrap(_resolve("graph.SystemGraph"), "neighbors", self._neighbors)
        self._patches.wrap(_resolve("policy.Pmp"), "applicable", self._applicable)
        self._patches.wrap(_resolve("policy.DefaultTable"), "resolve", self._default)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- wrappers

    def _open(self, name: str) -> int:
        index = len(self.spans)
        stack = self._stack
        self.spans.append([name, stack[-1] if stack else -1, perf_counter_ns(), 0, self._request])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter_ns()
        self._stack.pop()

    def _spanned(self, name: str):
        root = name == "engine.evaluate"
        after = _AFTER.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.paused:
                    return fn(*args, **kwargs)
                opens_request = root and self._request is None
                if opens_request:
                    self._request = self._next_request
                    self._next_request += 1
                    self.counts[f"requests.{self.label}"] += 1
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                    if opens_request:
                        self._request = None
                if after is not None:
                    after(self, result, args)
                return result

            return wrapper

        return make

    def _reach(self, fn):
        """``reachable_accepting`` reports its visits only through a stats
        object: give it one and pass the counts on to the caller's."""
        from relac.automata import SearchStats

        def wrapper(*args, stats=None, **kwargs):
            if self.paused:
                return fn(*args, stats=stats, **kwargs)
            own = SearchStats()
            index = self._open("automata.reachable_accepting")
            try:
                result = fn(*args, stats=own, **kwargs)
            finally:
                self._close(index)
            self.counts["reach_visits"] += own.product_visits
            if stats is not None:
                stats.product_visits += own.product_visits
                stats.searches += own.searches
            return result

        return wrapper

    def _neighbors(self, fn):
        def wrapper(graph, node, label):
            if self.paused:
                return fn(graph, node, label)
            start = perf_counter_ns()
            result = fn(graph, node, label)
            elapsed = perf_counter_ns() - start
            parent = self._stack[-1] if self._stack else -1
            agg = self.neighbors.get(parent)
            if agg is None:
                self.neighbors[parent] = [1, elapsed]
            else:
                agg[0] += 1
                agg[1] += elapsed
            return result

        return wrapper

    def _applicable(self, fn):
        def wrapper(pmp, *args, **kwargs):
            result = fn(pmp, *args, **kwargs)
            if not self.paused:
                self.counts[f"rules_tried.{self.label}"] += 1
                self.counts["rules_applicable"] += bool(result)
            return result

        return wrapper

    def _default(self, fn):
        def wrapper(table, *args, **kwargs):
            result = fn(table, *args, **kwargs)
            if not self.paused:
                self.counts[f"default_level.{result[1]}"] += 1
            return result

        return wrapper

    # -- results

    def self_times(self) -> tuple[Counter, Counter]:
        """(self ns by name, calls by name)."""
        covered = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own = Counter()
        calls = Counter()
        for parent, (n, ns) in self.neighbors.items():
            own["graph.neighbors"] += ns
            calls["graph.neighbors"] += n
            if parent >= 0:
                covered[parent] += ns
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            own[name] += end - start - covered[i]
            calls[name] += 1
        return own, calls

    def top_level_ns(self, first: int) -> int:
        """Time covered by spans from index ``first`` on that have no
        parent; every layer's self time inside them adds up to this."""
        return sum(end - start for _, parent, start, end, _ in self.spans[first:] if parent == -1)

    def request_latencies_ns(self) -> list[int]:
        """Durations of the ``engine.evaluate`` spans that opened a request."""
        spans = self.spans
        return [end - start for name, parent, start, end, _ in spans
                if name == "engine.evaluate" and (parent == -1 or spans[parent][4] is None)]

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line of neighbors counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"graph.neighbors": self.neighbors}) + "\n")


def _after_search(tracer, result, args):
    tracer.counts["searches"] += 1
    tracer.counts["product_visits"] += result.visits
    tracer.counts["nonempty"] += result.nonempty


def _after_lookup(tracer, result, args):
    if tracer._request is not None:
        tracer.counts["lookups_in_requests"] += 1
        tracer.counts["lookup_hits"] += result is not None


def _after_write(tracer, result, args):
    if tracer._request is not None:
        tracer.counts["writes_in_requests"] += bool(result)


def _after_save(tracer, result, args):
    tracer.counts["graph_bytes_written"] += os.path.getsize(args[1])


_AFTER = {
    "automata.intersection_search": _after_search,
    "graph.lookup_cache": _after_lookup,
    "fileformat.save_graph": _after_save,
    "graph.add_relationship": _after_write,
    "graph.record_typed_edge": _after_write,
}



