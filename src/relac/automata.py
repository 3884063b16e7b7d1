"""Path conditions as finite automata, and the product-emptiness search.

A simple path condition compiles to an epsilon-free NFA with a single
accepting state and a unique transition out of the start state; for a
condition of length ``l`` with ``k`` plus operators the automaton has
exactly ``l + 1`` states and ``l + k`` transitions. A (graph, subject,
object) triple is viewed as an NFA whose states are graph nodes, without
materializing anything. Deciding whether a condition is matched between two
nodes is then a breadth-first search over reachable product states: the
condition holds iff the two automata accept a common word.

A condition state with no outgoing arcs is dead: no product state through
it can lead anywhere. The search never enqueues one. A step into a dead
accepting state is only an acceptance test on the step's targets, so the
last step of a condition costs one membership test, not a walk over every
node it reaches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import EmptyPathConditionError, NotSimpleError, UnknownNodeError
from .graph import SystemGraph
from .pathcond import (
    AllTarget,
    Concat,
    Edge,
    Empty,
    NoneTarget,
    PathCondition,
    PathTarget,
    Plus,
    Target,
    is_simple,
    to_text,
)

__all__ = [
    "Nfa",
    "GraphNfa",
    "compile_condition",
    "intersection_nonempty",
    "intersection_search",
    "IntersectionResult",
    "SearchStats",
    "matches",
    "match_detail",
    "reachable_accepting",
]


# --- automata -----------------------------------------------------------------

@dataclass(frozen=True)
class Nfa:
    """Epsilon-free NFA with integer states ``0..n-1`` and transition
    triples ``(from, to, label)``."""

    states: frozenset[int]
    transitions: tuple[tuple[int, int, str], ...]
    start: int
    accepting: frozenset[int]

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset(label for _, _, label in self.transitions)

    @cached_property
    def arcs(self) -> dict[int, tuple[tuple[str, int, bool, bool], ...]]:
        """Per state, its outgoing arcs as ``(label, target, dead,
        accepting)``, where ``dead`` means the target has no outgoing arc."""
        live = {q for q, _, _ in self.transitions}
        table: dict[int, list[tuple[str, int, bool, bool]]] = {q: [] for q in self.states}
        for q, q2, label in self.transitions:
            table[q].append((label, q2, q2 not in live, q2 in self.accepting))
        return {q: tuple(arcs) for q, arcs in table.items()}

    @cached_property
    def _step(self) -> dict[tuple[int, str], tuple[int, ...]]:
        table: dict[tuple[int, str], list[int]] = {}
        for q, q2, label in self.transitions:
            table.setdefault((q, label), []).append(q2)
        return {key: tuple(targets) for key, targets in table.items()}

    def step(self, state: int, label: str) -> tuple[int, ...]:
        return self._step.get((state, label), ())

    def accepts(self, word: Iterable[str]) -> bool:
        frontier = {self.start}
        for label in word:
            frontier = {q2 for q in frontier for q2 in self.step(q, label)}
            if not frontier:
                return False
        return bool(frontier & self.accepting)


class GraphNfa:
    """Lazy automaton view of (graph, subject, object): states are nodes,
    transitions the traversable labelled edges, ``subject`` starts and
    ``object`` accepts. ``step(state, label)`` is the graph's
    :meth:`SystemGraph.neighbors`."""

    def __init__(self, graph: SystemGraph, start: str, accept: str):
        graph.node_type(start)
        graph.node_type(accept)
        self.graph = graph
        self.start = start
        self.accept = accept
        self.accepting = frozenset({accept})
        self.step = graph.neighbors

    def accepts(self, word: Iterable[str]) -> bool:
        frontier = {self.start}
        for label in word:
            frontier = {w for v in frontier for w in self.graph.neighbors(v, label)}
            if not frontier:
                return False
        return self.accept in frontier


# --- compilation ----------------------------------------------------------------

def compile_condition(p: PathCondition) -> Nfa:
    """Build the automaton of a simple path condition.

    A single edge condition gives the two-state automaton; concatenation
    merges the second automaton's start into the first's final state;
    repetition re-enters after the unique initial transition ``(s, q, r)``
    by adding ``(f, q, r)``, which degenerates to a self-loop on the final
    state for a single edge condition. ``<>`` has no automaton; callers
    decide it as a subject/object identity test.
    """
    if isinstance(p, Empty):
        raise EmptyPathConditionError("the empty condition compiles to no automaton")
    if not is_simple(p):
        raise NotSimpleError(f"compile requires simple form: {to_text(p)}")
    count, transitions, final = _build(p)
    return Nfa(
        states=frozenset(range(count)),
        transitions=tuple(sorted(transitions)),
        start=0,
        accepting=frozenset({final}),
    )


def _build(p: PathCondition) -> tuple[int, list[tuple[int, int, str]], int]:
    if isinstance(p, Edge):
        label = ("~" + p.label) if p.reversed else p.label
        return 2, [(0, 1, label)], 1
    if isinstance(p, Concat):
        n_left, t_left, f_left = _build(p.left)
        n_right, t_right, f_right = _build(p.right)
        # Renumber the right automaton, fusing its start with the left final.
        def ren(q: int) -> int:
            return f_left if q == 0 else n_left + q - 1
        merged = t_left + [(ren(q), ren(q2), label) for q, q2, label in t_right]
        return n_left + n_right - 1, merged, ren(f_right)
    if isinstance(p, Plus):
        count, transitions, final = _build(p.inner)
        starters = [(q2, label) for q, q2, label in transitions if q == 0]
        if len(starters) != 1:
            raise NotSimpleError("inner condition lacks a unique initial transition")
        q2, label = starters[0]
        back = (final, q2, label)
        if back in transitions:
            raise NotSimpleError("directly nested repetition must be collapsed first")
        return count, transitions + [back], final
    raise NotSimpleError(f"cannot compile {p!r}")


# --- product search --------------------------------------------------------------

@dataclass
class SearchStats:
    """Mutable counters threaded through searches by interested callers."""

    product_visits: int = 0
    searches: int = 0


@dataclass(frozen=True)
class IntersectionResult:
    nonempty: bool
    visits: int
    witness: tuple[str, ...] | None = None


def intersection_search(
    m1,
    m2,
    *,
    want_witness: bool = False,
    stats: SearchStats | None = None,
) -> IntersectionResult:
    """Decide ``L(m1) & L(m2) != {}`` by BFS over reachable product states.

    ``m1`` drives the expansion (an :class:`Nfa`, normally the compiled
    path condition); ``m2`` only needs per-label stepping and an
    ``accepting`` set, so a :class:`GraphNfa` never materializes. Unreachable
    product states are never touched, and product states over a dead ``m1``
    state are never enqueued: visits stay within (live ``m1`` states) *
    |Q2| + 1.
    """
    start = (m1.start, m2.start)
    parents: dict[tuple, tuple] | None = {} if want_witness else None
    visits = 0

    def finish(nonempty: bool, last: tuple | None = None) -> IntersectionResult:
        """``last`` is the (product state, label) of the accepting step."""
        if stats is not None:
            stats.product_visits += visits
            stats.searches += 1
        witness = None
        if nonempty and parents is not None:
            labels = []
            while last is not None:
                state, label = last
                labels.append(label)
                last = parents.get(state)
            witness = tuple(reversed(labels))
        return IntersectionResult(nonempty, visits, witness)

    accepting = m2.accepting
    if m1.start in m1.accepting and m2.start in accepting:
        visits = 1
        return finish(True)

    arcs, step = m1.arcs, m2.step
    seen = {start}
    frontier = deque([start])
    while frontier:
        here = frontier.popleft()
        q1, q2 = here
        visits += 1
        for label, n1, dead, final in arcs[q1]:
            targets = step(q2, label)
            if final and not accepting.isdisjoint(targets):
                visits += 1
                return finish(True, (here, label))
            if dead:
                continue
            for n2 in targets:
                nxt = (n1, n2)
                if nxt in seen:
                    continue
                seen.add(nxt)
                if parents is not None:
                    parents[nxt] = (here, label)
                frontier.append(nxt)
    return finish(False)


def intersection_nonempty(m1, m2, *, stats: SearchStats | None = None) -> bool:
    """True iff the two automata accept at least one common word."""
    return intersection_search(m1, m2, stats=stats).nonempty


# --- target matching --------------------------------------------------------------

def match_detail(
    g: SystemGraph,
    subject: str,
    obj: str,
    target: Target | PathCondition,
    *,
    compiled: Nfa | None = None,
    stats: SearchStats | None = None,
    want_witness: bool = False,
) -> tuple[bool, tuple[str, ...] | None]:
    """Like :func:`matches` but also returns a witness word on a match when
    asked (``None`` for the special targets, ``()`` for the empty one)."""
    g.node_type(subject)
    g.node_type(obj)
    if isinstance(target, PathTarget):
        condition: Target | PathCondition = target.condition
    else:
        condition = target
    if isinstance(condition, AllTarget):
        return True, None
    if isinstance(condition, NoneTarget):
        return False, None
    if isinstance(condition, Empty):
        matched = subject == obj
        return matched, () if matched and want_witness else None
    nfa = compiled if compiled is not None else compile_condition(condition)
    result = intersection_search(
        nfa, GraphNfa(g, subject, obj), want_witness=want_witness, stats=stats
    )
    return result.nonempty, result.witness


def matches(
    g: SystemGraph,
    subject: str,
    obj: str,
    target: Target | PathCondition,
    *,
    compiled: Nfa | None = None,
    stats: SearchStats | None = None,
) -> bool:
    """Whether the request pair (subject, object) matches a target.

    ``all`` matches every pair, ``none`` no pair, the empty condition tests
    subject == object, and any other path condition runs the product
    search. ``compiled`` lets callers reuse a precompiled automaton.
    """
    return match_detail(g, subject, obj, target, compiled=compiled, stats=stats)[0]


def reachable_accepting(
    nfa: Nfa,
    g: SystemGraph,
    start: str,
    *,
    stats: SearchStats | None = None,
) -> set[str]:
    """All nodes ``w`` such that some path from ``start`` to ``w`` matches the
    compiled condition (one sweep instead of one search per candidate)."""
    if start not in g:
        raise UnknownNodeError(f"unknown entity {start!r}")
    arcs, step = nfa.arcs, g.neighbors
    seen = {(nfa.start, start)}
    frontier = deque(seen)
    found: set[str] = set()
    visits = 0
    while frontier:
        q, v = frontier.popleft()
        visits += 1
        for label, q2, dead, final in arcs[q]:
            targets = step(v, label)
            if final:
                found |= targets
            if dead:
                continue
            for w in targets:
                state = (q2, w)
                if state in seen:
                    continue
                seen.add(state)
                frontier.append(state)
    if stats is not None:
        stats.product_visits += visits
        stats.searches += 1
    return found
