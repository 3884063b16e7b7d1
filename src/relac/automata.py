"""Path conditions as finite automata, and the product-emptiness search.

A simple path condition compiles to an epsilon-free NFA with a single
accepting state and a unique transition out of the start state; for a
condition of length ``l`` with ``k`` plus operators the automaton has
exactly ``l + 1`` states and ``l + k`` transitions. A (graph, subject,
object) triple is read as an NFA whose states are graph nodes, without
materializing anything: the graph's label-keyed adjacency is its transition
table, the subject its start and the object its accepting state. Deciding
whether a condition is matched between two nodes is then a breadth-first
search over reachable product states: the condition holds iff the two
automata accept a common word.

A condition state with no outgoing arcs is dead: no product state through
it can lead anywhere. The search never enqueues one. A step into a dead
accepting state is only an acceptance test on the step's targets, so the
last step of a condition costs one membership test, not a walk over every
node it reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Mapping, NamedTuple

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
    "compile_condition",
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
    def arcs(self) -> dict[int, tuple[tuple[str, int, bool, bool], ...]]:
        """Per state, its outgoing arcs as ``(label, target, dead,
        accepting)``, where ``dead`` means the target has no outgoing arc."""
        live = {q for q, _, _ in self.transitions}
        table: dict[int, list[tuple[str, int, bool, bool]]] = {q: [] for q in self.states}
        for q, q2, label in self.transitions:
            table[q].append((label, q2, q2 not in live, q2 in self.accepting))
        return {q: tuple(arcs) for q, arcs in table.items()}


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


class IntersectionResult(NamedTuple):
    nonempty: bool
    visits: int
    witness: tuple[str, ...] | None = None


_NO_NEIGHBORS: frozenset[str] = frozenset()

_Adjacency = Mapping[str, Mapping[str, AbstractSet[str]]]


def _product_bfs(
    nfa: Nfa,
    adjacency: _Adjacency,
    start: str,
    target: str | None,
    parents: dict | None = None,
) -> tuple[int, object]:
    """BFS over the product of ``nfa`` and the graph from ``(nfa.start, start)``.

    With a ``target`` node the search stops at the first step that reaches
    it in an accepting condition state and returns ``(visits, (product
    state, label))`` for that step, or ``(visits, None)`` when there is
    none. Without one it runs to the end and returns ``(visits, accepted
    nodes)``. ``parents``, when given, receives each enqueued product
    state's ``(parent state, label)``. Product states over a dead condition
    state are never enqueued, so visits stay within (live condition states)
    * |V| + 1. ``start`` must be a node of the graph.
    """
    found: set[str] | None = set() if target is None else None
    arcs = nfa.arcs
    here = (nfa.start, start)
    seen = {here}
    # FIFO order: a list iterator also yields the items appended behind it.
    frontier = [here]
    visits = 0
    for here in frontier:
        q, v = here
        visits += 1
        by_label = adjacency[v]
        for label, q2, dead, final in arcs[q]:
            targets = by_label.get(label, _NO_NEIGHBORS)
            if final:
                if found is not None:
                    found |= targets
                elif target in targets:
                    return visits + 1, (here, label)
            if dead:
                continue
            for w in targets:
                nxt = (q2, w)
                if nxt in seen:
                    continue
                seen.add(nxt)
                if parents is not None:
                    parents[nxt] = (here, label)
                frontier.append(nxt)
    return visits, found


def _require(adjacency: _Adjacency, *nodes: str) -> None:
    for node in nodes:
        if node not in adjacency:
            raise UnknownNodeError(f"unknown entity {node!r}")


def intersection_search(
    nfa: Nfa,
    graph: SystemGraph,
    subject: str,
    obj: str,
    *,
    want_witness: bool = False,
    stats: SearchStats | None = None,
) -> IntersectionResult:
    """Decide whether some path from ``subject`` to ``obj`` spells a word of
    ``nfa``: a product search that stops at the first accepting step. The
    witness is that path's label word, built only when asked for."""
    adjacency = graph.adjacency
    if subject not in adjacency or obj not in adjacency:
        _require(adjacency, subject, obj)
    parents: dict | None = {} if want_witness else None
    if nfa.start in nfa.accepting and subject == obj:
        visits, last = 1, ()
    else:
        visits, last = _product_bfs(nfa, adjacency, subject, obj, parents)
    if stats is not None:
        stats.product_visits += visits
        stats.searches += 1
    if last is None:
        return IntersectionResult(False, visits)
    if not want_witness:
        return IntersectionResult(True, visits)
    labels = []
    while last:
        state, label = last
        labels.append(label)
        last = parents.get(state, ())
    return IntersectionResult(True, visits, tuple(reversed(labels)))


def reachable_accepting(
    nfa: Nfa,
    g: SystemGraph,
    start: str,
    *,
    stats: SearchStats | None = None,
) -> set[str]:
    """All nodes ``w`` such that some path from ``start`` to ``w`` matches the
    compiled condition (one sweep instead of one search per candidate)."""
    adjacency = g.adjacency
    _require(adjacency, start)
    visits, found = _product_bfs(nfa, adjacency, start, None)
    if stats is not None:
        stats.product_visits += visits
        stats.searches += 1
    return found


# --- target matching --------------------------------------------------------------

_SPECIAL = (AllTarget, NoneTarget, Empty)


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
    condition = target.condition if isinstance(target, PathTarget) else target
    if isinstance(condition, _SPECIAL):
        _require(g.adjacency, subject, obj)
        if isinstance(condition, AllTarget):
            return True, None
        if isinstance(condition, NoneTarget):
            return False, None
        matched = subject == obj
        return matched, () if matched and want_witness else None
    nfa = compiled if compiled is not None else compile_condition(condition)
    # The search checks both endpoints.
    result = intersection_search(
        nfa, g, subject, obj, want_witness=want_witness, stats=stats
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
