"""Brute-force ground truth for path-condition satisfaction.

Computes the satisfaction relation of a path condition over a graph as a
boolean |V| x |V| table by structural recursion: identity for ``<>``,
adjacency for edge conditions, relational join for concatenation, transpose
for reversal and a transitive-closure fixpoint for ``+``. Deliberately
independent of the automata module so it can act as the oracle in
equivalence tests; accepts non-simple conditions, which also makes it a
check on the normalizer.
"""

from __future__ import annotations

import numpy as np

from relac.graph import SystemGraph
from relac.pathcond import Concat, Edge, Empty, PathCondition, Plus, Reverse

__all__ = ["oracle_satisfies", "satisfaction_table"]


def _closure(step: np.ndarray) -> np.ndarray:
    """Union of all positive powers of ``step`` (one-or-more applications)."""
    reach = step.copy()
    while True:
        grown = reach | (reach @ step)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _table(g: SystemGraph, order: list[str], index: dict[str, int], p: PathCondition) -> np.ndarray:
    n = len(order)
    if isinstance(p, Empty):
        return np.eye(n, dtype=bool)
    if isinstance(p, Edge):
        label = ("~" + p.label) if p.reversed else p.label
        table = np.zeros((n, n), dtype=bool)
        for i, v in enumerate(order):
            for w in g.neighbors(v, label):
                table[i, index[w]] = True
        return table
    if isinstance(p, Reverse):
        return _table(g, order, index, p.inner).T
    if isinstance(p, Concat):
        return _table(g, order, index, p.left) @ _table(g, order, index, p.right)
    if isinstance(p, Plus):
        return _closure(_table(g, order, index, p.inner))
    raise TypeError(f"not a path condition: {p!r}")


def satisfaction_table(g: SystemGraph, p: PathCondition) -> tuple[list[str], np.ndarray]:
    """Node order plus the full boolean satisfaction table for ``p``."""
    order = sorted(g.nodes())
    index = {v: i for i, v in enumerate(order)}
    return order, _table(g, order, index, p)


def oracle_satisfies(g: SystemGraph, u: str, v: str, p: PathCondition) -> bool:
    """Whether a path from ``u`` to ``v`` satisfies ``p``, by fixpoint."""
    g.node_type(u)
    g.node_type(v)
    order, table = satisfaction_table(g, p)
    index = {node: i for i, node in enumerate(order)}
    return bool(table[index[u], index[v]])
