"""System model (schema) and system graph (instance).

The model fixes entity types, relationship labels, the symmetric subset and
the permissible-relationship graph; the graph holds typed entities plus four
kinds of edges: ordinary relationship edges and the three history kinds
written back by the evaluation engine (caching, decision audit, interest
audit). Every edge is entered into one label-keyed adjacency index in
both directions at insert time, under each traversal label that reaches it
(``r`` and ``~r``, ``@x`` and ``~@x``), so a one-step traversal is a single
lookup and the "edge in both directions" view holds by construction.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import AbstractSet, ItemsView, Iterable, Iterator, Mapping, Union

from .errors import (
    DuplicateEntityError,
    FrozenRelationError,
    ModelError,
    RelacError,
    SchemaViolationError,
    UnknownNodeError,
    UnknownRelationError,
    UnknownTypeError,
)

__all__ = [
    "SystemModel",
    "SystemGraph",
    "Caching",
    "DecisionAudit",
    "InterestAudit",
    "EdgeKind",
    "reverse_label",
    "allow_label",
    "deny_label",
    "INTEREST_ACTIVE",
    "INTEREST_BLOCKED",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_:-]*$")

INTEREST_ACTIVE = "@interest:active"
INTEREST_BLOCKED = "@interest:blocked"


def allow_label(action: str) -> str:
    return f"@allow:{action}"


def deny_label(action: str) -> str:
    return f"@deny:{action}"


def reverse_label(label: str) -> str:
    """Flip the traversal direction of a label ("r" <-> "~r")."""
    return label[1:] if label.startswith("~") else "~" + label


_NO_NEIGHBORS: frozenset[str] = frozenset()


def _valid_id(node: str) -> bool:
    """One graph-file token: no whitespace (``split`` breaks on exactly the
    characters ``isspace`` accepts), no ``#``, which starts a comment, and
    no leading ``@`` or ``~``, which mark labels. An alphanumeric id, the
    common case, has none of these."""
    if node.isalnum():
        return True
    return node.split() == [node] and "#" not in node and not node.startswith(("@", "~"))


# --- schema -------------------------------------------------------------------

@dataclass(frozen=True)
class SystemModel:
    """Schema: types, relationship labels, symmetric subset, permissible
    (from-type, to-type, relation) triples and an optional closed action set
    (empty means any action is admissible)."""

    types: frozenset[str]
    relations: frozenset[str]
    symmetric: frozenset[str] = frozenset()
    permissible: frozenset[tuple[str, str, str]] = frozenset()
    actions: frozenset[str] = frozenset()

    def __post_init__(self):
        for t in self.types:
            if not _NAME_RE.match(t):
                raise ModelError(f"invalid type name {t!r}")
        for r in self.relations:
            if not _NAME_RE.match(r):
                raise ModelError(f"invalid relation name {r!r}")
        bad = self.symmetric - self.relations
        if bad:
            raise ModelError(f"symmetric labels not declared as relations: {sorted(bad)}")
        for tf, tt, r in self.permissible:
            if tf not in self.types or tt not in self.types:
                raise UnknownTypeError(f"permissible triple ({tf},{tt},{r}) references unknown type")
            if r not in self.relations:
                raise UnknownRelationError(f"permissible triple ({tf},{tt},{r}) references unknown relation")

    @cached_property
    def _permitted(self) -> frozenset[tuple[str, str, str]]:
        """Every permitted (from-type, to-type, traversal label): each
        canonical triple, its reverse view, and for a symmetric relation the
        flipped order under both labels."""
        permitted = set()
        for tf, tt, r in self.permissible:
            permitted |= {(tf, tt, r), (tt, tf, "~" + r)}
            if r in self.symmetric:
                permitted |= {(tt, tf, r), (tf, tt, "~" + r)}
        return frozenset(permitted)

    def permits(self, from_type: str, to_type: str, label: str) -> bool:
        """Schema check for a traversal label; reverse labels are the derived
        view of the canonical triples, symmetric labels permit either order."""
        return (from_type, to_type, label) in self._permitted


# --- edge kinds -----------------------------------------------------------------

@dataclass(frozen=True)
class Caching:
    """Matched-principal cache entry; ``epoch`` is stamped at write time when
    left unset."""

    principals: frozenset[str]
    epoch: int | None = None


@dataclass(frozen=True)
class DecisionAudit:
    action: str
    allowed: bool

    def __post_init__(self):
        # The label goes into graph files, where ``#`` starts a comment and
        # whitespace separates tokens.
        if "#" in self.action or any(c.isspace() for c in self.action):
            raise ModelError(f"invalid action {self.action!r}")

    @cached_property
    def label(self) -> str:
        return allow_label(self.action) if self.allowed else deny_label(self.action)


@dataclass(frozen=True)
class InterestAudit:
    blocked: bool

    @cached_property
    def label(self) -> str:
        return INTEREST_BLOCKED if self.blocked else INTEREST_ACTIVE


EdgeKind = Union[Caching, DecisionAudit, InterestAudit]

ACTIVE_INTEREST = InterestAudit(blocked=False)
BLOCKED_INTEREST = InterestAudit(blocked=True)


@lru_cache(maxsize=256)
def decision_audit(action: str, allowed: bool) -> DecisionAudit:
    """The shared audit kind for (action, outcome); kinds are immutable, so
    the writeback path reuses one object, and its label, per pair."""
    return DecisionAudit(action, allowed)


def kind_from_label(label: str) -> DecisionAudit | InterestAudit:
    """Inverse of the reserved-namespace labels used in graph files."""
    if label == INTEREST_ACTIVE:
        return ACTIVE_INTEREST
    if label == INTEREST_BLOCKED:
        return BLOCKED_INTEREST
    if label.startswith("@allow:"):
        return decision_audit(label[len("@allow:"):], True)
    if label.startswith("@deny:"):
        return decision_audit(label[len("@deny:"):], False)
    raise UnknownRelationError(f"not a reserved system label: {label!r}")


# --- graph ------------------------------------------------------------------------

class SystemGraph:
    """Mutable labelled multigraph of typed entities.

    Concurrency contract: many concurrent readers OR one writer. All
    mutating methods serialize on an internal lock; :meth:`write_lock` lets
    the engine make a decision's writeback atomic. ``epoch`` increases on
    every effective entity/relationship mutation and on explicit cache
    invalidation; history-edge writes leave it untouched.
    """

    def __init__(self, model: SystemModel, cache_capacity: int | None = None):
        if cache_capacity is not None and cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        self.model = model
        self.cache_capacity = cache_capacity
        self._types: dict[str, str] = {}
        # node -> traversal label -> neighbors. A symmetric relation keeps
        # both directions in one set per node, bound to both ``r`` and ``~r``.
        self._adj: dict[str, dict[str, set[str]]] = {}
        # relation -> (reverse label, whether both labels share one set)
        self._relations = {r: ("~" + r, r in model.symmetric) for r in model.relations}
        self._cache: OrderedDict[tuple[str, str], tuple[frozenset[str], int]] = OrderedDict()
        # Fingerprint of the principal-matching policy the caching edges
        # were computed under; None when unknown.
        self.cache_policy: str | None = None
        self._frozen_relations: set[str] = set()
        self._interest_edges = 0
        self._epoch = 0
        self._lock = threading.RLock()

    # -- basic queries

    @property
    def epoch(self) -> int:
        return self._epoch

    def __len__(self) -> int:
        return len(self._types)

    def __contains__(self, node: str) -> bool:
        return node in self._types

    def nodes(self) -> Iterator[str]:
        return iter(self._types)

    def node_type(self, node: str) -> str:
        self._require(node)
        return self._types[node]

    def write_lock(self) -> threading.RLock:
        return self._lock

    def _require(self, node: str) -> None:
        if node not in self._types:
            raise UnknownNodeError(f"unknown entity {node!r}")

    # -- mutation

    def add_entity(self, node: str, type_name: str) -> None:
        with self._lock:
            if type_name not in self.model.types:
                raise UnknownTypeError(f"unknown type {type_name!r}")
            if node in self._types:
                raise DuplicateEntityError(f"entity {node!r} already present")
            if not _valid_id(node):
                raise ModelError(f"invalid entity id {node!r}")
            self._types[node] = type_name
            self._adj[node] = {}
            self._epoch += 1

    def add_relationship(self, from_node: str, to_node: str, relation: str) -> bool:
        """Store an edge in canonical direction; returns False for a
        duplicate (including the flipped form of a symmetric edge), which is
        a no-op and does not advance the epoch."""
        with self._lock:
            self._require(from_node)
            self._require(to_node)
            if relation.startswith("@") or relation.startswith("~"):
                raise UnknownRelationError(
                    f"{relation!r} is not a storable relation (system and reverse "
                    "labels are views, not stored edges)"
                )
            if relation not in self.model.relations:
                raise UnknownRelationError(f"unknown relation {relation!r}")
            if relation in self._frozen_relations and self._interest_edges:
                raise FrozenRelationError(
                    f"relation {relation!r} is frozen once interest edges exist"
                )
            if not self.model.permits(self._types[from_node], self._types[to_node], relation):
                raise SchemaViolationError(
                    f"({self._types[from_node]},{self._types[to_node]},{relation}) "
                    "is not a permissible relationship"
                )
            reverse, shared = self._relations[relation]
            if not self._link(from_node, to_node, relation, reverse, shared):
                return False
            self._epoch += 1
            return True

    def record_typed_edge(self, from_node: str, to_node: str, kind: EdgeKind) -> bool:
        """Add a history edge (writeback path). Audit and interest edges are
        deduplicated, caching edges replace the pair's previous entry. Does
        not advance the epoch. Returns True when the graph changed."""
        with self._lock:
            adj = self._adj
            if from_node not in adj or to_node not in adj:
                self._require(from_node)
                self._require(to_node)
            if isinstance(kind, Caching):
                self._store_cache(from_node, to_node, kind.principals, kind.epoch)
                return True
            label = kind.label
            if not self._link(from_node, to_node, label, "~" + label, False):
                return False
            if isinstance(kind, InterestAudit):
                self._interest_edges += 1
            return True

    def record_typed_edges(
        self, from_node: str, to_nodes: Iterable[str], kind: DecisionAudit | InterestAudit
    ) -> int:
        """Add the audit or interest edges ``from_node -> w`` for each ``w``
        in ``to_nodes`` that the graph lacks, in both directions, under one
        lock. Every endpoint is checked before anything changes, so an
        unknown node raises and leaves the graph as it was. Does not advance
        the epoch. Returns the number of edges added."""
        if not isinstance(kind, (DecisionAudit, InterestAudit)):
            raise ValueError("bulk writes take audit and interest kinds only")
        with self._lock:
            adj = self._adj
            wanted = set(to_nodes)
            if from_node not in adj or not adj.keys() >= wanted:
                self._require(from_node)
                for node in wanted:
                    self._require(node)
            label = kind.label
            reverse = "~" + label
            new = wanted - adj[from_node].get(label, _NO_NEIGHBORS)
            for node in new:
                self._link(from_node, node, label, reverse, False)
            if isinstance(kind, InterestAudit):
                self._interest_edges += len(new)
            return len(new)

    def add_many(self, items: Iterable[tuple]) -> list[tuple[object, Exception]]:
        """Bulk insert for loaders, under one lock. ``items`` holds, in
        order, entities ``(pos, id, type)``, edges ``(pos, from, to, label)``
        whose label is a relation or an ``@`` history label, and caching
        edges ``(pos, subject, object, principals, epoch)``; ``pos`` is
        opaque. Each item has exactly the effect of :meth:`add_entity`,
        :meth:`add_relationship`, :meth:`record_typed_edge` with
        :func:`kind_from_label`, or :meth:`record_typed_edge` with
        :class:`Caching`, epochs included. Returns ``(pos, error)`` for each
        rejected item, in order, with the error that method raises; a
        rejected item changes nothing.

        The schema check is one set lookup and history labels are parsed
        once each; an item that fails a check goes to its single-item
        method, which raises."""
        rejected: list[tuple[object, Exception]] = []

        def reject(pos: object, insert, *args) -> None:
            try:
                insert(*args)
            except (RelacError, ValueError) as exc:
                rejected.append((pos, exc))

        def add_edge(frm: str, to: str, label: str) -> None:
            if label.startswith("@"):
                self.record_typed_edge(frm, to, kind_from_label(label))
            else:
                self.add_relationship(frm, to, label)

        model = self.model
        types, adj, link = self._types, self._adj, self._link
        frozen = self._frozen_relations
        permitted = model._permitted
        # label -> (reverse label, one set shared with it, relation,
        # interest edge); relations up front, history labels once parsed.
        labels: dict[str, tuple[str, bool, bool, bool]] = {
            r: (reverse, shared, True, False)
            for r, (reverse, shared) in self._relations.items()
        }
        with self._lock:
            for item in items:
                if len(item) == 4:
                    pos, frm, to, label = item
                    info = labels.get(label)
                    if info is None and label.startswith("@"):
                        try:
                            interest = isinstance(kind_from_label(label), InterestAudit)
                        except RelacError:
                            pass
                        else:
                            info = labels[label] = ("~" + label, False, False, interest)
                    if info is None:
                        reject(pos, add_edge, frm, to, label)
                        continue
                    reverse, shared, relation, interest = info
                    if relation:
                        if (types.get(frm), types.get(to), label) not in permitted or (
                            frozen and label in frozen and self._interest_edges
                        ):
                            reject(pos, add_edge, frm, to, label)
                            continue
                    elif frm not in adj or to not in adj:
                        reject(pos, add_edge, frm, to, label)
                        continue
                    if not link(frm, to, label, reverse, shared):
                        continue
                    if relation:
                        self._epoch += 1
                    elif interest:
                        self._interest_edges += 1
                elif len(item) == 3:
                    pos, node, type_name = item
                    if type_name not in model.types or node in types or not _valid_id(node):
                        reject(pos, self.add_entity, node, type_name)
                        continue
                    types[node] = type_name
                    adj[node] = {}
                    self._epoch += 1
                else:
                    pos, s, o, principals, epoch = item
                    if s not in adj or o not in adj:
                        reject(pos, self.record_typed_edge, s, o, Caching(principals, epoch))
                        continue
                    self._store_cache(s, o, principals, epoch)
        return rejected

    def _link(self, frm: str, to: str, label: str, reverse: str, shared: bool) -> bool:
        """Enter ``frm -label-> to`` and ``to -reverse-> frm`` in the
        adjacency index, the one place that does. ``shared`` binds both
        labels to one set per node, as a symmetric relation needs, so the
        flipped edge counts as present too. Returns False, changing nothing,
        for an edge already there. The caller holds the lock and has checked
        both nodes."""
        by_label = self._adj[frm]
        targets = by_label.get(label)
        if targets is None:
            targets = by_label[label] = set()
            if shared:
                by_label[reverse] = targets
        elif to in targets:
            return False
        targets.add(to)
        by_label = self._adj[to]
        sources = by_label.get(reverse)
        if sources is None:
            sources = by_label[reverse] = set()
            if shared:
                by_label[label] = sources
        sources.add(frm)
        return True

    def _store_cache(
        self, subject: str, obj: str, principals: Iterable[str], epoch: int | None
    ) -> None:
        """Write the pair's caching edge, stamped with ``epoch`` or, when
        unset, the current epoch, as the newest entry; a capped cache then
        evicts its oldest entries. The caller holds the lock."""
        key = (subject, obj)
        cache = self._cache
        cache[key] = (frozenset(principals), self._epoch if epoch is None else epoch)
        cache.move_to_end(key)
        if self.cache_capacity is not None:
            while len(cache) > self.cache_capacity:
                cache.popitem(last=False)

    def invalidate_caches(self) -> None:
        """Advance the epoch so every caching edge becomes stale. Called by
        the engine on history writes that can change matched-principal
        sets."""
        with self._lock:
            self._epoch += 1

    def freeze_relation(self, relation: str) -> None:
        """Disallow new ``relation`` edges once any interest edge exists
        (conflict-of-interest membership is fixed after the system goes live)."""
        if relation not in self.model.relations:
            raise UnknownRelationError(f"unknown relation {relation!r}")
        self._frozen_relations.add(relation)

    # -- traversal

    @property
    def adjacency(self) -> Mapping[str, Mapping[str, AbstractSet[str]]]:
        """The adjacency index itself, node -> traversal label -> neighbors,
        for searches that take many steps: ``adjacency[v].get(label)`` is
        ``neighbors(v, label)`` without the call, except that an absent
        label gives ``None``. Read-only, under the same contract as
        :meth:`neighbors`."""
        return self._adj

    def neighbors(self, node: str, label: str) -> AbstractSet[str]:
        """All nodes reachable from ``node`` over one ``label`` step, for
        relation (``r``), reverse (``~r``), symmetric and system (``@x``,
        ``~@x``) labels alike. Labels that exist nowhere yield the empty set.

        The result is a read-only view of the graph's own set, not a copy:
        it is valid under the many-readers-or-one-writer contract, and a
        caller that mutates the graph while iterating it must copy it first.
        """
        try:
            return self._adj[node].get(label, _NO_NEIGHBORS)
        except KeyError:
            raise UnknownNodeError(f"unknown entity {node!r}") from None

    # -- caching edges

    def lookup_cache(self, subject: str, obj: str) -> frozenset[str] | None:
        """Cached matched-principal set for the pair, or None when absent or
        stale (written at an earlier epoch)."""
        self._require(subject)
        self._require(obj)
        entry = self._cache.get((subject, obj))
        if entry is None or entry[1] != self._epoch:
            return None
        return entry[0]

    def claim_caches(self, policy: str) -> None:
        """Bind the caching edges to ``policy``, the fingerprint of the
        principal-matching policy about to read and write them. Entries
        computed under another or an unknown policy are dropped; the epoch
        does not move."""
        if self.cache_policy == policy:
            return
        with self._lock:
            if self.cache_policy != policy:
                self._cache.clear()
                self.cache_policy = policy

    def cache_entries(self) -> ItemsView[tuple[str, str], tuple[frozenset[str], int]]:
        """Caching edges as ``(subject, object) -> (principals, epoch)``,
        oldest first; a read-only view under the same contract as
        :meth:`neighbors`."""
        return self._cache.items()

    # -- enumeration

    def typed_edges(self) -> Iterator[tuple[str, str, EdgeKind]]:
        """History edges: audit, interest, then caching."""
        for v, by_label in self._adj.items():
            for label, targets in by_label.items():
                if not label.startswith("@"):
                    continue
                kind = kind_from_label(label)
                for w in targets:
                    yield v, w, kind
        for (s, o), (principals, epoch) in self.cache_entries():
            yield s, o, Caching(principals, epoch)

    # -- persistence hook (used by the file loader to restore cache freshness)

    def restore_epoch(self, epoch: int) -> None:
        if epoch < self._epoch:
            raise ValueError("cannot move the epoch backwards")
        self._epoch = epoch
