"""Principal-matching policies, authorization rules and default decisions.

A principal-matching policy maps a (subject, object) pair to a set of
principals via rules of the form (mandated target, precluded target,
principal); it comes in three shapes. Set: every applicable rule
contributes. List: only the first applicable rule contributes. Dag: rules
are nodes of an acyclic graph with a unique root, and a rule contributes
only when every rule on every root path to it is applicable, which encodes
conjunction and principal-activation chains.

Authorization rules (principal, object-or-type-or-*, action-or-*,
allow/deny) then decide matched principals' requests, with a conflict
resolution strategy reducing mixed decision sets, and a four-level default
cascade covering the no-principal / no-authorization gaps.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .automata import Nfa, SearchStats, compile_condition, match_detail, matches
from .errors import MalformedDagError, PolicyError
from .graph import SystemGraph
from .pathcond import AllTarget, Empty, NoneTarget, PathTarget, Target, to_text

__all__ = [
    "Decision",
    "Crs",
    "PmpShape",
    "NULL_PRINCIPAL",
    "WILDCARD",
    "PmRule",
    "Pmp",
    "AuthRule",
    "ExtendedAuthPolicy",
    "DefaultStage",
    "DefaultTable",
    "match_principals",
    "collect_decisions",
    "resolve_conflicts",
]

NULL_PRINCIPAL = "null"
WILDCARD = "*"


class Decision(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"

    @classmethod
    def from_text(cls, text: str) -> "Decision":
        try:
            return cls(text)
        except ValueError:
            raise PolicyError(f"decision must be allow or deny, got {text!r}") from None


class Crs(enum.Enum):
    """Conflict resolution strategy for mixed authorization decision sets."""

    DENY_OVERRIDES = "deny-overrides"
    ALLOW_OVERRIDES = "allow-overrides"
    FIRST_APPLICABLE = "first-applicable"


class PmpShape(enum.Enum):
    SET = "set"
    LIST = "list"
    DAG = "dag"


# --- principal matching ------------------------------------------------------

@dataclass(frozen=True)
class PmRule:
    """(mandated, precluded, principal): applicable to a pair when the
    mandated target matches and the precluded one does not."""

    mandated: Target
    precluded: Target
    principal: str


def _describe(target: Target) -> str:
    if isinstance(target, AllTarget):
        return "all"
    if isinstance(target, NoneTarget):
        return "none"
    return to_text(target.condition)


class Pmp:
    """A principal-matching policy: shape + rules (+ DAG edges).

    Path-condition targets must already be in simple form; their automata
    are compiled once here and reused for every request. DAG edges are
    (parent index, child index) pairs over ``rules``; the DAG must be
    acyclic with exactly one in-degree-0 rule, its root. The ``null``
    principal is reserved for DAG plumbing nodes and may not carry
    authorizations.
    """

    def __init__(
        self,
        shape: PmpShape,
        rules: Sequence[PmRule],
        dag_edges: Sequence[tuple[int, int]] = (),
    ):
        self.shape = shape
        self.rules: tuple[PmRule, ...] = tuple(rules)
        self.dag_edges: tuple[tuple[int, int], ...] = tuple(dag_edges)
        if shape is not PmpShape.DAG:
            if self.dag_edges:
                raise PolicyError("dag edges are only valid for dag-shaped policies")
            for rule in self.rules:
                if rule.principal == NULL_PRINCIPAL:
                    raise PolicyError(
                        "the null principal may only appear in dag-shaped policies"
                    )
        if shape is PmpShape.LIST:
            for i, rule in enumerate(self.rules[:-1]):
                if isinstance(rule.mandated, AllTarget) and isinstance(
                    rule.precluded, NoneTarget
                ):
                    raise PolicyError(
                        f"default rule (all, none, {rule.principal}) must be last "
                        f"in a list policy (found at position {i})"
                    )
        # Rules are tried in ``_order`` (topological for a dag); ``_preds``
        # holds each rule's dag parents, none outside dags.
        if shape is PmpShape.DAG:
            self._preds, self._order = self._check_dag()
        else:
            self._preds, self._order = [()] * len(self.rules), range(len(self.rules))
        # Per rule: mandated automaton, precluded automaton, and whether the
        # precluded target is ``none`` (then there is nothing to check).
        self._compiled: list[tuple[Nfa | None, Nfa | None, bool]] = [
            (
                self._compile(rule.mandated),
                self._compile(rule.precluded),
                isinstance(rule.precluded, NoneTarget),
            )
            for rule in self.rules
        ]

    @staticmethod
    def _compile(target: Target) -> Nfa | None:
        """The target's automaton; ``all``, ``none`` and the empty condition
        ``<>`` have none, :func:`match_detail` decides them directly."""
        if isinstance(target, PathTarget) and not isinstance(target.condition, Empty):
            return compile_condition(target.condition)
        return None

    def _check_dag(self) -> tuple[list[list[int]], list[int]]:
        n = len(self.rules)
        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.dag_edges:
            if not (0 <= a < n and 0 <= b < n):
                raise MalformedDagError(f"dag edge ({a},{b}) references a missing rule")
            preds[b].append(a)
            succs[a].append(b)
        roots = [i for i in range(n) if not preds[i]]
        if len(roots) != 1:
            raise MalformedDagError(
                f"dag policy must have exactly one root, found {len(roots)}"
            )
        # Kahn's algorithm; leftovers mean a cycle.
        degree = [len(p) for p in preds]
        order = [roots[0]]
        queue = [roots[0]]
        while queue:
            node = queue.pop()
            for child in succs[node]:
                degree[child] -= 1
                if degree[child] == 0:
                    order.append(child)
                    queue.append(child)
        if len(order) != n:
            raise MalformedDagError("dag policy contains a cycle")
        return preds, order

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the shape, each rule's principal and
        targets as text, and the dag edges. It is the same in every process,
        so a graph file's caching edges can name the policy that computed
        them."""
        text = "\n".join([
            self.shape.value,
            *(f"{r.principal} : {_describe(r.mandated)} ! {_describe(r.precluded)}"
              for r in self.rules),
            *(f"{a} {b}" for a, b in self.dag_edges),
        ])
        return hashlib.sha256(text.encode()).hexdigest()

    def applicable(
        self,
        g: SystemGraph,
        index: int,
        subject: str,
        obj: str,
        *,
        stats: SearchStats | None = None,
        trace: list[str] | None = None,
    ) -> bool:
        rule = self.rules[index]
        m_nfa, p_nfa, never_precluded = self._compiled[index]
        mandated, witness = match_detail(
            g, subject, obj, rule.mandated,
            compiled=m_nfa, stats=stats, want_witness=trace is not None,
        )
        applicable = mandated and (never_precluded or not matches(
            g, subject, obj, rule.precluded, compiled=p_nfa, stats=stats
        ))
        if trace is not None:
            verdict = "applicable" if applicable else (
                "precluded" if mandated else "not matched"
            )
            via = f" via {' '.join(witness)}" if witness else ""
            trace.append(
                f"rule {rule.principal}: {_describe(rule.mandated)} ! "
                f"{_describe(rule.precluded)} -> {verdict}{via}"
            )
        return applicable


def match_principals(
    g: SystemGraph,
    pmp: Pmp,
    subject: str,
    obj: str,
    *,
    stats: SearchStats | None = None,
    trace: list[str] | None = None,
) -> frozenset[str]:
    """The matched-principal set of a pair under the policy's shape
    semantics (see :class:`Pmp`); the null principal never escapes. A rule
    is tried only when each of its dag parents applied, which is
    "applicable on every root path"; a list stops at its first match."""
    g.node_type(subject)
    g.node_type(obj)
    first_only = pmp.shape is PmpShape.LIST
    preds = pmp._preds
    applied = [False] * len(pmp.rules)
    matched: set[str] = set()
    for i in pmp._order:
        if (not preds[i] or all(applied[p] for p in preds[i])) and pmp.applicable(
            g, i, subject, obj, stats=stats, trace=trace
        ):
            applied[i] = True
            matched.add(pmp.rules[i].principal)
            if first_only:
                break
    matched.discard(NULL_PRINCIPAL)
    return frozenset(matched)


# --- authorization -----------------------------------------------------------

@dataclass(frozen=True)
class AuthRule:
    """(principal, object-or-type-or-*, action-or-*, decision)."""

    principal: str
    scope: str
    action: str
    decision: Decision

    def __post_init__(self):
        if self.principal == NULL_PRINCIPAL:
            raise PolicyError("the null principal cannot carry authorizations")

    def applies(self, obj: str, obj_type: str, action: str) -> bool:
        return self.scope in (obj, obj_type, WILDCARD) and self.action in (
            action,
            WILDCARD,
        )


@dataclass(frozen=True)
class ExtendedAuthPolicy:
    rules: tuple[AuthRule, ...]
    crs: Crs = Crs.DENY_OVERRIDES


def collect_decisions(
    obj: str,
    obj_type: str,
    action: str,
    policy: ExtendedAuthPolicy,
    matched: frozenset[str],
) -> tuple[Decision, ...]:
    """Decisions of applicable rules, in rule order (pre-reduction)."""
    return tuple(
        rule.decision
        for rule in policy.rules
        if rule.principal in matched and rule.applies(obj, obj_type, action)
    )


def resolve_conflicts(crs: Crs, ordered: Sequence[Decision]) -> frozenset[Decision]:
    """Reduce a raw decision sequence; the empty sequence stays empty."""
    if not ordered:
        return frozenset()
    if crs is Crs.FIRST_APPLICABLE:
        return frozenset({ordered[0]})
    decisions = frozenset(ordered)
    if crs is Crs.DENY_OVERRIDES and Decision.DENY in decisions:
        return frozenset({Decision.DENY})
    if crs is Crs.ALLOW_OVERRIDES and Decision.ALLOW in decisions:
        return frozenset({Decision.ALLOW})
    return decisions


# --- defaults ------------------------------------------------------------------

class DefaultStage(enum.Enum):
    NO_MATCHED_PRINCIPALS = "no-matched-principals"
    NO_EXPLICIT_AUTHORIZATIONS = "no-explicit-authorizations"


@dataclass(frozen=True)
class DefaultTable:
    """Optional per-subject / per-object / per-type defaults over a mandatory
    system-wide one. Resolution takes the first defined level in that order;
    the per-subject level only participates when no principal matched at
    all, because once decisions are being looked up the subject has already
    played its part."""

    system_wide: Decision
    per_subject: Mapping[str, Decision] = field(default_factory=dict)
    per_object: Mapping[str, Decision] = field(default_factory=dict)
    per_type: Mapping[str, Decision] = field(default_factory=dict)

    def resolve(
        self,
        stage: DefaultStage,
        subject: str | None,
        obj: str | None,
        obj_type: str | None,
    ) -> tuple[Decision, str]:
        """Decision plus the level that produced it (for traces)."""
        if stage is DefaultStage.NO_MATCHED_PRINCIPALS and subject is not None:
            if subject in self.per_subject:
                return self.per_subject[subject], "subject"
        if obj is not None and obj in self.per_object:
            return self.per_object[obj], "object"
        if obj_type is not None and obj_type in self.per_type:
            return self.per_type[obj_type], "type"
        return self.system_wide, "system"
