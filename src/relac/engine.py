"""Request evaluation: principal matching, authorization, defaults, history.

Evaluation of a request (subject, object, action) proceeds in two stages:
compute the matched principals for the (subject, object) pair, then look up
the matched principals' authorization rules for the object and action. An
empty matched set or an empty decision set falls through to the default
cascade. Around that core this module layers the history machinery:

* caching edges store a pair's matched principals, stamped with the graph
  epoch read before matching, so repeat pairs skip principal matching
  while fresh and a write that lands mid-match leaves the entry stale; they
  belong to the principal-matching policy that computed them, and an
  evaluator with another policy drops them before it uses the cache;
* decision audit edges record each (subject, object, action) outcome once,
  giving path conditions access to past decisions (separation of duty);
* interest audit edges mark a subject's active interest in a company and
  block its conflict-of-interest partners (Chinese Wall).

Writeback happens after the decision is fixed, inside one graph write lock,
so a request never observes its own history edges and later requests see
them in submission order. A history edge whose label occurs in the loaded
principal-matching policy can change matched sets, so writing a new one
invalidates the cache (by bumping the graph epoch); labels the policy never
mentions cannot affect any product search and leave the cache intact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .automata import (
    Nfa,
    SearchStats,
    compile_condition,
    reachable_accepting,
)
from .errors import (
    NonDenyOverridesError,
    PolicyError,
    UnknownActionError,
)
from .graph import (
    ACTIVE_INTEREST,
    BLOCKED_INTEREST,
    INTEREST_BLOCKED,
    Caching,
    SystemGraph,
    allow_label,
    decision_audit,
    reverse_label,
)
from .pathcond import (
    NONE,
    Concat,
    Edge,
    PathCondition,
    PathTarget,
    Reverse,
    base_labels,
    is_simple,
    simplify,
)
from .policy import (
    Crs,
    Decision,
    DefaultStage,
    DefaultTable,
    ExtendedAuthPolicy,
    AuthRule,
    PmRule,
    Pmp,
    PmpShape,
    collect_decisions,
    match_principals,
    resolve_conflicts,
)

__all__ = [
    "Request",
    "DecisionSource",
    "EvalResult",
    "ChineseWallConfig",
    "HistoryConfig",
    "EvalStats",
    "Evaluator",
    "build_sod_policy",
    "build_chinese_wall_rules",
    "interest_writeback",
]


@dataclass(frozen=True)
class Request:
    subject: str
    obj: str
    action: str


class DecisionSource:
    AUTHORIZATION = "authorization"
    DEFAULT_NO_PRINCIPALS = "default-no-principals"
    DEFAULT_NO_AUTHORIZATIONS = "default-no-authorizations"


@dataclass(frozen=True)
class EvalResult:
    decision: Decision
    matched: frozenset[str]
    raw_decisions: frozenset[Decision]
    decision_source: str
    cache_assisted: bool = False
    trace: tuple[str, ...] | None = None

    @property
    def source_text(self) -> str:
        prefix = "cache+" if self.cache_assisted else ""
        return prefix + self.decision_source


@dataclass(frozen=True)
class ChineseWallConfig:
    """Conflict-of-interest wiring: companies belong to at most one
    conflict class via ``membership_relation``; ``user_paths`` lead from
    users to companies and ``object_paths`` from documents to companies.
    All paths must be simple."""

    membership_relation: str
    user_paths: tuple[PathCondition, ...]
    object_paths: tuple[PathCondition, ...]
    principal: str = "insider"

    def __post_init__(self):
        for p in self.user_paths + self.object_paths:
            if not is_simple(p):
                raise PolicyError("chinese-wall paths must be simple; run simplify first")

    @cached_property
    def object_nfas(self) -> tuple[Nfa, ...]:
        """The object paths' automata, compiled once."""
        return tuple(compile_condition(p) for p in self.object_paths)


@dataclass(frozen=True)
class HistoryConfig:
    caching_enabled: bool = False
    decision_audit_enabled: bool = False
    chinese_wall: ChineseWallConfig | None = None


@dataclass
class EvalStats(SearchStats):
    """Evaluator counters; product searches count straight into the
    inherited ``product_visits`` and ``searches``."""

    evaluations: int = 0
    principal_computations: int = 0
    cache_hits: int = 0
    cache_writes: int = 0


class Evaluator:
    """Binds a graph to a policy pair plus history configuration.

    Policies are immutable; to change one, make a new evaluator. Every
    request computes its matched principals with :func:`match_principals`,
    so results and caching edges are the same for every policy shape.
    Before it reads or writes caching edges an evaluator claims them for its
    principal-matching policy (:meth:`SystemGraph.claim_caches`), so entries
    computed under another policy are never read. ``target_filter`` is
    accepted for compatibility and ignored.
    """

    def __init__(
        self,
        graph: SystemGraph,
        pmp: Pmp,
        policy: ExtendedAuthPolicy,
        defaults: DefaultTable,
        config: HistoryConfig = HistoryConfig(),
        *,
        target_filter: bool = False,
    ):
        self.graph = graph
        self.pmp = pmp
        self.policy = policy
        self.defaults = defaults
        self.config = config
        self.stats = EvalStats()
        self._pmp_labels = _pmp_alphabet(pmp)
        if config.chinese_wall is not None:
            graph.freeze_relation(config.chinese_wall.membership_relation)

    # -- evaluation

    def evaluate(self, request: Request, *, trace: bool = False) -> EvalResult:
        g = self.graph
        s, o, a = request.subject, request.obj, request.action
        g.node_type(s)
        o_type = g.node_type(o)
        if g.model.actions and a not in g.model.actions:
            raise UnknownActionError(f"unknown action {a!r}")

        lines: list[str] | None = [] if trace else None
        epoch = g.epoch
        matched, cache_assisted = self._matched(s, o, lines)

        if not matched:
            decision, level = self.defaults.resolve(
                DefaultStage.NO_MATCHED_PRINCIPALS, s, o, o_type
            )
            raw: frozenset[Decision] = frozenset()
            source = DecisionSource.DEFAULT_NO_PRINCIPALS
            if lines is not None:
                lines.append("no matched principals")
                lines.append(f"default ({level}) -> {decision.value}")
        else:
            ordered = collect_decisions(o, o_type, a, self.policy, matched)
            raw = frozenset(ordered)
            reduced = resolve_conflicts(self.policy.crs, ordered)
            if lines is not None:
                lines.append(
                    "raw decisions: "
                    + (",".join(sorted(d.value for d in ordered)) or "-")
                )
            if not reduced:
                decision, level = self.defaults.resolve(
                    DefaultStage.NO_EXPLICIT_AUTHORIZATIONS, None, o, o_type
                )
                source = DecisionSource.DEFAULT_NO_AUTHORIZATIONS
                if lines is not None:
                    lines.append(f"default ({level}) -> {decision.value}")
            else:
                (decision,) = reduced
                source = DecisionSource.AUTHORIZATION
                if lines is not None:
                    lines.append(f"crs {self.policy.crs.value} -> {decision.value}")

        self._writeback(s, o, a, decision, matched, cache_assisted, epoch, lines)
        self.stats.evaluations += 1
        return EvalResult(
            decision=decision,
            matched=matched,
            raw_decisions=raw,
            decision_source=source,
            cache_assisted=cache_assisted,
            trace=tuple(lines) if lines is not None else None,
        )

    def _matched(
        self, s: str, o: str, lines: list[str] | None
    ) -> tuple[frozenset[str], bool]:
        """Returns (matched set, came from cache). The claim covers this
        request's cache write too: a caching evaluator is a writer, so no
        other evaluation of the graph runs in between."""
        g = self.graph
        if self.config.caching_enabled:
            g.claim_caches(self.pmp.fingerprint)
            hit = g.lookup_cache(s, o)
            if hit is not None:
                self.stats.cache_hits += 1
                if lines is not None:
                    lines.append(f"cache hit: {{{','.join(sorted(hit)) or ''}}}")
                return hit, True
            if lines is not None:
                lines.append("cache miss")
        stats = self.stats
        visits = stats.product_visits
        matched = match_principals(g, self.pmp, s, o, stats=stats, trace=lines)
        stats.principal_computations += 1
        if lines is not None:
            lines.append(f"matched principals: {{{','.join(sorted(matched))}}}")
            lines.append(f"product-state visits: {stats.product_visits - visits}")
        return matched, False

    # -- history writeback

    def _writeback(
        self,
        s: str,
        o: str,
        action: str,
        decision: Decision,
        matched: frozenset[str],
        cache_assisted: bool,
        epoch: int,
        lines: list[str] | None,
    ) -> None:
        cfg = self.config
        g = self.graph
        allowed = decision is Decision.ALLOW
        # Made before any write: an action the graph file cannot carry
        # raises here and leaves the graph as it was.
        audit = None
        if cfg.decision_audit_enabled or (cfg.chinese_wall is not None and allowed):
            audit = decision_audit(action, allowed)
        with g.write_lock():
            # The cache entry is stamped with ``epoch``, read before
            # matching: a write that landed while matching ran, or a
            # policy-relevant edge added by this same writeback, stales it.
            if cfg.caching_enabled and not cache_assisted:
                g.record_typed_edge(s, o, Caching(matched, epoch))
                self.stats.cache_writes += 1
                if lines is not None:
                    lines.append("cache write")
            invalidate = False
            added: list[str] = []
            if cfg.chinese_wall is not None and allowed:
                added = interest_writeback(g, s, o, action, cfg.chinese_wall)
                invalidate = any(label in self._pmp_labels for label in added)
            # interest_writeback audits the allow itself whenever it adds
            # anything; when it adds nothing the audit edge is either
            # already there or still to be written here.
            if cfg.decision_audit_enabled and not added:
                if g.record_typed_edge(s, o, audit):
                    invalidate |= audit.label in self._pmp_labels
                    if lines is not None:
                        lines.append(f"audit edge {audit.label}")
            if invalidate:
                g.invalidate_caches()
                if lines is not None:
                    lines.append("cache invalidated (history edge affects policy)")

    # -- preemptive caching

    def warm(self, pairs: Iterable[tuple[str, str]]) -> int:
        """Precompute and store caching edges for pairs lacking a fresh one,
        whether or not the configuration caches. Pure principal matching:
        no audit writeback, no decision. Returns the number of edges
        written."""
        g = self.graph
        stats = self.stats
        g.claim_caches(self.pmp.fingerprint)
        written = 0
        for subject, obj in pairs:
            if g.lookup_cache(subject, obj) is not None:
                continue
            epoch = g.epoch
            matched = match_principals(g, self.pmp, subject, obj, stats=stats)
            with g.write_lock():
                g.record_typed_edge(subject, obj, Caching(matched, epoch))
            stats.principal_computations += 1
            stats.cache_writes += 1
            written += 1
        return written


def _pmp_alphabet(pmp: Pmp) -> frozenset[str]:
    labels: set[str] = set()
    for rule in pmp.rules:
        for target in (rule.mandated, rule.precluded):
            if isinstance(target, PathTarget):
                labels |= base_labels(target.condition)
    return frozenset(labels)


# --- separation of duty ---------------------------------------------------------

def build_sod_policy(
    base_pmp: Pmp,
    base_policy: ExtendedAuthPolicy,
    obj: str,
    actions: Sequence[str],
) -> tuple[Pmp, ExtendedAuthPolicy]:
    """Constrain ``actions`` on ``obj`` to distinct performers.

    For each constrained action a dedicated principal is matched to any
    subject that was already allowed that action on the object (via the
    allow-audit label), and that principal is denied every *other*
    constrained action. Under deny-overrides, a subject therefore gets at
    most one of the actions, while repeats of its own action fall through
    to the base policy. Requires decision auditing to be enabled at
    evaluation time.
    """
    if base_policy.crs is not Crs.DENY_OVERRIDES:
        raise NonDenyOverridesError(
            "separation of duty requires the deny-overrides strategy"
        )
    actions = tuple(actions)
    if len(set(actions)) != len(actions):
        raise PolicyError("separation-of-duty actions must be distinct")
    guard_rules = tuple(
        PmRule(PathTarget(Edge(allow_label(a))), NONE, _sod_principal(a))
        for a in actions
    )
    if base_pmp.shape is PmpShape.SET:
        pmp = Pmp(PmpShape.SET, base_pmp.rules + guard_rules)
    elif base_pmp.shape is PmpShape.LIST:
        # First-applicable semantics: constraint rules must preempt.
        pmp = Pmp(PmpShape.LIST, guard_rules + base_pmp.rules)
    else:
        raise PolicyError("separation of duty supports set- and list-shaped policies")
    deny_rules = tuple(
        AuthRule(_sod_principal(a_i), obj, a_j, Decision.DENY)
        for a_i, a_j in itertools.permutations(actions, 2)
    )
    return pmp, replace(base_policy, rules=base_policy.rules + deny_rules)


def _sod_principal(action: str) -> str:
    return f"sod:{action}"


# --- chinese wall ----------------------------------------------------------------

def build_chinese_wall_rules(
    user_paths: Sequence[PathCondition],
    object_paths: Sequence[PathCondition],
    principal: str,
) -> tuple[PmRule, ...]:
    """One rule per (user path, object path) pair: mandate the
    user-to-company-to-object route, preclude the same route through a
    blocked-interest edge."""
    rules = []
    for u_path in user_paths:
        for o_path in object_paths:
            back = simplify(Reverse(o_path))
            rules.append(
                PmRule(
                    mandated=PathTarget(simplify(Concat(u_path, back))),
                    precluded=PathTarget(
                        simplify(Concat(Edge(INTEREST_BLOCKED), back))
                    ),
                    principal=principal,
                )
            )
    return tuple(rules)


def interest_writeback(
    g: SystemGraph,
    subject: str,
    obj: str,
    action: str,
    cw: ChineseWallConfig,
) -> list[str]:
    """After an allow on a conflict-governed object, record the subject's
    active interest in the object's companies, block every rival company
    (each company's conflict-class partners, so a company is blocked too
    when the object also belongs to one of its rivals) and audit the allow.
    Each kind is written with one bulk call under the graph's write lock;
    all writes are idempotent. Returns the label of each kind of edge
    actually added, once, for cache invalidation."""
    companies: set[str] = set()
    for nfa in cw.object_nfas:
        companies |= reachable_accepting(nfa, g, obj)
    if not companies:
        return []
    member = cw.membership_relation
    members_of = reverse_label(member)
    added: list[str] = []
    with g.write_lock():
        blocked: set[str] = set()
        for company in companies:
            for coic in g.neighbors(company, member):
                blocked |= g.neighbors(coic, members_of) - {company}
        if g.record_typed_edges(subject, companies, ACTIVE_INTEREST):
            added.append(ACTIVE_INTEREST.label)
        if g.record_typed_edges(subject, blocked, BLOCKED_INTEREST):
            added.append(BLOCKED_INTEREST.label)
        audit = decision_audit(action, True)
        if g.record_typed_edge(subject, obj, audit):
            added.append(audit.label)
    return added

