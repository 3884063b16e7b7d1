"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from relac.automata import Nfa, SearchStats, compile_condition, reachable_accepting
from relac.engine import ChineseWallConfig, EvalResult, Evaluator, HistoryConfig, Request
from relac.errors import NotSimpleError, RelacError
from relac.fileformat import _Collector, parse_graph, parse_model, parse_policy
from relac.graph import (
    Caching,
    DecisionAudit,
    InterestAudit,
    SystemGraph,
    SystemModel,
    kind_from_label,
    reverse_label,
)
from relac.pathcond import (
    Concat,
    Edge,
    Empty,
    PathCondition,
    Plus,
    Reverse,
    is_simple,
    to_text,
)
from relac.policy import (
    NULL_PRINCIPAL,
    Decision,
    DefaultStage,
    DefaultTable,
    ExtendedAuthPolicy,
    Pmp,
    PmpShape,
    collect_decisions,
    resolve_conflicts,
)

# --- the higher-education course example ------------------------------------
#
# A PhD student u1 enrolled on course c1 and assisting on c2, a professor u2
# responsible for c1, coursework a1/a2 for c1 and a3 for c2, with u1 the
# creator of a2.

COURSE_MODEL = """
type user
type course
type coursework
rel is-enrolled-on
rel is-responsible-for
rel is-ta-for
rel is-coursework-for
rel is-creator-of
perm user course is-enrolled-on
perm user course is-responsible-for
perm user course is-ta-for
perm coursework course is-coursework-for
perm user coursework is-creator-of
action read
action write
action grade
action review
"""

COURSE_GRAPH = """
entity u1 user
entity u2 user
entity c1 course
entity c2 course
entity a1 coursework
entity a2 coursework
entity a3 coursework
edge u1 c1 is-enrolled-on
edge u2 c1 is-responsible-for
edge u1 c2 is-ta-for
edge a1 c1 is-coursework-for
edge a3 c2 is-coursework-for
edge a2 c1 is-coursework-for
edge u1 a2 is-creator-of
"""

COURSE_POLICY = """
pmp set
rule author : is-creator-of ! none
rule course-ta : is-ta-for;~is-coursework-for ! is-enrolled-on;~is-coursework-for
rule course-leader : is-responsible-for;~is-coursework-for ! none
auth author * read allow
auth author * write allow
auth course-ta * read allow
auth course-ta * grade allow
auth course-leader * read allow
auth course-leader * review allow
crs deny-overrides
default system deny
"""

# Expected outcomes for (subject, object, read): decision and matched set.
COURSE_EXPECTED = [
    ("u1", "a1", "deny", frozenset()),
    ("u1", "a2", "allow", frozenset({"author"})),
    ("u1", "a3", "allow", frozenset({"course-ta"})),
    ("u2", "a1", "allow", frozenset({"course-leader"})),
    ("u2", "a2", "allow", frozenset({"course-leader"})),
    ("u2", "a3", "deny", frozenset()),
]


def course_example():
    model = parse_model(COURSE_MODEL)
    graph = parse_graph(COURSE_GRAPH, model)
    parsed = parse_policy(COURSE_POLICY, model)
    return model, graph, parsed


# --- separation of duty -------------------------------------------------------

SOD_MODEL = "type user\ntype doc\nrel r\nperm user doc r\n"


def sod_example(n_actions: int = 3, n_users: int = 3):
    model = parse_model(SOD_MODEL)
    lines = [f"entity u{i} user" for i in range(1, n_users + 1)]
    lines.append("entity o doc")
    lines += [f"edge u{i} o r" for i in range(1, n_users + 1)]
    graph = parse_graph("\n".join(lines), model)
    actions = " ".join(f"a{i}" for i in range(1, n_actions + 1))
    parsed = parse_policy(
        "pmp set\n"
        "rule p : r ! none\n"
        "auth p o * allow\n"
        "crs deny-overrides\n"
        "default system deny\n"
        f"sod o {actions}\n",
        model,
    )
    return model, graph, parsed


# The six-request walkthrough and its expected decisions.
SOD_SEQUENCE = [
    ("u1", "o", "a1"),
    ("u1", "o", "a2"),
    ("u1", "o", "a3"),
    ("u3", "o", "a2"),
    ("u3", "o", "a3"),
    ("u2", "o", "a3"),
]
SOD_DECISIONS = ["allow", "deny", "deny", "allow", "deny", "allow"]
SOD_FINAL_AUDITS = {
    ("u1", "o", "@allow:a1"),
    ("u1", "o", "@deny:a2"),
    ("u1", "o", "@deny:a3"),
    ("u3", "o", "@allow:a2"),
    ("u3", "o", "@deny:a3"),
    ("u2", "o", "@allow:a3"),
}


# --- chinese wall ----------------------------------------------------------------
#
# Consultancy e1 serving companies c1..c3 (c1, c2 share conflict class i1);
# files f1/f4 belong to c1, f2 to c2, f3 to c3.

WALL_MODEL = """
type user
type firm
type company
type file
type coic
rel w
rel s
rel d
rel m
perm user firm w
perm firm company s
perm file company d
perm company coic m
"""

WALL_GRAPH = """
entity u1 user
entity e1 firm
entity c1 company
entity c2 company
entity c3 company
entity f1 file
entity f2 file
entity f3 file
entity f4 file
entity i1 coic
entity i2 coic
edge u1 e1 w
edge e1 c1 s
edge e1 c2 s
edge e1 c3 s
edge f1 c1 d
edge f2 c2 d
edge f3 c3 d
edge f4 c1 d
edge c1 i1 m
edge c2 i1 m
edge c3 i2 m
"""

WALL_POLICY = """
pmp set
cw-member m
cw-userpath w;s
cw-objectpath d
cw-principal p
auth p * read allow
crs deny-overrides
default system deny
"""

WALL_SEQUENCE = [("u1", "f1", "read"), ("u1", "f2", "read"),
                 ("u1", "f3", "read"), ("u1", "f4", "read")]
WALL_DECISIONS = ["allow", "deny", "allow", "allow"]
WALL_FINAL_EDGES = {
    ("u1", "c1", "@interest:active"),
    ("u1", "c3", "@interest:active"),
    ("u1", "c2", "@interest:blocked"),
    ("u1", "f1", "@allow:read"),
    ("u1", "f3", "@allow:read"),
    ("u1", "f4", "@allow:read"),
    ("u1", "f2", "@deny:read"),
}


def wall_example():
    model = parse_model(WALL_MODEL)
    graph = parse_graph(WALL_GRAPH, model)
    parsed = parse_policy(WALL_POLICY, model)
    return model, graph, parsed


def random_wall_example(rng: random.Random):
    """A random instance of the wall model: a few firms serving random
    companies, companies in random conflict classes (some in none), files
    of one to three companies (so some belong to two rivals) and users
    working at random firms. Returns (model, graph, parsed policy)."""
    model = parse_model(WALL_MODEL)
    firms = [f"e{i}" for i in range(rng.randint(1, 3))]
    companies = [f"c{i}" for i in range(rng.randint(2, 8))]
    classes = [f"i{i}" for i in range(rng.randint(1, 3))]
    files = [f"f{i}" for i in range(rng.randint(2, 10))]
    users = [f"u{i}" for i in range(rng.randint(1, 4))]
    lines = [f"entity {v} {t}" for group, t in (
        (users, "user"), (firms, "firm"), (companies, "company"),
        (files, "file"), (classes, "coic")) for v in group]
    lines += [f"edge {u} {rng.choice(firms)} w" for u in users]
    lines += [f"edge {e} {c} s" for e in firms for c in companies if rng.random() < 0.6]
    lines += [f"edge {c} {rng.choice(classes)} m" for c in companies if rng.random() < 0.85]
    lines += [f"edge {f} {c} d" for f in files
              for c in rng.sample(companies, rng.randint(1, min(3, len(companies))))]
    return model, parse_graph("\n".join(lines), model), parse_policy(WALL_POLICY, model)


# --- random instances ---------------------------------------------------------

def random_graph(
    rng: random.Random,
    max_nodes: int = 12,
    n_relations: int = 4,
    max_edges: int = 30,
    symmetric_count: int = 1,
) -> SystemGraph:
    relations = [f"r{i}" for i in range(n_relations)]
    symmetric = frozenset(rng.sample(relations, symmetric_count)) if symmetric_count else frozenset()
    model = SystemModel(
        types=frozenset({"t"}),
        relations=frozenset(relations),
        symmetric=symmetric,
        permissible=frozenset(("t", "t", r) for r in relations),
    )
    g = SystemGraph(model)
    n = rng.randint(2, max_nodes)
    nodes = [f"v{i}" for i in range(n)]
    for v in nodes:
        g.add_entity(v, "t")
    for _ in range(rng.randint(0, max_edges)):
        g.add_relationship(rng.choice(nodes), rng.choice(nodes), rng.choice(relations))
    return g


def random_simple_condition(
    rng: random.Random,
    labels: list[str],
    max_len: int,
    symmetric: frozenset[str] = frozenset(),
) -> PathCondition:
    """Uniform-ish normalized simple condition with edge count <= max_len."""

    def gen(budget: int, allow_plus: bool) -> PathCondition:
        if budget == 1:
            label = rng.choice(labels)
            node: PathCondition = Edge(label, rng.random() < 0.4 and label not in symmetric)
            if allow_plus and rng.random() < 0.3:
                node = Plus(node)
            return node
        if allow_plus and rng.random() < 0.3:
            return Plus(gen(budget, False))
        split = rng.randint(1, budget - 1)
        return Concat(gen(split, True), gen(budget - split, True))

    return gen(rng.randint(1, max_len), True)


def random_raw_condition(
    rng: random.Random, labels: list[str], depth: int
) -> PathCondition:
    """Arbitrary (possibly non-simple) AST, Reverse and <> included."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return Edge(rng.choice(labels), rng.random() < 0.3)
    if roll < 0.5:
        return Reverse(random_raw_condition(rng, labels, depth - 1))
    if roll < 0.62:
        return Plus(random_raw_condition(rng, labels, depth - 1))
    if roll < 0.7:
        return Empty()
    return Concat(
        random_raw_condition(rng, labels, depth - 1),
        random_raw_condition(rng, labels, depth - 1),
    )


# --- word acceptance ------------------------------------------------------------
#
# Run a word through one automaton at a time; tests use these to check the
# witnesses that the product search returns.

def nfa_accepts(nfa: Nfa, word: Iterable[str]) -> bool:
    frontier = {nfa.start}
    for label in word:
        frontier = {q2 for q, q2, arc in nfa.transitions if q in frontier and arc == label}
        if not frontier:
            return False
    return bool(frontier & nfa.accepting)


def graph_accepts(g: SystemGraph, start: str, accept: str, word: Iterable[str]) -> bool:
    """Whether some path from ``start`` to ``accept`` spells ``word``."""
    g.node_type(start)
    g.node_type(accept)
    frontier = {start}
    for label in word:
        frontier = {w for v in frontier for w in g.neighbors(v, label)}
        if not frontier:
            return False
    return accept in frontier


# --- reference rules ------------------------------------------------------------
#
# Rule-by-rule versions of the principal-matching loop and the schema check;
# tests require the library's answers to equal theirs.

def reference_match_principals(
    g: SystemGraph,
    pmp: Pmp,
    subject: str,
    obj: str,
    *,
    stats: SearchStats | None = None,
    trace: list[str] | None = None,
) -> frozenset[str]:
    """One branch per policy shape: the first applicable rule of a list,
    every applicable rule of a set, and for a dag each rule whose
    predecessors are all enabled and applicable, in topological order."""
    g.node_type(subject)
    g.node_type(obj)
    if pmp.shape is PmpShape.LIST:
        for i in range(len(pmp.rules)):
            if pmp.applicable(g, i, subject, obj, stats=stats, trace=trace):
                return frozenset({pmp.rules[i].principal})
        return frozenset()
    if pmp.shape is PmpShape.SET:
        return frozenset(
            pmp.rules[i].principal
            for i in range(len(pmp.rules))
            if pmp.applicable(g, i, subject, obj, stats=stats, trace=trace)
        )
    applicable: dict[int, bool] = {}

    def check(i: int) -> bool:
        if i not in applicable:
            applicable[i] = pmp.applicable(g, i, subject, obj, stats=stats, trace=trace)
        return applicable[i]

    enabled: dict[int, bool] = {}
    matched = set()
    for i in pmp._order:
        enabled[i] = all(enabled[p] and check(p) for p in pmp._preds[i])
        if enabled[i] and check(i):
            matched.add(pmp.rules[i].principal)
    return frozenset(matched - {NULL_PRINCIPAL})


def reference_permits(model: SystemModel, from_type: str, to_type: str, label: str) -> bool:
    """The schema check by recursion: a reverse label flips the canonical
    triple, a symmetric relation also permits the flipped order."""
    if label.startswith("~"):
        return reference_permits(model, to_type, from_type, label[1:])
    if (from_type, to_type, label) in model.permissible:
        return True
    return label in model.symmetric and (to_type, from_type, label) in model.permissible


# --- reference writers ------------------------------------------------------------
#
# Edge-at-a-time versions of the bulk history writes, the one-pass graph
# dump and the one-pass graph loader; tests require the library's results
# to equal theirs.

def reference_interest_writeback(
    g: SystemGraph, subject: str, obj: str, action: str, cw: ChineseWallConfig
) -> None:
    """One ``record_typed_edge`` call per edge: active interest in each of
    the object's companies, blocked interest in each of their conflict-class
    partners, then the allow audit."""
    companies: set[str] = set()
    for path in cw.object_paths:
        companies |= reachable_accepting(compile_condition(path), g, obj)
    for company in sorted(companies):
        g.record_typed_edge(subject, company, InterestAudit(blocked=False))
        for coic in g.neighbors(company, cw.membership_relation):
            for rival in g.neighbors(coic, reverse_label(cw.membership_relation)):
                if rival != company:
                    g.record_typed_edge(subject, rival, InterestAudit(blocked=True))
    if companies:
        g.record_typed_edge(subject, obj, DecisionAudit(action, allowed=True))


def relationship_edges(g: SystemGraph) -> Iterator[tuple[str, str, str]]:
    """Stored relationship edges; a symmetric edge comes once, as
    ``(v, w)`` with ``v <= w``."""
    symmetric = g.model.symmetric
    for v, by_label in g.adjacency.items():
        for label, targets in by_label.items():
            if label.startswith(("~", "@")):
                continue
            for w in targets:
                if label not in symmetric or v <= w:
                    yield v, w, label


def reference_serialize_graph(g: SystemGraph) -> str:
    """The graph dump built from the enumeration API, one kind object per
    history edge."""
    lines = []
    for node in sorted(g.nodes()):
        lines.append(f"entity {node} {g.node_type(node)}")
    for frm, to, label in sorted(relationship_edges(g)):
        lines.append(f"edge {frm} {to} {label}")
    system, caches = [], []
    for frm, to, kind in g.typed_edges():
        if isinstance(kind, Caching):
            plist = ",".join(sorted(kind.principals)) or "-"
            caches.append(f"cache {frm} {to} {kind.epoch} {plist}")
        else:
            system.append(f"edge {frm} {to} {kind.label}")
    lines.extend(sorted(system))
    lines.append(f"epoch {g.epoch}")
    if caches and g.cache_policy is not None:
        lines.append(f"cache-policy {g.cache_policy}")
    lines.extend(sorted(caches))
    return "\n".join(lines) + "\n"


def reference_parse_graph(
    text: str,
    model: SystemModel,
    source: str = "<graph>",
    cache_capacity: int | None = None,
) -> SystemGraph:
    """The per-line graph loader: every line tokenized into a list first,
    then one ``add_entity``, ``add_relationship`` or ``record_typed_edge``
    call per entity and edge line, the last ``epoch`` line restored, and the
    cache lines entered last, under the last ``cache-policy`` line."""
    col = _Collector(source)
    g = SystemGraph(model, cache_capacity=cache_capacity)
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line.split()))
    cache_lines: list[tuple[int, list[str]]] = []
    final_epoch: int | None = None
    for lineno, tokens in lines:
        kw = tokens[0]
        try:
            if kw == "entity" and len(tokens) == 3:
                g.add_entity(tokens[1], tokens[2])
            elif kw == "edge" and len(tokens) == 4:
                frm, to, label = tokens[1:]
                if label.startswith("@"):
                    g.record_typed_edge(frm, to, kind_from_label(label))
                else:
                    g.add_relationship(frm, to, label)
            elif kw == "cache" and len(tokens) == 5:
                cache_lines.append((lineno, tokens))
            elif kw == "epoch" and len(tokens) == 2:
                final_epoch = int(tokens[1])
            elif kw == "cache-policy" and len(tokens) == 2:
                g.cache_policy = tokens[1]
            else:
                col.error(lineno, f"unrecognized graph directive: {' '.join(tokens)}")
        except (RelacError, ValueError) as exc:
            col.error(lineno, str(exc))
    if final_epoch is not None:
        try:
            g.restore_epoch(final_epoch)
        except ValueError as exc:
            col.error(None, str(exc))
    for lineno, tokens in cache_lines:
        _, subj, obj, epoch_text, plist = tokens
        try:
            principals = frozenset() if plist == "-" else frozenset(plist.split(","))
            g.record_typed_edge(subj, obj, Caching(principals, int(epoch_text)))
        except (RelacError, ValueError) as exc:
            col.error(lineno, str(exc))
    col.finish()
    return g


# --- one-shot conveniences -------------------------------------------------------
#
# Shorthands over the library's API that only tests call.

def evaluate(
    graph: SystemGraph,
    pmp: Pmp,
    policy: ExtendedAuthPolicy,
    defaults: DefaultTable,
    request: Request,
    config: HistoryConfig = HistoryConfig(),
    *,
    trace: bool = False,
) -> EvalResult:
    """One-shot evaluation; use :class:`Evaluator` for request sequences."""
    return Evaluator(graph, pmp, policy, defaults, config).evaluate(
        request, trace=trace
    )


def compute_authorizations(
    obj: str,
    obj_type: str,
    action: str,
    policy: ExtendedAuthPolicy,
    matched: frozenset[str],
) -> frozenset[Decision]:
    """Applicable-rule decisions after conflict resolution: one of the empty
    set, {allow} or {deny}."""
    return resolve_conflicts(
        policy.crs, collect_decisions(obj, obj_type, action, policy, matched)
    )


def apply_defaults(
    table: DefaultTable,
    stage: DefaultStage,
    *,
    subject: str | None = None,
    obj: str | None = None,
    obj_type: str | None = None,
) -> Decision:
    return table.resolve(stage, subject, obj, obj_type)[0]


def metrics(p: PathCondition) -> tuple[int, int]:
    """Return ``(length, plus_count)`` of a simple path condition.

    ``length`` counts edge-condition occurrences; ``plus_count`` counts
    ``+`` operators. The compiled automaton has ``length + 1`` states and
    ``length + plus_count`` transitions.
    """
    if not is_simple(p):
        raise NotSimpleError(f"not in simple form: {to_text(p)}")
    return _count_edges(p), _count_pluses(p)


def _count_edges(p: PathCondition) -> int:
    if isinstance(p, Edge):
        return 1
    if isinstance(p, Concat):
        return _count_edges(p.left) + _count_edges(p.right)
    if isinstance(p, Plus):
        return _count_edges(p.inner)
    return 0


def _count_pluses(p: PathCondition) -> int:
    if isinstance(p, Plus):
        return 1 + _count_pluses(p.inner)
    if isinstance(p, Concat):
        return _count_pluses(p.left) + _count_pluses(p.right)
    return 0
