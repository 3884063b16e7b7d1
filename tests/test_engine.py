from __future__ import annotations

import random

import pytest

import helpers
import relac.engine
from helpers import evaluate, random_graph
from relac.automata import SearchStats
from relac.engine import (
    DecisionSource,
    Evaluator,
    HistoryConfig,
    Request,
    build_chinese_wall_rules,
    build_sod_policy,
    interest_writeback,
)
from relac.errors import (
    FrozenRelationError,
    ModelError,
    NonDenyOverridesError,
    UnknownActionError,
    UnknownNodeError,
)
from relac.fileformat import parse_graph, parse_policy, serialize_graph
from relac.graph import Caching, DecisionAudit
from relac.pathcond import ALL, NONE, PathTarget, parse
from relac.policy import (
    AuthRule,
    Crs,
    Decision,
    DefaultTable,
    ExtendedAuthPolicy,
    PmRule,
    Pmp,
    PmpShape,
    match_principals,
)

ALLOW, DENY = Decision.ALLOW, Decision.DENY


def history(**kwargs) -> HistoryConfig:
    return HistoryConfig(**kwargs)


def course_evaluator(course, **cfg) -> Evaluator:
    _, g, parsed = course
    return Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(**cfg))


def run(ev: Evaluator, seq):
    return [ev.evaluate(Request(*q)).decision.value for q in seq]


# --- the core evaluation loop -------------------------------------------------------

def test_course_example_decisions_and_sources(course):
    ev = course_evaluator(course)
    for s, o, decision, matched in helpers.COURSE_EXPECTED:
        result = ev.evaluate(Request(s, o, "read"))
        assert result.decision.value == decision
        assert result.matched == matched
        if matched:
            assert result.decision_source == DecisionSource.AUTHORIZATION
            assert result.raw_decisions == frozenset({ALLOW})
        else:
            assert result.decision_source == DecisionSource.DEFAULT_NO_PRINCIPALS
            assert result.raw_decisions == frozenset()


def test_no_explicit_authorizations_stage(course):
    _, g, parsed = course
    # author matches for (u1, a2) but no rule mentions "review" for author
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults)
    result = ev.evaluate(Request("u1", "a2", "review"))
    assert result.decision is DENY
    assert result.decision_source == DecisionSource.DEFAULT_NO_AUTHORIZATIONS


def test_unknown_node_and_action(course):
    ev = course_evaluator(course)
    with pytest.raises(UnknownNodeError):
        ev.evaluate(Request("u9", "a1", "read"))
    with pytest.raises(UnknownNodeError):
        ev.evaluate(Request("u1", "a9", "read"))
    with pytest.raises(UnknownActionError):
        ev.evaluate(Request("u1", "a1", "fly"))


@pytest.mark.parametrize("action", ["read#x", "read x", "read\u3000x"])
def test_action_the_graph_file_cannot_carry_writes_nothing(action):
    """With no ``action`` lines in the model any action is admissible, but
    one that would be written into an audit label must be a single token
    without ``#``: the request raises before any edge is written."""
    _, g, parsed = helpers.sod_example()
    wall_model, wall_graph, _ = helpers.wall_example()
    wall_policy = parse_policy(
        helpers.WALL_POLICY.replace("auth p * read allow", "auth p * * allow"), wall_model
    )
    cases = [
        (g, parsed, history(caching_enabled=True, decision_audit_enabled=True), ("u1", "o")),
        (wall_graph, wall_policy,
         history(caching_enabled=True, chinese_wall=wall_policy.chinese_wall), ("u1", "f1")),
    ]
    for graph, policy, config, (s, o) in cases:
        ev = Evaluator(graph, policy.pmp, policy.policy, policy.defaults, config)
        before = (serialize_graph(graph), graph.epoch)
        with pytest.raises(ModelError, match="invalid action"):
            ev.evaluate(Request(s, o, action))
        assert (serialize_graph(graph), graph.epoch) == before
        assert ev.evaluate(Request(s, o, "read")).decision is ALLOW
    # an action that nothing records stays admissible
    _, g, parsed = helpers.sod_example()
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(caching_enabled=True))
    assert ev.evaluate(Request("u1", "o", action)).decision is ALLOW


def test_one_shot_helper(course):
    _, g, parsed = course
    result = evaluate(g, parsed.pmp, parsed.policy, parsed.defaults, Request("u1", "a2", "read"))
    assert result.decision is ALLOW


def test_determinism(course):
    first = course_evaluator(course, caching_enabled=True, decision_audit_enabled=True)
    second = course_evaluator(helpers.course_example(), caching_enabled=True, decision_audit_enabled=True)
    for s, o, *_ in helpers.COURSE_EXPECTED:
        a = first.evaluate(Request(s, o, "read"))
        b = second.evaluate(Request(s, o, "read"))
        assert a == b


def test_trace_lines(course):
    ev = course_evaluator(course, caching_enabled=True)
    result = ev.evaluate(Request("u1", "a3", "read"), trace=True)
    text = "\n".join(result.trace)
    assert "cache miss" in text
    assert "matched principals: {course-ta}" in text
    assert "crs deny-overrides -> allow" in text
    again = ev.evaluate(Request("u1", "a3", "grade"), trace=True)
    assert any("cache hit" in line for line in again.trace)


def test_trace_counts_each_request_own_visits(course):
    ev = course_evaluator(course)
    visits = [
        int(line.rpartition(" ")[2])
        for _ in range(2)
        for line in ev.evaluate(Request("u1", "a3", "read"), trace=True).trace
        if line.startswith("product-state visits: ")
    ]
    assert visits[0] == visits[1] > 0
    assert ev.stats.product_visits == sum(visits)


# --- caching ---------------------------------------------------------------------

def test_cache_fast_path(course):
    ev = course_evaluator(course, caching_enabled=True)
    cold = ev.evaluate(Request("u1", "a3", "read"))
    assert not cold.cache_assisted
    warm = ev.evaluate(Request("u1", "a3", "grade"))
    assert warm.cache_assisted
    assert warm.decision is ALLOW
    assert warm.source_text == "cache+authorization"
    assert ev.stats.cache_hits == 1
    assert ev.stats.principal_computations == 1


def test_cache_stores_empty_matched_set(course):
    ev = course_evaluator(course, caching_enabled=True)
    ev.evaluate(Request("u1", "a1", "read"))
    repeat = ev.evaluate(Request("u1", "a1", "read"))
    assert repeat.cache_assisted
    assert repeat.decision is DENY
    assert repeat.decision_source == DecisionSource.DEFAULT_NO_PRINCIPALS


def test_cache_invalidated_by_graph_mutation(course):
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(caching_enabled=True))
    ev.evaluate(Request("u1", "a3", "read"))
    g.add_entity("u3", "user")
    result = ev.evaluate(Request("u1", "a3", "grade"))
    assert not result.cache_assisted
    assert ev.stats.principal_computations == 2


def test_cache_transparency_on_course_fixture():
    sequence = [(s, o, "read") for s, o, *_ in helpers.COURSE_EXPECTED] * 2
    on = Evaluator(*_fresh_course(), history(caching_enabled=True, decision_audit_enabled=True))
    off = Evaluator(*_fresh_course(), history(caching_enabled=False, decision_audit_enabled=True))
    assert run(on, sequence) == run(off, sequence)
    assert on.stats.principal_computations < off.stats.principal_computations


def _fresh_course():
    _, g, parsed = helpers.course_example()
    return g, parsed.pmp, parsed.policy, parsed.defaults


def test_replace_auth_policy_only_keeps_caches(course):
    # caching edges store matched principals, which do not depend on the
    # authorization side, so a new evaluator with an equal principal-matching
    # policy and another authorization policy must not recompute them
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(caching_enabled=True))
    ev.evaluate(Request("u1", "a3", "read"))
    same_pmp = Pmp(parsed.pmp.shape, parsed.pmp.rules)
    narrowed = ExtendedAuthPolicy(parsed.policy.rules[:3], parsed.policy.crs)
    ev = Evaluator(g, same_pmp, narrowed, parsed.defaults, history(caching_enabled=True))
    result = ev.evaluate(Request("u1", "a3", "read"))
    assert result.cache_assisted


@pytest.mark.parametrize("shape", [PmpShape.SET, PmpShape.LIST, PmpShape.DAG])
def test_caching_evaluators_with_different_policies_share_a_graph(shape):
    """Two caching evaluators with different principal-matching policies
    take turns on one graph; every result equals an uncached evaluator's.
    Each claims the caching edges before it uses them, so it never reads an
    entry the other policy computed."""
    rng = random.Random(f"two-policies-{shape.value}")
    hits = foreign = 0
    for _ in range(40):
        g, pmp_a, policy_a, defaults_a, nodes = _random_policy_instance(rng, shape)
        _, pmp_b, policy_b, defaults_b, _ = _random_policy_instance(rng, shape)
        turns = [
            (Evaluator(g, pmp, policy, defaults, history(caching_enabled=True)),
             Evaluator(g, pmp, policy, defaults))
            for pmp, policy, defaults in (
                (pmp_a, policy_a, defaults_a), (pmp_b, policy_b, defaults_b))
        ]
        for turn in range(12):
            cached, uncached = turns[turn % 2]
            for _ in range(rng.randint(1, 4)):
                req = Request(rng.choice(nodes[:3]), rng.choice(nodes[:3]),
                              rng.choice(["act", "other"]))
                want = uncached.evaluate(req)
                entry = g.lookup_cache(req.subject, req.obj)
                foreign += entry is not None and entry != want.matched
                got = cached.evaluate(req)
                assert (got.decision, got.matched, got.decision_source) == (
                    want.decision, want.matched, want.decision_source), (req, turn)
                hits += got.cache_assisted
    assert hits > 0 and foreign > 0


# --- audit writeback ----------------------------------------------------------------

def test_audit_edges_match_decisions_and_dedup(course):
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    ev.evaluate(Request("u1", "a2", "read"))
    ev.evaluate(Request("u1", "a1", "read"))  # default deny still audited
    ev.evaluate(Request("u1", "a2", "read"))  # repeat: deduplicated
    audits = [(s, o, k.label) for s, o, k in g.typed_edges() if isinstance(k, DecisionAudit)]
    assert sorted(audits) == [
        ("u1", "a1", "@deny:read"),
        ("u1", "a2", "@allow:read"),
    ]


def test_audit_edges_are_monotone(course):
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    seen = set()
    rng = random.Random(2)
    subjects = ["u1", "u2"]
    objects = ["a1", "a2", "a3"]
    for _ in range(30):
        ev.evaluate(Request(rng.choice(subjects), rng.choice(objects), "read"))
        now = {(s, o, k.label) for s, o, k in g.typed_edges() if isinstance(k, DecisionAudit)}
        assert seen <= now
        seen = now


def test_audit_edges_feed_path_conditions(course):
    # a precluded allow-audit target: "not previously granted read"
    _, g, parsed = course
    pmp = Pmp(
        PmpShape.SET,
        [PmRule(PathTarget(parse("is-creator-of")), PathTarget(parse("@allow:read")), "author")],
    )
    ev = Evaluator(g, pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    assert ev.evaluate(Request("u1", "a2", "read")).decision is ALLOW
    assert ev.evaluate(Request("u1", "a2", "read")).decision is DENY


# --- separation of duty ----------------------------------------------------------------

def test_build_sod_policy_shape():
    base_pmp = Pmp(PmpShape.SET, [PmRule(PathTarget(parse("r")), NONE, "p")])
    base_policy = ExtendedAuthPolicy((AuthRule("p", "o", "*", ALLOW),), Crs.DENY_OVERRIDES)
    pmp, policy = build_sod_policy(base_pmp, base_policy, "o", ["a1", "a2", "a3"])
    assert len(pmp.rules) == 4
    deny_rules = [r for r in policy.rules if r.decision is DENY]
    assert len(deny_rules) == 6  # n(n-1)
    assert all(r.scope == "o" for r in deny_rules)


def test_build_sod_policy_requires_deny_overrides():
    base_pmp = Pmp(PmpShape.SET, [PmRule(ALL, NONE, "p")])
    base_policy = ExtendedAuthPolicy((), Crs.ALLOW_OVERRIDES)
    with pytest.raises(NonDenyOverridesError):
        build_sod_policy(base_pmp, base_policy, "o", ["a1", "a2"])


def test_sod_sequence_reproduces_final_audit_set(sod3):
    _, g, parsed = sod3
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    assert run(ev, helpers.SOD_SEQUENCE) == helpers.SOD_DECISIONS
    audits = {(s, o, k.label) for s, o, k in g.typed_edges() if isinstance(k, DecisionAudit)}
    assert audits == helpers.SOD_FINAL_AUDITS


def test_sod_single_action_allows_repeats():
    _, g, parsed = helpers.sod_example(n_actions=1, n_users=1)
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    assert run(ev, [("u1", "o", "a1"), ("u1", "o", "a1")]) == ["allow", "allow"]


def test_sod_first_request_always_allowed():
    _, g, parsed = helpers.sod_example(n_actions=2, n_users=2)
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    assert ev.evaluate(Request("u2", "o", "a2")).decision is ALLOW


def test_sod_own_action_repeats_follow_base_policy(sod3):
    _, g, parsed = sod3
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
    assert run(ev, [("u1", "o", "a1")] * 3) == ["allow"] * 3
    assert ev.evaluate(Request("u1", "o", "a2")).decision is DENY


def test_sod_random_interleavings_small():
    rng = random.Random(31)
    for _ in range(40):
        n, k = rng.choice([2, 3]), rng.randint(1, 3)
        _, g, parsed = helpers.sod_example(n_actions=n, n_users=k)
        ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(decision_audit_enabled=True))
        allowed: dict[str, set[str]] = {}
        for _ in range(rng.randint(4, 15)):
            u = f"u{rng.randint(1, k)}"
            a = f"a{rng.randint(1, n)}"
            result = ev.evaluate(Request(u, "o", a))
            if result.decision is ALLOW:
                allowed.setdefault(u, set()).add(a)
        assert all(len(actions) <= 1 for actions in allowed.values())


def test_sod_decisions_unchanged_by_caching():
    with_cache = helpers.sod_example()
    without_cache = helpers.sod_example()
    on = Evaluator(
        with_cache[1], with_cache[2].pmp, with_cache[2].policy, with_cache[2].defaults,
        history(caching_enabled=True, decision_audit_enabled=True),
    )
    off = Evaluator(
        without_cache[1], without_cache[2].pmp, without_cache[2].policy, without_cache[2].defaults,
        history(caching_enabled=False, decision_audit_enabled=True),
    )
    assert run(on, helpers.SOD_SEQUENCE) == run(off, helpers.SOD_SEQUENCE)
    # the deny audits are invisible to the policy, so the repeat pair hits
    assert on.stats.principal_computations < off.stats.principal_computations


# --- chinese wall ---------------------------------------------------------------------

def test_build_chinese_wall_rules_cartesian():
    rules = build_chinese_wall_rules(
        [parse("w;s"), parse("x")], [parse("d"), parse("e")], "p"
    )
    assert len(rules) == 4
    one = build_chinese_wall_rules([parse("w;s")], [parse("d")], "p")[0]
    assert one.mandated == PathTarget(parse("w;s;~d"))
    assert one.precluded == PathTarget(parse("@interest:blocked;~d"))
    assert one.principal == "p"


def test_wall_replay_and_final_edges(wall):
    _, g, parsed = wall
    ev = Evaluator(
        g, parsed.pmp, parsed.policy, parsed.defaults,
        history(decision_audit_enabled=True, chinese_wall=parsed.chinese_wall),
    )
    assert run(ev, helpers.WALL_SEQUENCE) == helpers.WALL_DECISIONS
    edges = {(s, o, k.label) for s, o, k in g.typed_edges() if not isinstance(k, Caching)}
    assert edges == helpers.WALL_FINAL_EDGES


def test_wall_blocks_only_same_conflict_class(wall):
    _, g, parsed = wall
    ev = Evaluator(
        g, parsed.pmp, parsed.policy, parsed.defaults,
        history(decision_audit_enabled=True, chinese_wall=parsed.chinese_wall),
    )
    assert ev.evaluate(Request("u1", "f2", "read")).decision is ALLOW
    # interest in c2 now blocks c1 documents but not c3's
    assert ev.evaluate(Request("u1", "f1", "read")).decision is DENY
    assert ev.evaluate(Request("u1", "f4", "read")).decision is DENY
    assert ev.evaluate(Request("u1", "f3", "read")).decision is ALLOW


def test_wall_exhaustive_orderings():
    import itertools

    files = {"f1": "c1", "f2": "c2", "f3": "c3", "f4": "c1"}
    coic = {"c1": "i1", "c2": "i1", "c3": "i2"}
    for order in itertools.permutations(files):
        _, g, parsed = helpers.wall_example()
        ev = Evaluator(
            g, parsed.pmp, parsed.policy, parsed.defaults,
            history(decision_audit_enabled=True, chinese_wall=parsed.chinese_wall),
        )
        active: set[str] = set()
        for f in order:
            company = files[f]
            conflicted = any(
                coic[c] == coic[company] and c != company for c in active
            )
            result = ev.evaluate(Request("u1", f, "read"))
            assert result.decision is (DENY if conflicted else ALLOW)
            if result.decision is ALLOW:
                active.add(company)


def test_wall_decisions_unchanged_by_caching():
    on_fixture = helpers.wall_example()
    off_fixture = helpers.wall_example()
    on = Evaluator(
        on_fixture[1], on_fixture[2].pmp, on_fixture[2].policy, on_fixture[2].defaults,
        history(caching_enabled=True, decision_audit_enabled=True, chinese_wall=on_fixture[2].chinese_wall),
    )
    off = Evaluator(
        off_fixture[1], off_fixture[2].pmp, off_fixture[2].policy, off_fixture[2].defaults,
        history(caching_enabled=False, decision_audit_enabled=True, chinese_wall=off_fixture[2].chinese_wall),
    )
    assert run(on, helpers.WALL_SEQUENCE) == run(off, helpers.WALL_SEQUENCE)


def test_wall_freezes_membership_relation(wall):
    _, g, parsed = wall
    ev = Evaluator(
        g, parsed.pmp, parsed.policy, parsed.defaults,
        history(chinese_wall=parsed.chinese_wall),
    )
    ev.evaluate(Request("u1", "f1", "read"))  # writes interest edges
    with pytest.raises(FrozenRelationError):
        g.add_relationship("c3", "i1", "m")


def test_interest_writeback_idempotent(wall):
    _, g, parsed = wall
    cw = parsed.chinese_wall
    added = interest_writeback(g, "u1", "f1", "read", cw)
    assert set(added) == {"@interest:active", "@interest:blocked", "@allow:read"}
    assert interest_writeback(g, "u1", "f1", "read", cw) == []


def test_interest_writeback_ignores_unit_governed_objects(wall):
    _, g, parsed = wall
    # e1 has no object-path (d) to any company: nothing to record
    assert interest_writeback(g, "u1", "e1", "read", parsed.chinese_wall) == []


# --- preemptive caching ------------------------------------------------------------

def test_warm_cache_then_evaluate(course):
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(caching_enabled=True))
    assert ev.warm([("u1", "a3")]) == 1
    result = ev.evaluate(Request("u1", "a3", "grade"))
    assert result.cache_assisted and result.decision is ALLOW


def test_warm_cache_is_idempotent_and_pure(course):
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults)
    assert ev.warm([("u1", "a3"), ("u1", "a3")]) == 1
    assert ev.warm([("u1", "a3")]) == 0
    assert not any(isinstance(k, DecisionAudit) for _, _, k in g.typed_edges())


def test_warm_cache_stale_after_mutation(course):
    _, g, parsed = course
    ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults, history(caching_enabled=True))
    ev.warm([("u1", "a3")])
    g.add_entity("u9", "user")
    result = ev.evaluate(Request("u1", "a3", "read"))
    assert not result.cache_assisted


@pytest.mark.parametrize("fill", ["evaluate", "warm"])
def test_write_during_matching_stales_the_cache_entry(monkeypatch, fill):
    # A relationship added after matching read the graph but before the
    # caching edge is written must leave that edge stale, not fresh.
    g, pmp, policy, defaults = _fresh_course()
    ev = Evaluator(g, pmp, policy, defaults, history(caching_enabled=True))
    unwrapped = relac.engine.match_principals

    def racing(*args, **kwargs):
        matched = unwrapped(*args, **kwargs)
        g.add_relationship("u1", "a1", "is-creator-of")  # u1 becomes an author
        monkeypatch.setattr(relac.engine, "match_principals", unwrapped)
        return matched

    monkeypatch.setattr(relac.engine, "match_principals", racing)
    if fill == "evaluate":
        assert ev.evaluate(Request("u1", "a1", "read")).matched == frozenset()
    else:
        assert ev.warm([("u1", "a1")]) == 1
    result = ev.evaluate(Request("u1", "a1", "read"))
    assert not result.cache_assisted
    uncached = Evaluator(g, pmp, policy, defaults).evaluate(Request("u1", "a1", "read"))
    assert (result.decision, result.matched) == (uncached.decision, uncached.matched)
    assert result.matched == frozenset({"author"})


# --- the ignored target_filter flag ---------------------------------------------------

def _random_policy_instance(rng: random.Random, shape: PmpShape):
    g = random_graph(rng, max_nodes=8, n_relations=3, max_edges=14, symmetric_count=0)
    labels = sorted(g.model.relations)
    nodes = sorted(g.nodes())
    principals = [f"p{i}" for i in range(4)]

    def target():
        roll = rng.random()
        if roll < 0.15:
            return ALL
        if roll < 0.3:
            return NONE
        return PathTarget(parse(rng.choice(labels)))

    rules = []
    for _ in range(rng.randint(1, 5)):
        rules.append(PmRule(target(), target(), rng.choice(principals)))
    if shape is PmpShape.LIST:
        rules = [
            r for r in rules
            if not (r.mandated == ALL and r.precluded == NONE)
        ] or [PmRule(PathTarget(parse(labels[0])), NONE, "p0")]
    dag_edges = ()
    if shape is PmpShape.DAG:
        # Rule 0 is the root; every later rule hangs under one or two
        # earlier ones.
        dag_edges = {(rng.randrange(i), i) for i in range(1, len(rules))}
        dag_edges |= {(rng.randrange(i), i) for i in range(1, len(rules)) if rng.random() < 0.3}
    pmp = Pmp(shape, rules, sorted(dag_edges))
    auth_rules = []
    for _ in range(rng.randint(0, 5)):
        auth_rules.append(
            AuthRule(
                rng.choice(principals),
                rng.choice([rng.choice(nodes), "t", "*"]),
                rng.choice(["act", "other", "*"]),
                rng.choice([ALLOW, DENY]),
            )
        )
    policy = ExtendedAuthPolicy(
        tuple(auth_rules),
        Crs.FIRST_APPLICABLE if (shape is PmpShape.LIST and rng.random() < 0.5) else Crs.DENY_OVERRIDES,
    )
    defaults = DefaultTable(
        system_wide=rng.choice([ALLOW, DENY]),
        per_subject={rng.choice(nodes): rng.choice([ALLOW, DENY])},
        per_object={rng.choice(nodes): rng.choice([ALLOW, DENY])},
        per_type={"t": rng.choice([ALLOW, DENY])} if rng.random() < 0.5 else {},
    )
    return g, pmp, policy, defaults, nodes


@pytest.mark.parametrize("shape", [PmpShape.SET, PmpShape.LIST, PmpShape.DAG])
def test_target_filter_flag_changes_nothing(shape):
    """``target_filter=True`` gives the same results and writes the same
    caching edges as the default evaluator, on two copies of one instance."""
    rng = random.Random(shape.value)
    config = history(caching_enabled=True)
    cache_hits = 0
    for _ in range(40):
        seed = rng.randrange(1 << 30)
        runs = []
        for flag in (False, True):
            g, pmp, policy, defaults, nodes = _random_policy_instance(random.Random(seed), shape)
            ev = Evaluator(g, pmp, policy, defaults, config, target_filter=flag)
            requests = random.Random(seed)
            results = []
            for _ in range(12):
                req = Request(requests.choice(nodes[:3]), requests.choice(nodes[:3]),
                              requests.choice(["act", "other"]))
                r = ev.evaluate(req)
                results.append((r.decision, r.matched, r.decision_source, r.cache_assisted))
            runs.append((results, dict(g.cache_entries())))
        assert runs[0] == runs[1]
        cache_hits += sum(r[3] for r in runs[0][0])
    assert cache_hits > 0


@pytest.mark.parametrize("shape", [PmpShape.SET, PmpShape.LIST, PmpShape.DAG])
def test_matching_loop_equals_the_per_shape_reference(shape):
    """On random instances, for every pair, the one matching loop and the
    per-shape reference give the same matched set, try the same rules in
    the same order with the same verdicts (their ``rule`` trace lines) and
    count the same searches and product-state visits."""
    rng = random.Random(f"loop-{shape.value}")
    tried = 0
    for _ in range(60):
        g, pmp, _, _, nodes = _random_policy_instance(rng, shape)
        for s in nodes:
            for o in nodes:
                runs = []
                for match in (match_principals, helpers.reference_match_principals):
                    stats, trace = SearchStats(), []
                    matched = match(g, pmp, s, o, stats=stats, trace=trace)
                    runs.append((matched, trace, stats))
                assert runs[0] == runs[1], (pmp, s, o)
                assert all(line.startswith("rule ") for line in runs[0][1])
                tried += len(runs[0][1])
    assert tried > 0


# --- concurrency ----------------------------------------------------------------

def test_concurrent_readonly_evaluations(course):
    import threading

    ev = course_evaluator(course)  # no caching, no audit: read-only
    errors: list[Exception] = []

    def worker():
        try:
            for _ in range(50):
                for s, o, decision, _ in helpers.COURSE_EXPECTED:
                    assert ev.evaluate(Request(s, o, "read")).decision.value == decision
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_interest_writeback_returns_each_label_once(wall):
    _, g, parsed = wall
    # f2 now belongs to both companies of class i1, so each of them gets
    # an active and a blocked edge; each label comes back once
    g.add_relationship("f2", "c1", "d")
    added = interest_writeback(g, "u1", "f2", "read", parsed.chinese_wall)
    assert sorted(added) == ["@allow:read", "@interest:active", "@interest:blocked"]
    edges = {(s, o, k.label) for s, o, k in g.typed_edges()}
    assert edges == {
        ("u1", "c1", "@interest:active"), ("u1", "c2", "@interest:active"),
        ("u1", "c1", "@interest:blocked"), ("u1", "c2", "@interest:blocked"),
        ("u1", "f2", "@allow:read"),
    }


@pytest.mark.parametrize("audit", [True, False])
def test_bulk_history_writes_match_edge_at_a_time_reference(audit):
    """Replay random requests on random wall graphs; after every request the
    engine's history edges equal those of the edge-at-a-time reference
    writer fed the same decisions, and so do the decisions themselves."""
    rng = random.Random(5 + audit)
    shared_rivals = 0
    for _ in range(40):
        model, g, parsed = helpers.random_wall_example(rng)
        cw = parsed.chinese_wall
        ref = parse_graph(serialize_graph(g), model)
        ev = Evaluator(
            g, parsed.pmp, parsed.policy, parsed.defaults,
            history(caching_enabled=True, decision_audit_enabled=audit, chinese_wall=cw),
        )
        plain = Evaluator(ref, parsed.pmp, parsed.policy, parsed.defaults)
        users = [v for v in g.nodes() if g.node_type(v) == "user"]
        files = [v for v in g.nodes() if g.node_type(v) == "file"]
        for f in files:
            classes = [g.neighbors(c, "m") for c in g.neighbors(f, "d")]
            shared_rivals += any(a & b for i, a in enumerate(classes) for b in classes[i + 1:])
        for _ in range(12):
            s, o = rng.choice(users), rng.choice(files)
            result = ev.evaluate(Request(s, o, "read"))
            assert plain.evaluate(Request(s, o, "read")).decision is result.decision
            if result.decision is ALLOW:
                helpers.reference_interest_writeback(ref, s, o, "read", cw)
            if audit:
                ref.record_typed_edge(s, o, DecisionAudit("read", result.decision is ALLOW))
            history_edges = {
                (v, w, k) for v, w, k in g.typed_edges() if not isinstance(k, Caching)
            }
            assert history_edges == set(ref.typed_edges())
    assert shared_rivals  # some object belonged to two companies of one class
