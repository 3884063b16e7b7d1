"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as the
criteria execute; each test also enforces its own runtime budget.
"""

from __future__ import annotations

import random
import time

import numpy as np

import helpers
from helpers import metrics
from relac.automata import compile_condition, intersection_search
from relac.engine import Evaluator, HistoryConfig, Request
from relac.graph import Caching, DecisionAudit, SystemGraph, SystemModel
from oracle import satisfaction_table
from relac.pathcond import PathTarget, parse, simplify, to_text
from relac.policy import Decision, DefaultStage, DefaultTable, match_principals
from relac.automata import matches

PASSED: list[str] = []


def report(name: str):
    line = f"ACCEPTANCE {name}: PASS"
    PASSED.append(line)
    print(line)


class budget:
    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.limit, f"exceeded {self.limit}s budget: {elapsed:.1f}s"
        return False


def test_c1_course_example_reproduction():
    with budget(1.0):
        _, g, parsed = helpers.course_example()
        ev = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults)
        for s, o, decision, matched in helpers.COURSE_EXPECTED:
            result = ev.evaluate(Request(s, o, "read"))
            assert result.decision.value == decision, (s, o)
            assert result.matched == matched, (s, o)
    report("C1 worked-example decisions and matched sets")


def test_c2_simplification_golden():
    got = simplify(parse("~(~(r1;r2);(r1;r3)+)"))
    assert got == parse("(~r3;~r1)+;r1;r2")
    report("C2 normalization golden")


def test_c3_nfa_sizes():
    with budget(5.0):
        nfa = compile_condition(parse("(~r3;~r1)+;(r1;r2+)+"))
        assert len(nfa.states) == 5
        assert len(nfa.transitions) == 7
        rng = random.Random(0xACCE55)
        for _ in range(1000):
            p = helpers.random_simple_condition(rng, ["a", "b", "c", "d"], 12)
            length, pluses = metrics(p)
            m = compile_condition(p)
            assert len(m.states) == length + 1, to_text(p)
            assert len(m.transitions) == length + pluses, to_text(p)
    report("C3 automaton size laws (golden + 1000 random)")


def test_c4_oracle_equivalence():
    with budget(60.0):
        rng = random.Random(0x02ACE)
        mismatches = 0
        for _ in range(200):
            g = helpers.random_graph(rng, max_nodes=12, n_relations=4, max_edges=30)
            nodes = sorted(g.nodes())
            labels = sorted(g.model.relations)
            for _ in range(20):
                p = helpers.random_simple_condition(rng, labels, 5, g.model.symmetric)
                nfa = compile_condition(p)
                _, table = satisfaction_table(g, p)
                for i, u in enumerate(nodes):
                    for j, v in enumerate(nodes):
                        got = matches(g, u, v, PathTarget(p), compiled=nfa)
                        if got != bool(table[i, j]):
                            mismatches += 1
        assert mismatches == 0
    report("C4 automata/oracle agreement on 200 graphs x 20 conditions, all pairs")


def test_c5_dag_policy_semantics():
    from test_policy import activation_dag

    expected = {
        (False, False): frozenset(),
        (True, False): frozenset({"p1"}),
        (False, True): frozenset({"p2", "p4"}),
        (True, True): frozenset({"p1", "p2", "p3", "p4"}),
    }
    for (phi1, phi2), want in expected.items():
        g, pmp = activation_dag(phi1, phi2)
        assert match_principals(g, pmp, "s", "o") == want
    report("C5 dag activation yields exactly the four possible sets")


def test_c6_separation_of_duty_simulation():
    with budget(30.0):
        # the walkthrough sequence first
        _, g, parsed = helpers.sod_example()
        ev = Evaluator(
            g, parsed.pmp, parsed.policy, parsed.defaults,
            HistoryConfig(decision_audit_enabled=True),
        )
        decisions = [ev.evaluate(Request(*q)).decision.value for q in helpers.SOD_SEQUENCE]
        assert decisions == helpers.SOD_DECISIONS
        audits = {(s, o, k.label) for s, o, k in g.typed_edges() if isinstance(k, DecisionAudit)}
        assert audits == helpers.SOD_FINAL_AUDITS

        rng = random.Random(0x50D)
        grid = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3, 4)]
        runs_per_cell = 42  # 12 cells x 42 = 504 interleavings
        violations = 0
        for n, k in grid:
            for _ in range(runs_per_cell):
                _, g, parsed = helpers.sod_example(n_actions=n, n_users=k)
                ev = Evaluator(
                    g, parsed.pmp, parsed.policy, parsed.defaults,
                    HistoryConfig(decision_audit_enabled=True),
                )
                allowed: dict[str, set[str]] = {}
                for _ in range(rng.randint(n, 3 * n)):
                    u = f"u{rng.randint(1, k)}"
                    a = f"a{rng.randint(1, n)}"
                    if ev.evaluate(Request(u, "o", a)).decision is Decision.ALLOW:
                        allowed.setdefault(u, set()).add(a)
                if any(len(acts) > 1 for acts in allowed.values()):
                    violations += 1
        assert violations == 0
    report("C6 separation-of-duty holds over 504 random interleavings")


def test_c7_chinese_wall_replay():
    _, g, parsed = helpers.wall_example()
    ev = Evaluator(
        g, parsed.pmp, parsed.policy, parsed.defaults,
        HistoryConfig(decision_audit_enabled=True, chinese_wall=parsed.chinese_wall),
    )
    decisions = [ev.evaluate(Request(*q)).decision.value for q in helpers.WALL_SEQUENCE]
    assert decisions == helpers.WALL_DECISIONS
    edges = {(s, o, k.label) for s, o, k in g.typed_edges() if not isinstance(k, Caching)}
    assert edges == helpers.WALL_FINAL_EDGES
    by_label: dict[str, int] = {}
    for _, _, label in edges:
        by_label[label] = by_label.get(label, 0) + 1
    assert by_label == {
        "@interest:active": 2,
        "@interest:blocked": 1,
        "@allow:read": 3,
        "@deny:read": 1,
    }
    report("C7 wall replay: allow,deny,allow,allow and the exact final edge set")


def _replay(builder, sequence, caching: bool):
    _, g, parsed = builder()
    ev = Evaluator(
        g, parsed.pmp, parsed.policy, parsed.defaults,
        HistoryConfig(
            caching_enabled=caching,
            decision_audit_enabled=True,
            chinese_wall=parsed.chinese_wall,
        ),
    )
    decisions = [ev.evaluate(Request(*q)).decision.value for q in sequence]
    return decisions, ev.stats.principal_computations


def test_c8_cache_transparency_and_effectiveness():
    course_seq = [(s, o, "read") for s, o, *_ in helpers.COURSE_EXPECTED]
    fixtures = [
        ("course-doubled", helpers.course_example, course_seq * 2, True),
        ("sod", helpers.sod_example, helpers.SOD_SEQUENCE, True),
        ("wall", helpers.wall_example, helpers.WALL_SEQUENCE, False),
    ]
    for name, builder, sequence, has_repeats in fixtures:
        on_decisions, on_computations = _replay(builder, sequence, caching=True)
        off_decisions, off_computations = _replay(builder, sequence, caching=False)
        assert on_decisions == off_decisions, name
        if has_repeats:
            assert on_computations < off_computations, name
    report("C8 caching transparent everywhere, fewer principal computations on repeats")


def test_c9_defaults_cascade():
    A, D = Decision.ALLOW, Decision.DENY
    full = DefaultTable(system_wide=D, per_subject={"s": A}, per_object={"o": D}, per_type={"t": A})
    cases = [
        # (table, stage, expected decision, expected level)
        (full, DefaultStage.NO_MATCHED_PRINCIPALS, A, "subject"),
        (full, DefaultStage.NO_EXPLICIT_AUTHORIZATIONS, D, "object"),
        (DefaultTable(system_wide=D, per_object={"o": A}, per_type={"t": D}),
         DefaultStage.NO_MATCHED_PRINCIPALS, A, "object"),
        (DefaultTable(system_wide=D, per_object={"o": A}, per_type={"t": D}),
         DefaultStage.NO_EXPLICIT_AUTHORIZATIONS, A, "object"),
        (DefaultTable(system_wide=D, per_type={"t": A}),
         DefaultStage.NO_MATCHED_PRINCIPALS, A, "type"),
        (DefaultTable(system_wide=D, per_type={"t": A}),
         DefaultStage.NO_EXPLICIT_AUTHORIZATIONS, A, "type"),
        (DefaultTable(system_wide=A), DefaultStage.NO_MATCHED_PRINCIPALS, A, "system"),
        (DefaultTable(system_wide=A), DefaultStage.NO_EXPLICIT_AUTHORIZATIONS, A, "system"),
    ]
    for table, stage, want, level in cases:
        got, got_level = table.resolve(stage, "s", "o", "t")
        assert (got, got_level) == (want, level), (stage, level)
    report("C9 default cascade: all stage/definedness orderings")


def _chain(n: int) -> SystemGraph:
    model = SystemModel(
        types=frozenset({"t"}),
        relations=frozenset({"r"}),
        permissible=frozenset({("t", "t", "r")}),
    )
    g = SystemGraph(model)
    for i in range(n):
        g.add_entity(f"v{i}", "t")
    for i in range(n - 1):
        g.add_relationship(f"v{i}", f"v{i+1}", "r")
    return g


def test_c10_complexity_smoke():
    with budget(30.0):
        nfa = compile_condition(parse("(r;r)+"))
        sizes = [100, 200, 400]
        visits = []
        for n in sizes:
            g = _chain(n)
            result = intersection_search(nfa, g, "v0", f"v{n - 2}")
            assert result.nonempty == ((n - 2) % 2 == 0)
            assert result.visits <= len(nfa.states) * n
            visits.append(result.visits)
        slope = np.polyfit(np.log(sizes), np.log(visits), 1)[0]
        assert slope <= 2.2, f"visit growth exponent {slope:.2f}"
    report(f"C10 product-state growth exponent within quadratic bound")
