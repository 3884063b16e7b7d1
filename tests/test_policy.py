from __future__ import annotations

import itertools
import random

import pytest

from helpers import apply_defaults, compute_authorizations
from relac.errors import MalformedDagError, PolicyError
from relac.fileformat import parse_policy
from relac.graph import SystemGraph, SystemModel
from relac.pathcond import ALL, NONE, PathTarget, parse
from relac.policy import (
    AuthRule,
    Crs,
    Decision,
    DefaultStage,
    DefaultTable,
    ExtendedAuthPolicy,
    NULL_PRINCIPAL,
    PmRule,
    Pmp,
    PmpShape,
    collect_decisions,
    match_principals,
    resolve_conflicts,
)

ALLOW, DENY = Decision.ALLOW, Decision.DENY


def tiny_graph(edges: dict[str, bool]) -> SystemGraph:
    """Two nodes s, o; edge labels from ``edges`` present when flagged."""
    labels = sorted(edges)
    model = SystemModel(
        types=frozenset({"t"}),
        relations=frozenset(labels),
        permissible=frozenset(("t", "t", l) for l in labels),
    )
    g = SystemGraph(model)
    g.add_entity("s", "t")
    g.add_entity("o", "t")
    for label, present in edges.items():
        if present:
            g.add_relationship("s", "o", label)
    return g


# --- principal matching: set shape ------------------------------------------------

def test_course_example_matched_sets(course):
    _, g, parsed = course
    expected = {
        ("u1", "a1"): frozenset(),
        ("u1", "a2"): frozenset({"author"}),
        ("u1", "a3"): frozenset({"course-ta"}),
        ("u2", "a1"): frozenset({"course-leader"}),
        ("u2", "a2"): frozenset({"course-leader"}),
        ("u2", "a3"): frozenset(),
    }
    for (s, o), want in expected.items():
        assert match_principals(g, parsed.pmp, s, o) == want


def test_set_shape_is_order_insensitive(course):
    _, g, parsed = course
    rules = list(parsed.pmp.rules)
    rng = random.Random(5)
    for _ in range(5):
        rng.shuffle(rules)
        pmp = Pmp(PmpShape.SET, rules)
        for s, o in [("u1", "a2"), ("u2", "a1"), ("u1", "a3")]:
            assert match_principals(g, pmp, s, o) == match_principals(
                g, parsed.pmp, s, o
            )


def test_default_rule_matches_everything():
    g = tiny_graph({"r": False})
    pmp = Pmp(PmpShape.SET, [PmRule(ALL, NONE, "world")])
    assert match_principals(g, pmp, "s", "o") == frozenset({"world"})


def test_duplicate_principals_collapse():
    g = tiny_graph({"r": True, "q": True})
    pmp = Pmp(
        PmpShape.SET,
        [
            PmRule(PathTarget(parse("r")), NONE, "p"),
            PmRule(PathTarget(parse("q")), NONE, "p"),
        ],
    )
    assert match_principals(g, pmp, "s", "o") == frozenset({"p"})


def test_empty_condition_target_is_an_identity_test(course):
    """``<>`` loads as a mandated and as a precluded target and holds
    exactly when subject and object are one node."""
    model, g, _ = course
    pmp = parse_policy(
        "rule self : <> ! none\nrule other : all ! <>\n"
        "auth self * read allow\ndefault system deny\n",
        model,
    ).pmp
    trace: list[str] = []
    assert match_principals(g, pmp, "u1", "u1", trace=trace) == frozenset({"self"})
    assert trace == [
        "rule self: <> ! none -> applicable",
        "rule other: all ! <> -> precluded",
    ]
    trace = []
    assert match_principals(g, pmp, "u1", "c2", trace=trace) == frozenset({"other"})
    assert trace == [
        "rule self: <> ! none -> not matched",
        "rule other: all ! <> -> applicable",
    ]


def test_fingerprint_names_shape_rules_and_dag_edges():
    rules = [PmRule(ALL, NONE, "a"), PmRule(PathTarget(parse("r")), NONE, "b"),
             PmRule(PathTarget(parse("q")), NONE, "c")]
    base = Pmp(PmpShape.DAG, rules, [(0, 1), (0, 2)])
    assert Pmp(PmpShape.DAG, list(rules), [(0, 1), (0, 2)]).fingerprint == base.fingerprint
    assert len(base.fingerprint) == 64
    variants = [
        Pmp(PmpShape.DAG, rules, [(0, 1), (1, 2)]),
        Pmp(PmpShape.SET, rules),
        Pmp(PmpShape.DAG, rules[:2] + [PmRule(PathTarget(parse("q")), ALL, "c")], [(0, 1), (0, 2)]),
        Pmp(PmpShape.DAG, rules[:2] + [PmRule(PathTarget(parse("q")), NONE, "d")], [(0, 1), (0, 2)]),
    ]
    fingerprints = {base.fingerprint, *(v.fingerprint for v in variants)}
    assert len(fingerprints) == 1 + len(variants)


# --- list shape ------------------------------------------------------------------

def test_list_shape_takes_first_applicable():
    g = tiny_graph({"r": True, "q": True})
    pmp = Pmp(
        PmpShape.LIST,
        [
            PmRule(PathTarget(parse("q")), NONE, "first"),
            PmRule(PathTarget(parse("r")), NONE, "second"),
            PmRule(ALL, NONE, "world"),
        ],
    )
    assert match_principals(g, pmp, "s", "o") == frozenset({"first"})


def test_list_shape_empty_when_nothing_applies():
    g = tiny_graph({"r": False})
    pmp = Pmp(PmpShape.LIST, [PmRule(PathTarget(parse("r")), NONE, "p")])
    assert match_principals(g, pmp, "s", "o") == frozenset()


def test_list_default_rule_must_be_last():
    with pytest.raises(PolicyError):
        Pmp(
            PmpShape.LIST,
            [
                PmRule(ALL, NONE, "world"),
                PmRule(PathTarget(parse("r")), NONE, "p"),
            ],
        )


def test_list_result_is_subset_of_set_result():
    rng = random.Random(13)
    labels = ["r", "q", "z"]
    for _ in range(30):
        g = tiny_graph({l: rng.random() < 0.5 for l in labels})
        rules = [
            PmRule(PathTarget(parse(rng.choice(labels))), NONE, f"p{i}")
            for i in range(4)
        ]
        as_list = match_principals(g, Pmp(PmpShape.LIST, rules), "s", "o")
        as_set = match_principals(g, Pmp(PmpShape.SET, rules), "s", "o")
        assert as_list <= as_set


# --- dag shape --------------------------------------------------------------------

def activation_dag(phi1: bool, phi2: bool):
    """The conjunction/activation example: p3 needs both branches, p4 rides
    on the second one."""
    g = tiny_graph({"e1": phi1, "e2": phi2})
    rules = [
        PmRule(ALL, NONE, NULL_PRINCIPAL),
        PmRule(PathTarget(parse("e1")), NONE, "p1"),
        PmRule(PathTarget(parse("e2")), NONE, "p2"),
        PmRule(ALL, NONE, "p3"),
        PmRule(ALL, NONE, "p4"),
    ]
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)]
    return g, Pmp(PmpShape.DAG, rules, edges)


@pytest.mark.parametrize(
    "phi1,phi2,expected",
    [
        (False, False, frozenset()),
        (True, False, frozenset({"p1"})),
        (False, True, frozenset({"p2", "p4"})),
        (True, True, frozenset({"p1", "p2", "p3", "p4"})),
    ],
)
def test_dag_activation_combinations(phi1, phi2, expected):
    g, pmp = activation_dag(phi1, phi2)
    assert match_principals(g, pmp, "s", "o") == expected


def test_dag_requires_unique_root():
    rules = [PmRule(ALL, NONE, "a"), PmRule(ALL, NONE, "b")]
    with pytest.raises(MalformedDagError):
        Pmp(PmpShape.DAG, rules, [])


def test_dag_rejects_cycles():
    rules = [PmRule(ALL, NONE, "a"), PmRule(ALL, NONE, "b"), PmRule(ALL, NONE, "c")]
    with pytest.raises(MalformedDagError):
        Pmp(PmpShape.DAG, rules, [(0, 1), (1, 2), (2, 1)])


def test_null_principal_restricted_to_dags():
    with pytest.raises(PolicyError):
        Pmp(PmpShape.SET, [PmRule(ALL, NONE, NULL_PRINCIPAL)])
    with pytest.raises(PolicyError):
        AuthRule(NULL_PRINCIPAL, "*", "*", ALLOW)


def test_dag_against_path_enumeration_oracle():
    # Exhaustive: random DAG structures up to 6 rules, every applicability
    # assignment; a rule contributes iff it is applicable and every strict
    # ancestor on every root path is applicable.
    rng = random.Random(99)
    g = tiny_graph({"e": True})
    for _ in range(40):
        n = rng.randint(2, 6)
        parents = {i: sorted(rng.sample(range(i), rng.randint(1, i))) for i in range(1, n)}
        edges = [(p, i) for i, ps in parents.items() for p in ps]
        for flags in itertools.product([True, False], repeat=n):
            rules = [
                PmRule(ALL if flag else NONE, NONE, f"p{i}")
                for i, flag in enumerate(flags)
            ]
            pmp = Pmp(PmpShape.DAG, rules, edges)
            got = match_principals(g, pmp, "s", "o")

            def every_path_ok(i: int) -> bool:
                if i == 0:
                    return True
                return all(flags[p] and every_path_ok(p) for p in parents[i])

            want = frozenset(
                f"p{i}" for i in range(n) if flags[i] and every_path_ok(i)
            )
            assert got == want


# --- authorization ----------------------------------------------------------------

def auth(*rules, crs=Crs.DENY_OVERRIDES):
    return ExtendedAuthPolicy(tuple(rules), crs)


def test_course_example_authorizations(course):
    _, _, parsed = course
    got = compute_authorizations("a3", "coursework", "read", parsed.policy, frozenset({"course-ta"}))
    assert got == frozenset({ALLOW})


def test_wildcard_with_carve_out_denies():
    pol = auth(
        AuthRule("p", "o", "*", ALLOW),
        AuthRule("p", "o", "a", DENY),
    )
    assert compute_authorizations("o", "t", "a", pol, frozenset({"p"})) == frozenset({DENY})
    assert compute_authorizations("o", "t", "b", pol, frozenset({"p"})) == frozenset({ALLOW})


def test_type_scoped_rule():
    pol = auth(AuthRule("p", "coursework", "read", ALLOW))
    assert compute_authorizations("a1", "coursework", "read", pol, frozenset({"p"})) == frozenset({ALLOW})
    assert compute_authorizations("c1", "course", "read", pol, frozenset({"p"})) == frozenset()


def test_vacuous_when_no_rule_mentions_principal():
    pol = auth(AuthRule("q", "*", "*", ALLOW))
    assert compute_authorizations("o", "t", "a", pol, frozenset({"p"})) == frozenset()


def test_first_applicable_takes_rule_order():
    pol = auth(
        AuthRule("p", "o", "a", DENY),
        AuthRule("p", "*", "*", ALLOW),
        crs=Crs.FIRST_APPLICABLE,
    )
    assert compute_authorizations("o", "t", "a", pol, frozenset({"p"})) == frozenset({DENY})
    assert compute_authorizations("o", "t", "b", pol, frozenset({"p"})) == frozenset({ALLOW})


def test_crs_algebra_random():
    rng = random.Random(4)
    for _ in range(200):
        raw = [rng.choice([ALLOW, DENY]) for _ in range(rng.randint(0, 5))]
        deny_red = resolve_conflicts(Crs.DENY_OVERRIDES, raw)
        allow_red = resolve_conflicts(Crs.ALLOW_OVERRIDES, raw)
        if not raw:
            assert deny_red == allow_red == frozenset()
            continue
        assert (deny_red == frozenset({DENY})) == (DENY in raw)
        assert (allow_red == frozenset({ALLOW})) == (ALLOW in raw)


def test_collect_decisions_preserves_order():
    pol = auth(
        AuthRule("p", "o", "a", DENY),
        AuthRule("q", "o", "a", ALLOW),
        AuthRule("p", "*", "*", ALLOW),
    )
    got = collect_decisions("o", "t", "a", pol, frozenset({"p", "q"}))
    assert got == (DENY, ALLOW, ALLOW)


# --- defaults ------------------------------------------------------------------------

def test_defaults_only_system_wide():
    table = DefaultTable(system_wide=DENY)
    for stage in DefaultStage:
        assert apply_defaults(table, stage, subject="s", obj="o", obj_type="t") is DENY


def test_defaults_subject_level_only_at_principal_stage():
    table = DefaultTable(system_wide=DENY, per_subject={"s": ALLOW})
    assert (
        apply_defaults(table, DefaultStage.NO_MATCHED_PRINCIPALS, subject="s", obj="o", obj_type="t")
        is ALLOW
    )
    assert (
        apply_defaults(table, DefaultStage.NO_EXPLICIT_AUTHORIZATIONS, subject="s", obj="o", obj_type="t")
        is DENY
    )


@pytest.mark.parametrize("stage", list(DefaultStage))
def test_defaults_cascade_order(stage):
    subject_visible = stage is DefaultStage.NO_MATCHED_PRINCIPALS
    full = DefaultTable(
        system_wide=DENY,
        per_subject={"s": ALLOW},
        per_object={"o": DENY},
        per_type={"t": ALLOW},
    )
    got, level = full.resolve(stage, "s", "o", "t")
    assert (got, level) == ((ALLOW, "subject") if subject_visible else (DENY, "object"))

    no_subject = DefaultTable(system_wide=DENY, per_object={"o": ALLOW}, per_type={"t": DENY})
    assert no_subject.resolve(stage, "s", "o", "t") == (ALLOW, "object")

    type_only = DefaultTable(system_wide=DENY, per_type={"t": ALLOW})
    assert type_only.resolve(stage, "s", "o", "t") == (ALLOW, "type")

    bare = DefaultTable(system_wide=ALLOW)
    assert bare.resolve(stage, "s", "o", "t") == (ALLOW, "system")
