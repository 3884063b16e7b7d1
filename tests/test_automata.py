from __future__ import annotations

import random

import pytest

from helpers import (
    graph_accepts,
    metrics,
    nfa_accepts,
    random_graph,
    random_simple_condition,
)
from relac.automata import (
    SearchStats,
    compile_condition,
    intersection_search,
    match_detail,
    matches,
    reachable_accepting,
)
from relac.engine import Evaluator, Request
from relac.errors import EmptyPathConditionError, NotSimpleError, UnknownNodeError
from relac.graph import (
    INTEREST_ACTIVE,
    INTEREST_BLOCKED,
    DecisionAudit,
    InterestAudit,
    SystemGraph,
    SystemModel,
    allow_label,
)
from oracle import satisfaction_table
from relac.pathcond import ALL, NONE, Empty, PathTarget, parse, to_text
from relac.policy import Pmp, PmpShape, match_principals


# --- compilation ----------------------------------------------------------------

def test_compile_single_edge():
    nfa = compile_condition(parse("r"))
    assert nfa.states == frozenset({0, 1})
    assert nfa.transitions == ((0, 1, "r"),)
    assert nfa.start == 0 and nfa.accepting == frozenset({1})


def test_compile_single_edge_plus_self_loop():
    nfa = compile_condition(parse("r+"))
    assert len(nfa.states) == 2
    assert set(nfa.transitions) == {(0, 1, "r"), (1, 1, "r")}


def test_compile_nested_plus_concat_golden():
    # length 4, three pluses: 5 states, 7 transitions, exactly this shape.
    nfa = compile_condition(parse("(~r3;~r1)+;(r1;r2+)+"))
    assert len(nfa.states) == 5
    assert set(nfa.transitions) == {
        (0, 1, "~r3"),
        (1, 2, "~r1"),
        (2, 1, "~r3"),
        (2, 3, "r1"),
        (3, 4, "r2"),
        (4, 3, "r1"),
        (4, 4, "r2"),
    }


def test_compiled_structure_invariants():
    rng = random.Random(11)
    for _ in range(200):
        p = random_simple_condition(rng, ["a", "b", "c"], 8)
        nfa = compile_condition(p)
        length, pluses = metrics(p)
        assert len(nfa.states) == length + 1, to_text(p)
        assert len(nfa.transitions) == length + pluses, to_text(p)
        assert len(nfa.accepting) == 1
        assert sum(1 for q, _, _ in nfa.transitions if q == nfa.start) == 1
        assert nfa.start not in nfa.accepting


def test_compile_rejects_empty_and_non_simple():
    with pytest.raises(EmptyPathConditionError):
        compile_condition(Empty())
    with pytest.raises(NotSimpleError):
        compile_condition(parse("~(r1;r2)"))
    with pytest.raises(NotSimpleError):
        compile_condition(parse("r++"))


def test_compiled_language_probes():
    nfa = compile_condition(parse("(~r3;~r1)+;(r1;r2+)+"))
    assert nfa_accepts(nfa, ["~r3", "~r1", "r1", "r2"])
    assert nfa_accepts(nfa, ["~r3", "~r1", "~r3", "~r1", "r1", "r2", "r2"])
    assert nfa_accepts(nfa, ["~r3", "~r1", "r1", "r2", "r1", "r2"])
    assert not nfa_accepts(nfa, ["r1", "r2"])
    assert not nfa_accepts(nfa, ["~r3", "~r1"])
    assert not nfa_accepts(nfa, [])


# --- the graph as an automaton -----------------------------------------------------

def test_graph_nfa_accepts_edge_word(course):
    _, g, _ = course
    assert graph_accepts(g, "u1", "a2", ["is-creator-of"])
    assert not graph_accepts(g, "u1", "a2", ["is-enrolled-on"])
    assert graph_accepts(g, "u1", "u1", [])


def test_graph_nfa_unknown_node(course):
    _, g, _ = course
    nfa = compile_condition(parse("is-creator-of"))
    with pytest.raises(UnknownNodeError):
        intersection_search(nfa, g, "ghost", "a2")
    with pytest.raises(UnknownNodeError):
        intersection_search(nfa, g, "u1", "ghost")


def _entries(g, parsed) -> dict:
    """Every public entry that takes a subject and an object, as a function
    of the two."""
    creator = parse("is-creator-of")
    nfa = compile_condition(creator)
    evaluator = Evaluator(g, parsed.pmp, parsed.policy, parsed.defaults)
    return {
        "match_detail": lambda s, o: match_detail(g, s, o, creator),
        "matches": lambda s, o: matches(g, s, o, creator),
        "matches-all": lambda s, o: matches(g, s, o, ALL),
        "matches-none": lambda s, o: matches(g, s, o, NONE),
        "matches-empty": lambda s, o: matches(g, s, o, PathTarget(Empty())),
        "intersection_search": lambda s, o: intersection_search(nfa, g, s, o),
        # A sweep has no object: only its start can be unknown.
        "reachable_accepting": lambda s, o: reachable_accepting(nfa, g, "ghost"),
        "match_principals": lambda s, o: match_principals(g, parsed.pmp, s, o),
        "match_principals-no-rules": lambda s, o: match_principals(
            g, Pmp(PmpShape.SET, []), s, o
        ),
        "evaluate": lambda s, o: evaluator.evaluate(Request(s, o, "read")),
    }


@pytest.mark.parametrize("side", ["subject", "object"])
@pytest.mark.parametrize("entry", [
    "match_detail", "matches", "matches-all", "matches-none", "matches-empty",
    "intersection_search", "reachable_accepting", "match_principals",
    "match_principals-no-rules", "evaluate",
])
def test_unknown_node_raises_from_every_entry(course, entry, side):
    _, g, parsed = course
    s, o = ("ghost", "a2") if side == "subject" else ("u1", "ghost")
    with pytest.raises(UnknownNodeError):
        _entries(g, parsed)[entry](s, o)


# --- intersection ---------------------------------------------------------------

def test_intersection_examples(course):
    _, g, _ = course
    creator = compile_condition(parse("is-creator-of"))
    assert not intersection_search(creator, g, "u1", "a1").nonempty
    assert intersection_search(creator, g, "u1", "a2").nonempty


def test_intersection_unreachable_accepting_state():
    # The object exists but no path leads to it: the search runs out.
    model = SystemModel(
        types=frozenset({"t"}),
        relations=frozenset({"r"}),
        permissible=frozenset({("t", "t", "r")}),
    )
    g = SystemGraph(model)
    for v in ("a", "b", "stranded"):
        g.add_entity(v, "t")
    g.add_relationship("a", "b", "r")
    g.add_relationship("b", "a", "r")
    g.add_relationship("stranded", "a", "r")
    nfa = compile_condition(parse("r+"))
    result = intersection_search(nfa, g, "a", "stranded", want_witness=True)
    assert result == (False, 3, None)
    assert reachable_accepting(nfa, g, "a") == {"a", "b"}


def test_intersection_witness_and_visit_bound(course):
    _, g, _ = course
    pc = compile_condition(parse("is-ta-for;~is-coursework-for"))
    result = intersection_search(pc, g, "u1", "a3", want_witness=True)
    assert result.nonempty
    assert result.witness == ("is-ta-for", "~is-coursework-for")
    assert result.visits <= len(pc.states) * len(g)


def test_intersection_visit_bound_random():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, max_nodes=10, n_relations=3, max_edges=20)
        p = random_simple_condition(rng, sorted(g.model.relations), 4)
        nfa = compile_condition(p)
        nodes = sorted(g.nodes())
        s, o = rng.choice(nodes), rng.choice(nodes)
        result = intersection_search(nfa, g, s, o)
        assert result.visits <= len(nfa.states) * len(g)


def _star(k: int) -> SystemGraph:
    """User u in group grp, which owns docs d0..d{k-1}; doc loose is unowned."""
    model = SystemModel(
        types=frozenset({"user", "group", "doc"}),
        relations=frozenset({"member", "owns"}),
        permissible=frozenset({("user", "group", "member"), ("group", "doc", "owns")}),
    )
    g = SystemGraph(model)
    g.add_entity("u", "user")
    g.add_entity("grp", "group")
    g.add_entity("loose", "doc")
    g.add_relationship("u", "grp", "member")
    for i in range(k):
        g.add_entity(f"d{i}", "doc")
        g.add_relationship("grp", f"d{i}", "owns")
    return g


def test_dead_final_state_is_never_expanded():
    # The last step of member;owns is one membership test on owns(grp), so
    # the visits do not grow with the number of docs the group owns.
    nfa = compile_condition(parse("member;owns"))
    live = len({q for q, _, _ in nfa.transitions})  # states with an outgoing arc

    def visits(k: int) -> tuple[int, ...]:
        g = _star(k)
        hit = intersection_search(nfa, g, "u", f"d{k - 1}")
        miss = intersection_search(nfa, g, "u", "loose")
        assert hit.nonempty and not miss.nonempty
        for result in (hit, miss):
            assert result.visits <= live * len(g) + 1
        sweep = SearchStats()
        assert reachable_accepting(nfa, g, "u", stats=sweep) == {f"d{i}" for i in range(k)}
        return hit.visits, miss.visits, sweep.product_visits

    assert visits(10) == visits(1000)


def test_search_stats_accumulate(course):
    _, g, _ = course
    stats = SearchStats()
    pc = compile_condition(parse("is-creator-of"))
    intersection_search(pc, g, "u1", "a2", stats=stats)
    intersection_search(pc, g, "u1", "a1", stats=stats)
    assert stats.searches == 2
    assert stats.product_visits > 0


# --- matches -------------------------------------------------------------------

def test_matches_special_targets(course):
    _, g, _ = course
    assert matches(g, "u1", "a1", ALL)
    assert not matches(g, "u1", "a2", NONE)
    assert matches(g, "u1", "u1", PathTarget(Empty()))
    assert not matches(g, "u1", "a1", PathTarget(Empty()))
    assert matches(g, "u1", "a3", parse("is-ta-for;~is-coursework-for"))


def test_matches_handles_cycles():
    # revisiting nodes must terminate and answer correctly
    from relac.graph import SystemGraph, SystemModel

    model = SystemModel(
        types=frozenset({"t"}),
        relations=frozenset({"r"}),
        permissible=frozenset({("t", "t", "r")}),
    )
    g = SystemGraph(model)
    for v in ("a", "b", "c"):
        g.add_entity(v, "t")
    g.add_relationship("a", "b", "r")
    g.add_relationship("b", "c", "r")
    g.add_relationship("c", "a", "r")
    assert matches(g, "a", "a", parse("r+"))
    assert matches(g, "a", "c", parse("(r;r)+"))
    assert not matches(g, "a", "b", parse("(r;r;r)+"))


def test_matches_agrees_with_oracle_random():
    # History edges and @-labelled (also reversed) steps are traversed like
    # relations; conditions ending in + keep a live accepting state.
    rng = random.Random(0xFEED)
    history = [allow_label("a"), allow_label("b"), INTEREST_ACTIVE, INTEREST_BLOCKED]
    for _ in range(40):
        g = random_graph(rng, max_nodes=9, n_relations=3, max_edges=16)
        nodes = sorted(g.nodes())
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(
                [DecisionAudit(rng.choice("ab"), allowed=True), InterestAudit(rng.random() < 0.5)]
            )
            g.record_typed_edge(rng.choice(nodes), rng.choice(nodes), kind)
        for _ in range(8):
            p = random_simple_condition(
                rng, sorted(g.model.relations) + history, 4, g.model.symmetric
            )
            nfa = compile_condition(p)
            _, table = satisfaction_table(g, p)
            for i, u in enumerate(nodes):
                for j, v in enumerate(nodes):
                    got, witness = match_detail(
                        g, u, v, PathTarget(p), compiled=nfa, want_witness=True
                    )
                    assert got == bool(table[i, j]), (to_text(p), u, v)
                    assert matches(g, u, v, PathTarget(p), compiled=nfa) == got
                    if got:
                        assert nfa_accepts(nfa, witness), (to_text(p), u, v, witness)
                        assert graph_accepts(g, u, v, witness), (to_text(p), u, v, witness)
                reached = reachable_accepting(nfa, g, u)
                assert reached == {v for j, v in enumerate(nodes) if table[i, j]}, to_text(p)


def test_reachable_accepting(course):
    _, g, _ = course
    nfa = compile_condition(parse("is-ta-for;~is-coursework-for"))
    assert reachable_accepting(nfa, g, "u1") == {"a3"}
    nfa2 = compile_condition(parse("~is-coursework-for"))
    assert reachable_accepting(nfa2, g, "c1") == {"a1", "a2"}
