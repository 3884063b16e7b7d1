from __future__ import annotations

import numpy as np
import pytest

from relac.errors import UnknownNodeError
from relac.graph import SystemGraph, SystemModel
from oracle import oracle_satisfies, satisfaction_table
from relac.pathcond import parse


def chain(n: int, label: str = "r") -> SystemGraph:
    model = SystemModel(
        types=frozenset({"t"}),
        relations=frozenset({label}),
        permissible=frozenset({("t", "t", label)}),
    )
    g = SystemGraph(model)
    for i in range(n):
        g.add_entity(f"v{i}", "t")
    for i in range(n - 1):
        g.add_relationship(f"v{i}", f"v{i+1}", label)
    return g


def test_empty_condition_is_the_diagonal():
    g = chain(4)
    for v in g.nodes():
        assert oracle_satisfies(g, v, v, parse("<>"))
    assert not oracle_satisfies(g, "v0", "v1", parse("<>"))


def test_edge_conditions_forward_and_reverse():
    g = chain(3)
    assert oracle_satisfies(g, "v0", "v1", parse("r"))
    assert not oracle_satisfies(g, "v1", "v0", parse("r"))
    assert oracle_satisfies(g, "v1", "v0", parse("~r"))


def test_plus_equals_transitive_closure_by_power_iteration():
    g = chain(5)
    _, step = satisfaction_table(g, parse("r"))
    _, closed = satisfaction_table(g, parse("r+"))
    expected = np.zeros_like(step)
    power = step.copy()
    for _ in range(len(step)):
        expected |= power
        power = power @ step
    assert (closed == expected).all()


def test_plus_is_reachability_on_cycles():
    g = chain(3)
    g.add_relationship("v2", "v0", "r")  # close the loop
    p = parse("r+")
    for u in g.nodes():
        for v in g.nodes():
            assert oracle_satisfies(g, u, v, p)  # everything reaches everything


def test_course_fixture_paths(course):
    _, g, _ = course
    assert oracle_satisfies(g, "u1", "a3", parse("is-ta-for;~is-coursework-for"))
    assert not oracle_satisfies(g, "u1", "a1", parse("is-ta-for;~is-coursework-for"))
    assert oracle_satisfies(g, "u1", "a2", parse("is-creator-of"))


def test_accepts_non_simple_input(course):
    _, g, _ = course
    # reversal over a concatenation, no pre-normalization
    assert oracle_satisfies(g, "a3", "u1", parse("~(is-ta-for;~is-coursework-for)"))


def test_unknown_node():
    g = chain(2)
    with pytest.raises(UnknownNodeError):
        oracle_satisfies(g, "v0", "ghost", parse("r"))
