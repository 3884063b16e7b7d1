from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import metrics, random_graph, random_raw_condition
from relac.errors import EmptyInputError, NotSimpleError, PathSyntaxError
from oracle import satisfaction_table
from relac.pathcond import (
    Concat,
    Edge,
    Empty,
    Plus,
    Reverse,
    base_labels,
    is_simple,
    lint,
    parse,
    simplify,
    to_text,
)


# --- parsing -------------------------------------------------------------------

def test_parse_rule_target():
    got = parse("is-ta-for ; ~is-coursework-for")
    assert got == Concat(Edge("is-ta-for"), Edge("is-coursework-for", reversed=True))


def test_parse_empty_condition():
    assert parse("<>") == Empty()


def test_parse_precedence():
    assert parse("~r+") == Plus(Edge("r", reversed=True))
    assert parse("a;b;c") == Concat(Edge("a"), Concat(Edge("b"), Edge("c")))
    assert parse("~(r1;r2)") == Reverse(Concat(Edge("r1"), Edge("r2")))
    assert parse("r++") == Plus(Plus(Edge("r")))
    assert parse("(a;b);c") == Concat(Concat(Edge("a"), Edge("b")), Edge("c"))


def test_parse_double_reversal_is_not_collapsed():
    assert parse("~~r1") == Reverse(Edge("r1", reversed=True))


def test_parse_empty_inside_sequence():
    assert parse("<> ; r1") == Concat(Empty(), Edge("r1"))


def test_parse_dangling_operator():
    with pytest.raises(PathSyntaxError) as err:
        parse("r1 ;")
    assert err.value.position is not None


def test_parse_blank_input():
    with pytest.raises(EmptyInputError):
        parse("   ")


def test_parse_reversed_empty_rejected():
    with pytest.raises(PathSyntaxError):
        parse("~<>")
    # The parenthesized form is legal and simplifies away.
    assert simplify(parse("~(<>)")) == Empty()


def test_parse_bad_character_reports_column():
    with pytest.raises(PathSyntaxError) as err:
        parse("r1 ; $")
    assert err.value.position == 5


def test_parse_unbalanced_parens():
    with pytest.raises(PathSyntaxError):
        parse("(r1;r2")
    with pytest.raises(PathSyntaxError):
        parse("r1)")


# --- simplification ----------------------------------------------------------------

def test_simplify_worked_example():
    got = simplify(parse("~( ~(r1;r2) ; (r1;r3)+ )"))
    assert got == parse("(~r3;~r1)+;r1;r2")


def test_simplify_double_reverse():
    assert simplify(parse("~~r1")) == parse("r1")


def test_simplify_symmetric_label():
    assert simplify(parse("~s"), symmetric={"s"}) == parse("s")
    assert simplify(parse("~s")) == Edge("s", reversed=True)


def test_simplify_empty_units():
    assert simplify(parse("<> ; r1")) == parse("r1")
    assert simplify(parse("r1 ; <>")) == parse("r1")
    assert simplify(parse("<> ; <>")) == Empty()


def test_simplify_reverse_of_concat():
    assert simplify(parse("~(r1;r2)")) == parse("~r2;~r1")


def test_simplify_reverse_of_plus():
    assert simplify(parse("~(r+)")) == parse("~r+")


def test_simplify_plus_collapse():
    assert simplify(parse("r++")) == parse("r+")
    assert simplify(parse("(r1;r2)++")) == parse("(r1;r2)+")


def test_simplify_plus_concat_canonical_order():
    assert simplify(parse("r+;r")) == parse("r;r+")
    assert simplify(parse("(a;b)+;a;b")) == parse("a;b;(a;b)+")
    # Already canonical stays put.
    assert simplify(parse("r;r+")) == parse("r;r+")


def test_simplify_output_is_simple():
    for text in ["~( ~(r1;r2) ; (r1;r3)+ )", "~((~(r1;r2+))+;(r1;r3)+)", "~~~r", "r++"]:
        assert is_simple(simplify(parse(text)))


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_simplify_idempotent(seed):
    rng = random.Random(seed)
    p = random_raw_condition(rng, ["r0", "r1", "r2"], 4)
    once = simplify(p, {"r2"})
    assert simplify(once, {"r2"}) == once
    assert is_simple(once)


def test_simplify_preserves_satisfaction_pointwise():
    # The normalizer must not change which node pairs satisfy the condition:
    # checked against the fixpoint oracle on random graphs.
    rng = random.Random(0xC0FFEE)
    for _ in range(60):
        g = random_graph(rng, max_nodes=10, n_relations=3, max_edges=18)
        labels = sorted(g.model.relations)
        p = random_raw_condition(rng, labels, 4)
        q = simplify(p, g.model.symmetric)
        _, before = satisfaction_table(g, p)
        _, after = satisfaction_table(g, q)
        assert (before == after).all(), f"{to_text(p)} vs {to_text(q)}"


# --- round trip -----------------------------------------------------------------

_labels = st.sampled_from(["r1", "r2", "is-ta-for", "@allow:read"])
_conditions = st.recursive(
    st.builds(Edge, _labels, st.booleans()) | st.just(Empty()),
    lambda inner: st.builds(Concat, inner, inner)
    | st.builds(Plus, inner)
    | st.builds(Reverse, inner),
    max_leaves=10,
)


@given(_conditions)
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(p):
    assert parse(to_text(p)) == p


# --- metrics -------------------------------------------------------------------

def test_metrics_golden():
    assert metrics(parse("(~r3;~r1)+;(r1;r2+)+")) == (4, 3)
    assert metrics(parse("r")) == (1, 0)
    assert metrics(parse("r1;r2")) == (2, 0)
    assert metrics(Empty()) == (0, 0)


def test_metrics_requires_simple_form():
    with pytest.raises(NotSimpleError):
        metrics(parse("~(r1;r2)"))
    with pytest.raises(NotSimpleError):
        metrics(parse("r++"))
    with pytest.raises(NotSimpleError):
        metrics(parse("r1;<>"))


def test_metrics_recurrences():
    a = parse("r1;r2+")
    b = parse("(~r3;r4)+")
    la, ka = metrics(a)
    lb, kb = metrics(b)
    assert metrics(Concat(a, b)) == (la + lb, ka + kb)
    assert metrics(Plus(Concat(a, b))) == (la + lb, ka + kb + 1)


# --- misc ----------------------------------------------------------------------

def test_base_labels():
    assert base_labels(parse("r1;~r2;(r1;r3)+")) == frozenset({"r1", "r2", "r3"})


def test_lint_flags_reversed_system_label():
    assert lint(parse("~@allow:read")) != []
    assert lint(parse("@allow:read")) == []
