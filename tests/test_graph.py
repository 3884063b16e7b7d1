from __future__ import annotations

import random
import sys

import pytest

from helpers import random_graph, reference_permits, relationship_edges
from relac.errors import (
    DuplicateEntityError,
    FrozenRelationError,
    ModelError,
    RelacError,
    SchemaViolationError,
    UnknownNodeError,
    UnknownRelationError,
    UnknownTypeError,
)
from relac.graph import (
    Caching,
    DecisionAudit,
    InterestAudit,
    SystemGraph,
    SystemModel,
    allow_label,
    kind_from_label,
    reverse_label,
)


def simple_model(**kwargs) -> SystemModel:
    base = dict(
        types=frozenset({"user", "doc"}),
        relations=frozenset({"owns", "knows"}),
        symmetric=frozenset({"knows"}),
        permissible=frozenset(
            {("user", "doc", "owns"), ("user", "user", "knows")}
        ),
    )
    base.update(kwargs)
    return SystemModel(**base)


# --- model ---------------------------------------------------------------------

def test_model_rejects_undeclared_symmetric():
    with pytest.raises(ModelError):
        simple_model(symmetric=frozenset({"likes"}))


def test_model_rejects_dangling_permissible():
    with pytest.raises(UnknownTypeError):
        simple_model(permissible=frozenset({("ghost", "doc", "owns")}))
    with pytest.raises(UnknownRelationError):
        simple_model(permissible=frozenset({("user", "doc", "ghost")}))


def test_permits_equals_the_recursive_reference():
    """On random models with symmetric relations, ``permits`` answers every
    (from-type, to-type, label) for ``r`` and ``~r`` as the recursive
    reference does."""
    rng = random.Random(8)
    answers = set()
    for _ in range(200):
        types = [f"t{i}" for i in range(rng.randint(1, 4))]
        relations = [f"r{i}" for i in range(rng.randint(1, 4))]
        model = SystemModel(
            types=frozenset(types),
            relations=frozenset(relations),
            symmetric=frozenset(r for r in relations if rng.random() < 0.5),
            permissible=frozenset(
                (rng.choice(types), rng.choice(types), rng.choice(relations))
                for _ in range(rng.randint(0, 8))
            ),
        )
        for tf in types:
            for tt in types:
                for r in relations:
                    for label in (r, reverse_label(r)):
                        want = reference_permits(model, tf, tt, label)
                        assert model.permits(tf, tt, label) == want, (model, tf, tt, label)
                        answers.add(want)
    assert answers == {True, False}


def test_model_permits_reverse_and_symmetric_views():
    m = simple_model()
    assert m.permits("user", "doc", "owns")
    assert m.permits("doc", "user", "~owns")
    assert not m.permits("doc", "user", "owns")
    assert m.permits("user", "user", "knows")
    # symmetric: both orders allowed even though one triple is stored
    assert m.permits("user", "user", "~knows")


# --- entities and relationship edges ------------------------------------------------

def test_add_entity_and_errors():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    assert "u1" in g and g.node_type("u1") == "user"
    with pytest.raises(UnknownTypeError):
        g.add_entity("x", "robot")
    with pytest.raises(DuplicateEntityError):
        g.add_entity("u1", "user")


def test_add_entity_rejects_exactly_the_ids_with_whitespace():
    g = SystemGraph(simple_model())
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert {"\t", "\n", "\u3000"} <= set(spaces)
    for ch in spaces:
        for node in (ch, f"a{ch}b", f"{ch}a", f"a{ch}"):
            with pytest.raises(ModelError):
                g.add_entity(node, "user")
    # ``#`` starts a comment anywhere on a graph-file line
    for node in ("", "@u", "#u", "~u", "u#1", "u#"):
        with pytest.raises(ModelError):
            g.add_entity(node, "user")
    assert len(g) == 0 and g.epoch == 0
    # characters next to the whitespace ranges are ordinary id characters
    for node in ("a\x08b", "a\x0eb", "a\u200bb", "a\u3001b"):
        g.add_entity(node, "user")
    assert len(g) == 4


def test_add_relationship_and_schema_check():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    g.add_relationship("u1", "d1", "owns")
    assert g.neighbors("u1", "owns") == {"d1"}
    with pytest.raises(SchemaViolationError):
        g.add_relationship("d1", "u1", "owns")
    with pytest.raises(UnknownRelationError):
        g.add_relationship("u1", "d1", "likes")
    with pytest.raises(UnknownNodeError):
        g.add_relationship("u1", "ghost", "owns")


def test_add_relationship_rejects_system_and_reverse_labels():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    with pytest.raises(UnknownRelationError):
        g.add_relationship("u1", "d1", "@allow:read")
    with pytest.raises(UnknownRelationError):
        g.add_relationship("d1", "u1", "~owns")


def test_duplicate_edges_are_idempotent_without_epoch_bump():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("u2", "user")
    assert g.add_relationship("u1", "u2", "knows") is True
    before = g.epoch
    assert g.add_relationship("u1", "u2", "knows") is False
    assert g.add_relationship("u2", "u1", "knows") is False  # symmetric flip
    assert g.epoch == before
    # first stored in reversed orientation: the other one is the duplicate,
    # and the edge enumerates once, in one fixed orientation
    g.add_entity("u0", "user")
    assert g.add_relationship("u1", "u0", "knows") is True
    assert g.add_relationship("u0", "u1", "knows") is False
    assert sorted(relationship_edges(g)) == [("u0", "u1", "knows"), ("u1", "u2", "knows")]


def test_epoch_counts_effective_mutations():
    g = SystemGraph(simple_model())
    start = g.epoch
    g.add_entity("u1", "user")
    g.add_entity("u2", "user")
    g.add_relationship("u1", "u2", "knows")
    assert g.epoch == start + 3


# --- traversal -------------------------------------------------------------------

def test_neighbors_reverse_and_symmetric(course):
    _, g, _ = course
    assert g.neighbors("u1", "is-enrolled-on") == {"c1"}
    assert g.neighbors("c1", "~is-coursework-for") == {"a1", "a2"}
    assert g.neighbors("c2", "~is-coursework-for") == {"a3"}


def test_neighbors_isolated_and_unknown():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    assert g.neighbors("u1", "owns") == set()
    assert g.neighbors("u1", "undeclared") == set()
    with pytest.raises(UnknownNodeError):
        g.neighbors("ghost", "owns")


def test_symmetric_edges_traverse_both_ways():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("u2", "user")
    g.add_relationship("u1", "u2", "knows")
    assert g.neighbors("u2", "knows") == {"u1"}
    assert g.neighbors("u2", "~knows") == {"u1"}
    assert g.neighbors("u1", "knows") == g.neighbors("u1", "~knows") == {"u2"}


def test_reverse_view_invariant_random():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng)
        for v, w, label in relationship_edges(g):
            assert w in g.neighbors(v, label)
            assert v in g.neighbors(w, reverse_label(label))
            if label in g.model.symmetric:
                assert v in g.neighbors(w, label)
        for v in g.nodes():
            for label in g.model.symmetric:
                assert g.neighbors(v, label) == g.neighbors(v, reverse_label(label))


def test_neighbors_covers_every_reverse_view(course):
    _, g, _ = course
    assert g.neighbors("c1", "~is-enrolled-on") == {"u1"}
    assert g.neighbors("c1", "~is-coursework-for") == {"a1", "a2"}
    assert g.neighbors("c1", "~is-responsible-for") == {"u2"}


# --- typed edges -----------------------------------------------------------------

def test_record_typed_edge_dedup_and_errors():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    kind = DecisionAudit("grade", allowed=True)
    assert g.record_typed_edge("u1", "d1", kind) is True
    assert g.record_typed_edge("u1", "d1", kind) is False
    assert g.neighbors("u1", allow_label("grade")) == {"d1"}
    assert g.neighbors("d1", reverse_label(allow_label("grade"))) == {"u1"}
    with pytest.raises(UnknownNodeError):
        g.record_typed_edge("u1", "ghost", kind)


def typed_edge_set(g: SystemGraph):
    return {(v, w, k) for v, w, k in g.typed_edges()}


def test_record_typed_edges_adds_missing_edges_both_ways():
    g = SystemGraph(simple_model())
    for v in ("u1", "d1", "d2", "d3"):
        g.add_entity(v, "user" if v.startswith("u") else "doc")
    blocked = InterestAudit(blocked=True)
    epoch = g.epoch
    assert g.record_typed_edge("u1", "d1", blocked) is True
    assert g.record_typed_edges("u1", ["d1", "d2", "d2", "d3"], blocked) == 2
    assert g.record_typed_edges("u1", {"d1", "d3"}, blocked) == 0
    assert g.record_typed_edges("u1", [], DecisionAudit("read", allowed=False)) == 0
    assert g.neighbors("u1", "@interest:blocked") == {"d1", "d2", "d3"}
    for d in ("d1", "d2", "d3"):
        assert g.neighbors(d, "~@interest:blocked") == {"u1"}
    assert g.epoch == epoch
    # the same graph built edge at a time
    ref = SystemGraph(simple_model())
    for v in ("u1", "d1", "d2", "d3"):
        ref.add_entity(v, "user" if v.startswith("u") else "doc")
    for d in ("d1", "d2", "d3"):
        ref.record_typed_edge("u1", d, InterestAudit(blocked=True))
    assert typed_edge_set(g) == typed_edge_set(ref)
    assert g._interest_edges == ref._interest_edges == 3
    assert g.adjacency == ref.adjacency


def test_record_typed_edges_unknown_target_changes_nothing():
    g = SystemGraph(simple_model())
    for v in ("u1", "d1", "d2"):
        g.add_entity(v, "user" if v.startswith("u") else "doc")
    g.record_typed_edge("u1", "d1", DecisionAudit("read", allowed=True))
    before = {v: {k: set(ws) for k, ws in by.items()} for v, by in g.adjacency.items()}
    kind = InterestAudit(blocked=False)
    with pytest.raises(UnknownNodeError):
        g.record_typed_edges("u1", ["d1", "d2", "ghost"], kind)
    with pytest.raises(UnknownNodeError):
        g.record_typed_edges("ghost", ["d1"], kind)
    with pytest.raises(ValueError):
        g.record_typed_edges("u1", ["d1"], Caching(frozenset()))
    assert g.adjacency == before
    assert g._interest_edges == 0


def test_typed_edges_do_not_bump_epoch_or_leak_into_relationship_queries():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    g.add_relationship("u1", "d1", "owns")
    before_epoch = g.epoch
    before = {label: set(g.neighbors("u1", label)) for label in ("owns", "~owns", "knows")}
    g.record_typed_edge("u1", "d1", DecisionAudit("read", allowed=False))
    g.record_typed_edge("u1", "d1", InterestAudit(blocked=True))
    assert g.epoch == before_epoch
    for label, value in before.items():
        assert g.neighbors("u1", label) == value


def test_cache_lookup_freshness():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    g.record_typed_edge("u1", "d1", Caching(frozenset({"p"})))
    assert g.lookup_cache("u1", "d1") == frozenset({"p"})
    assert g.lookup_cache("d1", "u1") is None
    g.add_entity("u2", "user")  # any mutation stales the entry
    assert g.lookup_cache("u1", "d1") is None
    with pytest.raises(UnknownNodeError):
        g.lookup_cache("u1", "ghost")


def test_cache_replacement_and_empty_set_entry():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    g.record_typed_edge("u1", "d1", Caching(frozenset()))
    assert g.lookup_cache("u1", "d1") == frozenset()
    g.record_typed_edge("u1", "d1", Caching(frozenset({"p"})))
    assert g.lookup_cache("u1", "d1") == frozenset({"p"})
    assert len(g.cache_entries()) == 1


def test_cache_capacity_fifo():
    g = SystemGraph(simple_model(), cache_capacity=2)
    g.add_entity("u1", "user")
    for name in ("d1", "d2", "d3"):
        g.add_entity(name, "doc")
    for name in ("d1", "d2", "d3"):
        g.record_typed_edge("u1", name, Caching(frozenset({name})))
    assert len(g.cache_entries()) == 2
    assert g.lookup_cache("u1", "d1") is None
    assert g.lookup_cache("u1", "d3") == frozenset({"d3"})


def test_claim_caches_drops_another_policys_entries_without_epoch_bump():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    g.record_typed_edge("u1", "d1", Caching(frozenset({"p"})))
    epoch = g.epoch
    g.claim_caches("a")  # entries of an unknown policy go
    assert len(g.cache_entries()) == 0
    g.record_typed_edge("u1", "d1", Caching(frozenset({"p"})))
    g.claim_caches("a")
    assert g.lookup_cache("u1", "d1") == frozenset({"p"})
    g.claim_caches("b")
    assert (len(g.cache_entries()), g.cache_policy, g.epoch) == (0, "b", epoch)


def test_invalidate_caches_hook():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("d1", "doc")
    g.record_typed_edge("u1", "d1", Caching(frozenset({"p"})))
    g.invalidate_caches()
    assert g.lookup_cache("u1", "d1") is None


def test_frozen_relation_after_interest_edges():
    g = SystemGraph(simple_model())
    g.add_entity("u1", "user")
    g.add_entity("u2", "user")
    g.add_entity("d1", "doc")
    g.freeze_relation("knows")
    g.add_relationship("u1", "u2", "knows")  # still fine: no interest edges yet
    g.record_typed_edge("u1", "d1", InterestAudit(blocked=False))
    with pytest.raises(FrozenRelationError):
        g.add_relationship("u2", "u1", "knows")


def test_frozen_relation_after_first_bulk_interest_write():
    g = SystemGraph(simple_model())
    for v in ("u1", "u2", "d1"):
        g.add_entity(v, "user" if v.startswith("u") else "doc")
    g.freeze_relation("knows")
    assert g.record_typed_edges("u1", [], InterestAudit(blocked=True)) == 0
    assert g.record_typed_edges("u1", ["d1"], DecisionAudit("read", allowed=True)) == 1
    g.add_relationship("u1", "u2", "knows")  # no interest edges yet
    assert g.record_typed_edges("u1", ["d1", "u2"], InterestAudit(blocked=True)) == 2
    with pytest.raises(FrozenRelationError):
        g.add_relationship("u2", "u1", "knows")


def add_one(g: SystemGraph, item: tuple) -> None:
    """What ``add_many`` must do with one item, by the single-item methods."""
    if len(item) == 3:
        g.add_entity(item[1], item[2])
    elif len(item) == 5:
        g.record_typed_edge(item[1], item[2], Caching(item[3], item[4]))
    elif item[3].startswith("@"):
        g.record_typed_edge(item[1], item[2], kind_from_label(item[3]))
    else:
        g.add_relationship(item[1], item[2], item[3])


def test_add_many_equals_single_item_calls():
    """Random item streams, with a frozen relation, caching edges stamped
    at the current epoch and every kind of bad item, leave the graph as the
    single-item methods do and reject the same items with the same errors."""
    rng = random.Random(3)
    nodes = ["u1", "u2", "u3", "d1", "d2", "ghost"]
    labels = ["owns", "knows", "likes", "~owns", "@allow:read", "@interest:active",
              "@interest:blocked", "@bogus"]
    for _ in range(300):
        items = [(pos, v, "user" if v[0] == "u" else "doc")
                 for pos, v in enumerate(rng.sample(nodes[:5], rng.randint(0, 5)))]
        for pos in range(len(items), rng.randint(0, 40)):
            roll = rng.random()
            if roll < 0.25:
                node = rng.choice(nodes + ["@x", "u#1", "u 1"])
                items.append((pos, node, rng.choice(["user", "user", "doc", "robot"])))
            elif roll < 0.85:
                items.append((pos, rng.choice(nodes), rng.choice(nodes), rng.choice(labels)))
            else:
                principals = frozenset(rng.sample(["p", "q"], rng.randint(0, 2)))
                items.append((pos, rng.choice(nodes), rng.choice(nodes), principals,
                              rng.choice([None, rng.randint(0, 9)])))
        cap = rng.choice([None, 1])
        g, ref = SystemGraph(simple_model(), cap), SystemGraph(simple_model(), cap)
        if rng.random() < 0.5:
            g.freeze_relation("knows")
            ref.freeze_relation("knows")
        expected = []
        for item in items:
            try:
                add_one(ref, item)
            except (RelacError, ValueError) as exc:
                expected.append((item[0], type(exc), str(exc)))
        rejected = g.add_many(iter(items))
        assert [(pos, type(exc), str(exc)) for pos, exc in rejected] == expected
        assert g.adjacency == ref.adjacency
        assert g.epoch == ref.epoch
        assert g._interest_edges == ref._interest_edges
        assert list(g.cache_entries()) == list(ref.cache_entries())

