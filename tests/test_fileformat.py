from __future__ import annotations

import random

import pytest

import helpers
import relac.fileformat
from helpers import random_graph
from relac.errors import FileFormatError
from relac.fileformat import (
    load_graph,
    parse_graph,
    parse_model,
    parse_pairs,
    parse_policy,
    parse_requests,
    save_graph,
    serialize_graph,
)
from relac.graph import Caching, DecisionAudit, InterestAudit
from relac.policy import Crs, Decision, PmpShape


def test_model_round(course):
    model, _, _ = course
    assert "user" in model.types
    assert "is-ta-for" in model.relations
    assert ("user", "course", "is-ta-for") in model.permissible
    assert model.actions == frozenset({"read", "write", "grade", "review"})


def test_model_bad_directive_reports_line():
    with pytest.raises(FileFormatError) as err:
        parse_model("type user\nrelation r\n", source="m.txt")
    assert any("m.txt:2" in m for m in err.value.messages)


def test_model_comments_and_blanks():
    model = parse_model("# header\n\ntype t # trailing\nrel r\nperm t t r\n")
    assert model.types == frozenset({"t"})


def test_graph_error_positions():
    model = parse_model("type user\ntype doc\nrel owns\nperm user doc owns\n")
    text = "entity u1 user\nentity d1 doc\nedge u1 d1 owns\nedge d1 u1 owns\nedge u1 ghost owns\n"
    with pytest.raises(FileFormatError) as err:
        parse_graph(text, model, source="g.txt")
    messages = "\n".join(err.value.messages)
    assert "g.txt:4" in messages  # schema violation
    assert "g.txt:5" in messages  # unknown node


LOADER_MODEL = "type user\ntype doc\nrel owns\nsymrel knows\nperm user doc owns\nperm user user knows\n"

# One line of each kind the loader rejects.
BAD_GRAPH_LINES = [
    "entity x9 robot",  # unknown type
    "entity u0 user",  # duplicate entity
    "entity @x user",  # bad id
    "entity ~x doc",  # bad id
    "edge u0 ghost owns",  # unknown node
    "edge ghost d0 @allow:read",  # unknown node, history edge
    "edge u0 late owns",  # entity declared on a later line
    "edge u0 d0 likes",  # unknown relation
    "edge u0 d0 ~owns",  # reverse label
    "edge u0 d0 @bogus",  # unknown system label
    "edge d0 u0 owns",  # schema violation
    "cache u0 d0 x p",  # bad cache epoch
    "cache u0 ghost 3 p",  # cache line naming an unknown node
    "epoch soon",  # bad epoch
    "epoch 0",  # backwards epoch, when it is the last epoch line
    "edge u0 d0",  # unrecognized directive
    "cache-policy",  # fingerprint missing
]


def random_graph_text(rng: random.Random, bad_lines: int) -> str:
    users = [f"u{i}" for i in range(rng.randint(1, 5))]
    docs = [f"d{i}" for i in range(rng.randint(1, 5))]
    entities = [f"entity {u} user" for u in users] + [f"entity {d} doc" for d in docs]
    rng.shuffle(entities)
    nodes = users + docs
    history = ["@allow:read", "@deny:read", "@allow:write", "@interest:active", "@interest:blocked"]
    rest = []
    for _ in range(rng.randint(0, 25)):
        roll = rng.random()
        if roll < 0.3:
            rest.append(f"edge {rng.choice(users)} {rng.choice(docs)} owns")
        elif roll < 0.5:
            a, b = rng.choice(users), rng.choice(users)
            rest += [f"edge {a} {b} knows"] * rng.randint(1, 2)
            if rng.random() < 0.5:
                rest.append(f"edge {b} {a} knows")  # flipped symmetric duplicate
        elif roll < 0.75:
            rest.append(f"edge {rng.choice(nodes)} {rng.choice(nodes)} {rng.choice(history)}")
        elif roll < 0.9:
            principals = ",".join(rng.sample(["p", "q", "r"], rng.randint(1, 3))) if rng.random() < 0.7 else "-"
            rest.append(f"cache {rng.choice(nodes)} {rng.choice(nodes)} {rng.randint(0, 40)} {principals}")
        elif roll < 0.93:
            rest.append(f"epoch {rng.randint(30, 60)}")
        elif roll < 0.95:
            rest.append(f"cache-policy {rng.choice('ab') * 64}")
        else:
            rest.append(rng.choice(["", "   ", "# comment", f"edge {rng.choice(users)} {rng.choice(docs)} owns # owner"]))
    if rest and rng.random() < 0.5:
        rest.append(rng.choice(rest))  # a repeated line
    lines = entities + rest
    # Cache, cache-policy and epoch lines may come before the entities.
    for i, line in enumerate(lines):
        if line.startswith(("cache", "epoch")) and rng.random() < 0.3:
            lines.insert(rng.randint(0, i), lines.pop(i))
    for bad in rng.sample(BAD_GRAPH_LINES, bad_lines):
        lines.insert(rng.randint(0, len(lines)), bad)
        if "late" in bad:
            lines.append("entity late doc")
    return "\n".join(lines) + "\n"


def test_parse_graph_matches_the_per_line_loader():
    """On random graph texts the one-pass loader builds the graph the
    per-line reference loader builds, epoch, interest count and cache order
    included, and rejects what it rejects with the same messages."""
    model = parse_model(LOADER_MODEL)
    rng = random.Random(11)
    outcomes = {"loaded": 0, "rejected": 0}
    for round_ in range(600):
        text = random_graph_text(rng, rng.choice([0, 0, 1, 2, 4]))
        cap = rng.choice([None, None, 0, 1, 3])
        try:
            ref = helpers.reference_parse_graph(text, model, "g.txt", cap)
        except FileFormatError as exc:
            outcomes["rejected"] += 1
            with pytest.raises(FileFormatError) as err:
                parse_graph(text, model, "g.txt", cap)
            assert err.value.messages == exc.messages, text
            continue
        outcomes["loaded"] += 1
        g = parse_graph(text, model, "g.txt", cap)
        assert serialize_graph(g) == serialize_graph(ref), text
        assert g.epoch == ref.epoch
        assert g._interest_edges == ref._interest_edges
        assert len(g.cache_entries()) == len(ref.cache_entries())
        assert g.cache_policy == ref.cache_policy
        assert list(g.cache_entries()) == list(ref.cache_entries())
        assert g.adjacency == ref.adjacency
        for by_label in g.adjacency.values():
            if "knows" in by_label:
                assert by_label["knows"] is by_label["~knows"]
    assert min(outcomes.values()) > 150, outcomes


def test_graph_loads_system_edges():
    model = parse_model("type user\ntype doc\nrel owns\nperm user doc owns\n")
    g = parse_graph(
        "entity u1 user\nentity d1 doc\nedge u1 d1 owns\nedge u1 d1 @allow:read\nedge u1 d1 @interest:blocked\n",
        model,
    )
    kinds = {type(k) for _, _, k in g.typed_edges()}
    assert kinds == {DecisionAudit, InterestAudit}


def test_graph_serialization_round_trip(course):
    model, g, parsed = course
    g.record_typed_edge("u1", "a3", DecisionAudit("read", allowed=True))
    g.record_typed_edge("u1", "a3", Caching(frozenset({"course-ta"})))
    g.cache_policy = parsed.pmp.fingerprint
    text = serialize_graph(g)
    # the fingerprint line comes right before the cache lines
    assert text.endswith(
        f"cache-policy {parsed.pmp.fingerprint}\ncache u1 a3 {g.epoch} course-ta\n")
    g2 = parse_graph(text, model)
    assert g2.cache_policy == parsed.pmp.fingerprint
    assert sorted(helpers.relationship_edges(g)) == sorted(helpers.relationship_edges(g2))
    assert sorted(g.nodes()) == sorted(g2.nodes())
    assert {(s, o, k) for s, o, k in g.typed_edges()} == {
        (s, o, k) for s, o, k in g2.typed_edges()
    }
    assert g2.epoch == g.epoch
    # the epoch line keeps warmed caches fresh across the round trip
    assert g2.lookup_cache("u1", "a3") == frozenset({"course-ta"})
    assert serialize_graph(g2) == text


def test_serialize_graph_matches_reference_on_random_graphs():
    rng = random.Random(8)
    for _ in range(60):
        g = random_graph(rng, symmetric_count=rng.randint(0, 2))
        # ids that sort differently as text lines than as tuples
        for node in ("v1\x01", "v1-", "v10\x02x"):
            g.add_entity(node, "t")
        nodes = list(g.nodes())
        for _ in range(rng.randint(0, 8)):
            g.add_relationship(rng.choice(nodes), rng.choice(nodes), rng.choice(sorted(g.model.relations)))
        kinds = [DecisionAudit("read", True), DecisionAudit("read", False),
                 InterestAudit(False), InterestAudit(True)]
        for _ in range(rng.randint(0, 12)):
            g.record_typed_edge(rng.choice(nodes), rng.choice(nodes), rng.choice(kinds))
        for _ in range(rng.randint(0, 5)):
            principals = frozenset(rng.sample(["p", "q", "r"], rng.randint(0, 2)))
            epoch = rng.choice([None, rng.randint(0, g.epoch)])
            g.record_typed_edge(rng.choice(nodes), rng.choice(nodes), Caching(principals, epoch))
        # empty buckets, which no public write leaves behind
        g._adj[rng.choice(nodes)].setdefault("@allow:write", set())
        g._adj[rng.choice(nodes)].setdefault("@interest:active", set())
        g._adj[rng.choice(nodes)].setdefault("r0", set())
        g.cache_policy = rng.choice([None, "f" * 64])
        assert serialize_graph(g) == helpers.reference_serialize_graph(g)


def test_save_load_save_is_byte_identical(tmp_path):
    rng = random.Random(5)
    for round_ in range(10):
        g = random_graph(rng, symmetric_count=2)
        nodes = sorted(g.nodes())
        sym = min(g.model.symmetric)
        g.add_relationship(nodes[-1], nodes[0], sym)  # reversed orientation
        g.record_typed_edge(nodes[0], nodes[1], DecisionAudit("read", allowed=True))
        g.record_typed_edge(nodes[1], nodes[0], InterestAudit(blocked=True))
        g.record_typed_edge(nodes[0], nodes[-1], Caching(frozenset({"p", "q"})))
        g.cache_policy = "0123abcd" * 8
        first, second = tmp_path / f"a{round_}.txt", tmp_path / f"b{round_}.txt"
        save_graph(g, first)
        g2 = load_graph(first, g.model)
        save_graph(g2, second)
        assert first.read_bytes() == second.read_bytes()
        assert sorted(helpers.relationship_edges(g)) == sorted(helpers.relationship_edges(g2))


def test_save_graph_failure_keeps_old_file(course, tmp_path, monkeypatch):
    _, g, _ = course
    target = tmp_path / "graph.txt"
    save_graph(g, target)
    before = target.read_bytes()
    g.record_typed_edge("u1", "a3", DecisionAudit("read", allowed=True))

    def broken(_graph):
        raise RuntimeError("serializer failed")

    monkeypatch.setattr(relac.fileformat, "serialize_graph", broken)
    with pytest.raises(RuntimeError):
        save_graph(g, target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.txt"]


def test_cache_policy_line_only_with_cache_lines(course):
    model, g, parsed = course
    g.cache_policy = parsed.pmp.fingerprint
    assert "cache-policy" not in serialize_graph(g)
    g2 = parse_graph(f"entity u1 user\ncache-policy {'e' * 64}\n", model)
    assert g2.cache_policy == "e" * 64
    assert serialize_graph(g2) == f"entity u1 user\nepoch {g2.epoch}\n"


def test_policy_defaults_to_deny_overrides(course):
    model, _, _ = course
    parsed = parse_policy(
        "pmp set\nrule p : all ! none\nauth p * * allow\ndefault system deny\n", model
    )
    assert parsed.policy.crs is Crs.DENY_OVERRIDES
    assert parsed.pmp.shape is PmpShape.SET


def test_policy_requires_system_default(course):
    model, _, _ = course
    with pytest.raises(FileFormatError) as err:
        parse_policy("pmp set\nrule p : all ! none\n", model)
    assert "system-wide default" in str(err.value)


def test_policy_rejects_undeclared_relation_in_target(course):
    model, _, _ = course
    with pytest.raises(FileFormatError) as err:
        parse_policy(
            "rule p : bogus-rel ! none\ndefault system deny\n", model, source="p.txt"
        )
    assert any("undeclared relation" in m for m in err.value.messages)


def test_policy_rejects_undeclared_action(course):
    model, _, _ = course
    with pytest.raises(FileFormatError):
        parse_policy(
            "rule p : all ! none\nauth p * fly allow\ndefault system deny\n", model
        )


def test_policy_normalizes_targets_with_notice(course):
    model, _, _ = course
    parsed = parse_policy(
        "rule p : ~(is-coursework-for;~is-ta-for) ! none\ndefault system deny\n",
        model,
    )
    assert any("normalized" in w for w in parsed.warnings)
    from relac.pathcond import PathTarget, parse as parse_pc

    assert parsed.pmp.rules[0].mandated == PathTarget(parse_pc("is-ta-for;~is-coursework-for"))


def test_policy_dag_multi_root_fixup(course):
    model, _, _ = course
    parsed = parse_policy(
        "pmp dag\n"
        "rule p1 : is-creator-of ! none\n"
        "rule p2 : all ! none\n"
        "default system deny\n",
        model,
    )
    assert any("inserted" in w for w in parsed.warnings)
    assert len(parsed.pmp.rules) == 3
    assert parsed.pmp.rules[2].principal == "null"


def test_policy_dag_cycle_is_fatal(course):
    model, _, _ = course
    with pytest.raises(FileFormatError):
        parse_policy(
            "pmp dag\n"
            "rule p1 : all ! none\n"
            "rule p2 : all ! none\n"
            "edge 0 1\nedge 1 0\n"
            "default system deny\n",
            model,
        )


def test_policy_sod_requires_deny_overrides():
    model = parse_model(helpers.SOD_MODEL)
    with pytest.raises(FileFormatError) as err:
        parse_policy(
            "rule p : r ! none\nauth p o * allow\ncrs allow-overrides\n"
            "default system deny\nsod o a1 a2\n",
            model,
        )
    assert "deny-overrides" in str(err.value)


def test_policy_sod_rejects_repeated_actions():
    model = parse_model(helpers.SOD_MODEL)
    with pytest.raises(FileFormatError) as err:
        parse_policy(
            "rule p : r ! none\nauth p o * allow\ncrs deny-overrides\n"
            "default system deny\nsod o a1 a2 a1\n",
            model,
        )
    assert "distinct" in str(err.value)


def test_policy_chinese_wall_requires_all_parts(course):
    model, _, _ = course
    with pytest.raises(FileFormatError) as err:
        parse_policy(
            "rule p : all ! none\ncw-member is-ta-for\ndefault system deny\n", model
        )
    assert "cw-userpath" in str(err.value)


def test_policy_defaults_table(course):
    model, _, _ = course
    parsed = parse_policy(
        "rule p : all ! none\n"
        "default system deny\n"
        "default subject u1 allow\n"
        "default object a3 deny\n"
        "default type coursework allow\n",
        model,
    )
    t = parsed.defaults
    assert t.system_wide is Decision.DENY
    assert t.per_subject == {"u1": Decision.ALLOW}
    assert t.per_object == {"a3": Decision.DENY}
    assert t.per_type == {"coursework": Decision.ALLOW}


def test_requests_and_pairs_parsing():
    reqs = parse_requests("u1 a1 read\nbroken line here extra\nu2 a2 write\n")
    assert reqs[0] == (1, ("u1", "a1", "read"))
    assert isinstance(reqs[1][1], str)
    assert reqs[2] == (3, ("u2", "a2", "write"))
    pairs = parse_pairs("u1 a1\nonly-one\n")
    assert pairs[0] == (1, ("u1", "a1"))
    assert isinstance(pairs[1][1], str)
