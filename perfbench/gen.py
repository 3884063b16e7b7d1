"""Seeded generators for the benchmark's inputs.

Every generator takes a ``random.Random`` built from the workload seed and a
``scale`` factor (1.0 is the benchmark size, the smoke test uses a tiny one)
and returns plain data: model/policy text, entity and edge lists, request
streams. Nothing here imports relac; the workloads feed these inputs to it.

Structure that drives cost (group tree shape, firm and company fan-out) is
fixed by the scale, and the seed only picks assignments, so that two seeds
give workloads of the same size and shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ACTIONS = ("read", "write", "delete")


def _n(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


# --- the document graph shared by match-cold and cache-hot -----------------------

DOC_MODEL = """
type user
type group
type doc
type memo
type folder
rel member
rel sub
rel owns
rel in
rel manages
symrel peer
perm user group member
perm group group sub
perm group doc owns
perm group memo owns
perm user doc owns
perm user memo owns
perm doc folder in
perm memo folder in
perm user folder manages
perm user user peer
action read
action write
action delete
"""

# The same four rules in every shape. ``team`` is the nested-group rule;
# ``curator`` mandates a reversed step and precludes the nested-group path.
_RULES = (
    "rule author : owns ! none",
    "rule team : member;sub+;owns ! peer;owns",
    "rule curator : manages;~in ! member;sub+;owns",
    "rule colleague : peer;owns ! owns",
)

_AUTH = """
auth author * read allow
auth author * write allow
auth author * delete allow
auth team * read allow
auth team * write allow
auth curator * read allow
auth curator * delete allow
auth colleague * read allow
auth colleague * write deny
crs deny-overrides
default type doc deny
default system deny
"""


@dataclass
class DocGraph:
    """Inputs of the document workloads: graph, policies and fresh edges
    that a write may add (none of them is in ``edges``)."""

    entities: list[tuple[str, str]]
    edges: list[tuple[str, str, str]]
    users: list[str]
    docs: list[str]
    policies: dict[str, str]
    fresh_edges: list[tuple[str, str, str]] = field(default_factory=list)


def doc_policy(shape: str, defaults: str) -> str:
    if shape == "dag":
        # A null root over the four rules; colleague only counts under team.
        head = ["pmp dag", "rule null : all ! none", *_RULES,
                "edge 0 1", "edge 0 2", "edge 0 3", "edge 2 4"]
    else:
        head = [f"pmp {shape}", *_RULES]
    return "\n".join(head) + "\n" + _AUTH + defaults


def doc_graph(rng: random.Random, scale: float, n_fresh: int) -> DocGraph:
    n_users = _n(3000, scale, 12)
    n_groups = _n(300, scale, 6)
    n_docs = _n(6000, scale, 24)
    n_folders = _n(200, scale, 3)
    users = [f"u{i}" for i in range(n_users)]
    groups = [f"g{i}" for i in range(n_groups)]
    folders = [f"f{i}" for i in range(n_folders)]
    # One document in ten is a memo: no per-type default, so the cascade
    # reaches the system level for them.
    docs, entities = [], []
    for i in range(n_docs):
        kind = "memo" if i % 10 == 9 else "doc"
        docs.append(f"{kind[0]}{i}")
        entities.append((docs[-1], kind))
    entities += [(u, "user") for u in users]
    entities += [(g, "group") for g in groups]
    entities += [(f, "folder") for f in folders]

    edges: set[tuple[str, str, str]] = set()
    # Fixed binary group tree: group i is a sub-group of group (i-1)//2.
    for i in range(1, n_groups):
        edges.add((groups[i], groups[(i - 1) // 2], "sub"))
    for u in users:
        for g in rng.sample(groups, 1 + (rng.random() < 0.5)):
            edges.add((u, g, "member"))
    for d in docs:
        # Groups near the root own more, so nested membership matters.
        edges.add((groups[int(n_groups * rng.random() ** 2)], d, "owns"))
        if rng.random() < 0.3:
            edges.add((rng.choice(users), d, "owns"))
        edges.add((d, rng.choice(folders), "in"))
    for f in folders:
        for u in rng.sample(users, 3):
            edges.add((u, f, "manages"))
    peers: set[frozenset[str]] = set()
    while len(peers) < n_users:
        a, b = rng.sample(users, 2)
        peers.add(frozenset((a, b)))
    for pair in sorted(tuple(sorted(p)) for p in peers):
        edges.add((pair[0], pair[1], "peer"))

    fresh: list[tuple[str, str, str]] = []
    taken = set(peers)
    n_fresh = min(n_fresh, n_users * (n_users - 1) // 4)
    while len(fresh) < n_fresh:
        a, b = rng.sample(users, 2)
        if frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            fresh.append((a, b, "peer"))

    # Per-subject and per-object defaults for one entity in a hundred.
    defaults = "".join(
        [f"default subject {u} allow\n" for u in users[::100]]
        + [f"default object {d} allow\n" for d in docs[5::100]]
    )
    policies = {shape: doc_policy(shape, defaults) for shape in ("set", "list", "dag")}
    edge_list = sorted(edges)
    rng.shuffle(edge_list)
    return DocGraph(entities, edge_list, users, docs, policies, fresh)


def uniform_requests(rng: random.Random, g: DocGraph, n: int) -> list[tuple[str, str, str]]:
    return [(rng.choice(g.users), rng.choice(g.docs), rng.choice(ACTIONS)) for _ in range(n)]


def zipf_requests(
    rng: random.Random, hot: list[tuple[str, str]], n: int, exponent: float = 1.1
) -> list[tuple[str, str, str]]:
    """Requests over ``hot`` pairs with Zipf-distributed ranks."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(hot))]
    pairs = rng.choices(hot, weights=weights, k=n)
    return [(s, o, rng.choice(ACTIONS)) for s, o in pairs]


# --- the Chinese Wall and separation-of-duty workspace -------------------------

WALL_MODEL = """
type user
type firm
type company
type file
type coic
type ledger
rel w
rel s
rel d
rel m
rel clerk
perm user firm w
perm firm company s
perm file company d
perm company coic m
perm user ledger clerk
action read
action submit
action approve
action audit
"""

SOD_ACTIONS = ("submit", "approve", "audit")

WALL_POLICY = """
pmp set
cw-member m
cw-userpath w;s
cw-objectpath d
cw-principal insider
rule bookkeeper : clerk ! none
auth insider * read allow
auth bookkeeper ledger0 * allow
crs deny-overrides
default system deny
sod ledger0 submit approve audit
"""


@dataclass
class Workspace:
    model: str
    graph: str
    policy: str
    requests: list[tuple[str, str, str]]
    # company -> conflict class, file -> company (for the wall invariant)
    company_class: dict[str, str]
    file_company: dict[str, str]


def wall_workspace(rng: random.Random, scale: float) -> Workspace:
    """Users work at firms, firms serve companies (10 each), companies sit
    in conflict classes (10 each) and own files (10 each); one ledger whose
    clerks are one user in five."""
    n_firms = _n(40, scale, 2)
    n_companies = n_firms * 10
    n_classes = max(2, n_companies // 10)
    n_users = _n(2000, scale, 8)
    n_requests = _n(4000, scale, 40)
    firms = [f"e{i}" for i in range(n_firms)]
    companies = [f"c{i}" for i in range(n_companies)]
    users = [f"u{i}" for i in range(n_users)]
    lines = [f"entity {u} user" for u in users]
    lines += [f"entity {e} firm" for e in firms]
    lines += [f"entity {c} company" for c in companies]
    lines += [f"entity i{k} coic" for k in range(n_classes)]
    lines.append("entity ledger0 ledger")

    # Firm i serves the i-th block of 10 shuffled companies. Consecutive
    # companies share a conflict class, so every firm serves five rival
    # pairs and the wall decides some of its reads.
    order = companies[:]
    rng.shuffle(order)
    company_class = {c: f"i{(k // 2) % n_classes}" for k, c in enumerate(order)}
    serves = {e: order[i * 10:(i + 1) * 10] for i, e in enumerate(firms)}
    for e in firms:
        lines += [f"edge {e} {c} s" for c in serves[e]]
    lines += [f"edge {c} {company_class[c]} m" for c in companies]
    file_company: dict[str, str] = {}
    files_of: dict[str, list[str]] = {}
    for j, c in enumerate(companies):
        files_of[c] = [f"x{j * 10 + k}" for k in range(10)]
        for f in files_of[c]:
            file_company[f] = c
            lines.append(f"entity {f} file")
            lines.append(f"edge {f} {c} d")
    works = {u: rng.choice(firms) for u in users}
    lines += [f"edge {u} {works[u]} w" for u in users]
    clerks = rng.sample(users, max(3, n_users // 5))
    lines += [f"edge {u} ledger0 clerk" for u in clerks]

    all_files = list(file_company)
    requests = []
    for _ in range(n_requests):
        if rng.random() < 0.8:
            u = rng.choice(users)
            if rng.random() < 0.8:
                f = rng.choice(files_of[rng.choice(serves[works[u]])])
            else:
                f = rng.choice(all_files)
            requests.append((u, f, "read"))
        else:
            u = rng.choice(clerks) if rng.random() < 0.7 else rng.choice(users)
            requests.append((u, "ledger0", rng.choice(SOD_ACTIONS)))
    return Workspace(
        WALL_MODEL, "\n".join(lines) + "\n", WALL_POLICY, requests,
        company_class, file_company,
    )


def zipf_hot_set(rng: random.Random, g: DocGraph, size: int) -> list[tuple[str, str]]:
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < size:
        pairs.add((rng.choice(g.users), rng.choice(g.docs)))
    hot = sorted(pairs)
    rng.shuffle(hot)
    return hot

