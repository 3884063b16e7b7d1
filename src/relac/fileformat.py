"""Line-oriented text formats for models, graphs, policies and batches.

All formats share the same conventions: UTF-8, one directive per line,
blank lines and ``#`` comments ignored. Loaders collect every problem they
find (with file/line positions) before raising, so a validation run can
report the lot.

Model file:        ``type <name>`` | ``rel <name>`` | ``symrel <name>`` |
                   ``perm <type> <type> <rel>`` | ``action <name>``
Graph file:        ``entity <id> <type>`` | ``edge <from> <to> <label>``
                   where a ``@``-label records a history edge; plus optional
                   ``epoch <n>`` and ``cache <s> <o> <epoch> <p1,p2|->``
                   lines so preemptively warmed caches survive a reload, and
                   ``cache-policy <sha256>``, the fingerprint of the
                   principal-matching policy that computed the cache lines
                   (:attr:`Pmp.fingerprint`). Cache lines without it, or
                   with another policy's, are dropped by the first caching
                   evaluator.
Policy file:       ``pmp <set|list|dag>`` | ``rule <principal> : <target> !
                   <target>`` | ``edge <i> <j>`` (dag rule indexes, 0-based,
                   in file order) | ``auth <principal> <object|type|*>
                   <action|*> <allow|deny>`` | ``crs <strategy>`` |
                   ``default <subject <id>|object <id>|type <name>|system>
                   <allow|deny>`` and the history directives ``cw-member``,
                   ``cw-userpath``, ``cw-objectpath``, ``cw-principal`` and
                   ``sod <object> <action> <action>...``.
Requests file:     ``<subject> <object> <action>`` per line.
Pairs file:        ``<subject> <object>`` per line.

Targets are ``all``, ``none`` or path-condition syntax; path conditions are
normalized to simple form on load (a notice is emitted when that changed
anything).
"""

from __future__ import annotations

import os
import re
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import pathcond
from .engine import ChineseWallConfig, build_chinese_wall_rules, build_sod_policy
from .errors import FileFormatError, RelacError
from .graph import SystemGraph, SystemModel
from .pathcond import ALL, NONE, PathTarget, Target
from .policy import (
    AuthRule,
    Crs,
    Decision,
    DefaultTable,
    ExtendedAuthPolicy,
    NULL_PRINCIPAL,
    PmRule,
    Pmp,
    PmpShape,
    WILDCARD,
)

__all__ = [
    "ParsedPolicy",
    "read_text",
    "parse_model",
    "load_model",
    "parse_graph",
    "load_graph",
    "serialize_graph",
    "save_graph",
    "parse_policy",
    "load_policy",
    "parse_requests",
    "parse_pairs",
]

_PRINCIPAL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.-]*$")


def _lines(text: str) -> Iterator[tuple[int, list[str], str]]:
    """(lineno, tokens, line) for every non-blank, non-comment line, as the
    text is read; ``line`` is the stripped text before any ``#``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        tokens = raw.split()
        if tokens:
            yield lineno, tokens, raw.strip()


def read_text(path: str | Path) -> str:
    """The file's text. A file that is not UTF-8 raises a
    :class:`RelacError` that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RelacError(f"{path}: not UTF-8 text: {exc}") from None


class _Collector:
    def __init__(self, source: str):
        self.source = source
        self.errors: list[str] = []
        self.warnings: list[str] = []

    def error(self, lineno: int | None, message: str) -> None:
        where = f"{self.source}:{lineno}: " if lineno else f"{self.source}: "
        self.errors.append(where + message)

    def warn(self, lineno: int | None, message: str) -> None:
        where = f"{self.source}:{lineno}: " if lineno else f"{self.source}: "
        self.warnings.append(where + message)

    def finish(self) -> None:
        if self.errors:
            raise FileFormatError(self.errors, self.source)


# --- model -----------------------------------------------------------------

def parse_model(text: str, source: str = "<model>") -> SystemModel:
    col = _Collector(source)
    types: set[str] = set()
    relations: set[str] = set()
    symmetric: set[str] = set()
    permissible: set[tuple[str, str, str]] = set()
    actions: set[str] = set()
    for lineno, tokens, _ in _lines(text):
        kw = tokens[0]
        if kw == "type" and len(tokens) == 2:
            types.add(tokens[1])
        elif kw == "rel" and len(tokens) == 2:
            relations.add(tokens[1])
        elif kw == "symrel" and len(tokens) == 2:
            relations.add(tokens[1])
            symmetric.add(tokens[1])
        elif kw == "perm" and len(tokens) == 4:
            permissible.add((tokens[1], tokens[2], tokens[3]))
        elif kw == "action" and len(tokens) == 2:
            actions.add(tokens[1])
        else:
            col.error(lineno, f"unrecognized model directive: {' '.join(tokens)}")
    col.finish()
    try:
        return SystemModel(
            types=frozenset(types),
            relations=frozenset(relations),
            symmetric=frozenset(symmetric),
            permissible=frozenset(permissible),
            actions=frozenset(actions),
        )
    except RelacError as exc:
        raise FileFormatError([f"{source}: {exc}"], source) from exc


def load_model(path: str | Path) -> SystemModel:
    return parse_model(read_text(path), str(path))


# --- graph ------------------------------------------------------------------

def parse_graph(
    text: str,
    model: SystemModel,
    source: str = "<graph>",
    cache_capacity: int | None = None,
) -> SystemGraph:
    """One pass over the text: entity and edge lines go to the graph in file
    order, then the last ``epoch`` line is restored and the cache lines are
    entered, so they may name entities declared after them, under the last
    ``cache-policy`` line. Errors are reported in that order too."""
    col = _Collector(source)
    g = SystemGraph(model, cache_capacity=cache_capacity)
    errors: list[tuple[int, str]] = []
    cache_errors: list[tuple[int, str]] = []
    caches: list[tuple[int, str, str, frozenset[str], int]] = []
    final_epoch: int | None = None

    def records() -> Iterator[tuple]:
        nonlocal final_epoch
        for lineno, tokens, _ in _lines(text):
            kw = tokens[0]
            n = len(tokens)
            if kw == "edge" and n == 4:
                yield lineno, tokens[1], tokens[2], tokens[3]
            elif kw == "entity" and n == 3:
                yield lineno, tokens[1], tokens[2]
            elif kw == "cache" and n == 5:
                _, subj, obj, epoch_text, plist = tokens
                try:
                    epoch = int(epoch_text)
                except ValueError as exc:
                    cache_errors.append((lineno, str(exc)))
                    continue
                principals = frozenset() if plist == "-" else frozenset(plist.split(","))
                caches.append((lineno, subj, obj, principals, epoch))
            elif kw == "epoch" and n == 2:
                try:
                    final_epoch = int(tokens[1])
                except ValueError as exc:
                    errors.append((lineno, str(exc)))
            elif kw == "cache-policy" and n == 2:
                g.cache_policy = tokens[1]
            else:
                errors.append((lineno, f"unrecognized graph directive: {' '.join(tokens)}"))

    rejected = g.add_many(records())
    errors += ((lineno, str(exc)) for lineno, exc in rejected)
    for lineno, message in sorted(errors):
        col.error(lineno, message)
    if final_epoch is not None:
        try:
            g.restore_epoch(final_epoch)
        except ValueError as exc:
            col.error(None, str(exc))
    rejected = g.add_many(caches)
    cache_errors += ((lineno, str(exc)) for lineno, exc in rejected)
    for lineno, message in sorted(cache_errors):
        col.error(lineno, message)
    col.finish()
    return g


def load_graph(
    path: str | Path, model: SystemModel, cache_capacity: int | None = None
) -> SystemGraph:
    return parse_graph(read_text(path), model, str(path), cache_capacity)


def serialize_graph(g: SystemGraph) -> str:
    """Deterministic round-trippable dump, history edges included: entities
    by id, relationship edges by (from, to, label), then history edge lines,
    the epoch, and the cache lines, sorted as text, after the
    ``cache-policy`` line when the graph knows its policy. One pass over the
    adjacency index collects every edge."""
    symmetric = g.model.symmetric
    relationships: list[tuple[str, str, str]] = []
    history: list[str] = []
    for v, by_label in g.adjacency.items():
        for label, targets in by_label.items():
            if label[0] == "~":
                continue
            if label[0] == "@":
                history += [f"edge {v} {w} {label}" for w in targets]
            elif label in symmetric:
                relationships += [(v, w, label) for w in targets if v <= w]
            else:
                relationships += [(v, w, label) for w in targets]
    lines = [f"entity {node} {g.node_type(node)}" for node in sorted(g.nodes())]
    lines += [f"edge {frm} {to} {label}" for frm, to, label in sorted(relationships)]
    lines += sorted(history)
    lines.append(f"epoch {g.epoch}")
    caches = sorted(
        f"cache {s} {o} {epoch} {','.join(sorted(principals)) or '-'}"
        for (s, o), (principals, epoch) in g.cache_entries()
    )
    if caches and g.cache_policy is not None:
        lines.append(f"cache-policy {g.cache_policy}")
    lines += caches
    return "\n".join(lines) + "\n"


def save_graph(g: SystemGraph, path: str | Path) -> None:
    """Replace ``path`` with the graph's dump atomically: the text goes to a
    temporary file beside it, reaches the disk, then is renamed over the
    target, so the target is always the old file or the whole new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    out = open(tmp, "x", encoding="utf-8")
    try:
        with out:
            out.write(serialize_graph(g))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- policy -----------------------------------------------------------------

@dataclass
class ParsedPolicy:
    pmp: Pmp
    policy: ExtendedAuthPolicy
    defaults: DefaultTable
    chinese_wall: ChineseWallConfig | None = None
    warnings: list[str] = field(default_factory=list)


def _parse_target(
    text: str, model: SystemModel, col: _Collector, lineno: int
) -> Target | None:
    text = text.strip()
    if text == "all":
        return ALL
    if text == "none":
        return NONE
    try:
        raw = pathcond.parse(text)
    except RelacError as exc:
        col.error(lineno, f"bad target {text!r}: {exc}")
        return None
    cond = pathcond.simplify(raw, model.symmetric)
    if raw != cond:
        col.warn(lineno, f"target normalized to simple form: {pathcond.to_text(cond)}")
    for message in pathcond.lint(cond):
        col.warn(lineno, message)
    for label in pathcond.base_labels(cond):
        if not label.startswith("@") and label not in model.relations:
            col.error(lineno, f"target references undeclared relation {label!r}")
    return PathTarget(cond)


def _parse_condition(
    text: str, model: SystemModel, col: _Collector, lineno: int
):
    target = _parse_target(text, model, col, lineno)
    if target is None or not isinstance(target, PathTarget):
        if target is not None:
            col.error(lineno, "expected a path condition, not all/none")
        return None
    return target.condition


def parse_policy(
    text: str, model: SystemModel, source: str = "<policy>"
) -> ParsedPolicy:
    col = _Collector(source)
    shape = PmpShape.SET
    rules: list[PmRule] = []
    dag_edges: list[tuple[int, int]] = []
    auth_rules: list[AuthRule] = []
    crs = Crs.DENY_OVERRIDES
    system_default: Decision | None = None
    per_subject: dict[str, Decision] = {}
    per_object: dict[str, Decision] = {}
    per_type: dict[str, Decision] = {}
    cw_member: str | None = None
    cw_user_paths: list = []
    cw_object_paths: list = []
    cw_principal = "insider"
    sod_spec: tuple[str, tuple[str, ...]] | None = None

    for lineno, tokens, line in _lines(text):
        kw = tokens[0]
        if kw == "pmp":
            if len(tokens) != 2 or tokens[1] not in ("set", "list", "dag"):
                col.error(lineno, "expected: pmp <set|list|dag>")
                continue
            if rules:
                col.error(lineno, "pmp shape must be declared before any rule")
            shape = PmpShape(tokens[1])
        elif kw == "rule":
            body = line[len("rule"):].strip()
            head, bang, precluded_text = body.partition("!")
            principal, colon, mandated_text = head.partition(":")
            principal = principal.strip()
            if not colon or not bang:
                col.error(lineno, "expected: rule <principal> : <target> ! <target>")
                continue
            if principal != NULL_PRINCIPAL and not _PRINCIPAL_RE.match(principal):
                col.error(lineno, f"invalid principal name {principal!r}")
                continue
            mandated = _parse_target(mandated_text, model, col, lineno)
            precluded = _parse_target(precluded_text, model, col, lineno)
            if mandated is None or precluded is None:
                continue
            rules.append(PmRule(mandated, precluded, principal))
        elif kw == "edge" and len(tokens) == 3:
            try:
                dag_edges.append((int(tokens[1]), int(tokens[2])))
            except ValueError:
                col.error(lineno, "dag edge indexes must be integers")
        elif kw == "auth" and len(tokens) == 5:
            principal, scope, action, decision_text = tokens[1:]
            try:
                decision = Decision.from_text(decision_text)
            except RelacError as exc:
                col.error(lineno, str(exc))
                continue
            if action != WILDCARD and model.actions and action not in model.actions:
                col.error(lineno, f"undeclared action {action!r}")
                continue
            try:
                auth_rules.append(AuthRule(principal, scope, action, decision))
            except RelacError as exc:
                col.error(lineno, str(exc))
        elif kw == "crs" and len(tokens) == 2:
            try:
                crs = Crs(tokens[1])
            except ValueError:
                col.error(lineno, f"unknown conflict resolution strategy {tokens[1]!r}")
        elif kw == "default":
            try:
                if tokens[1] == "system" and len(tokens) == 3:
                    system_default = Decision.from_text(tokens[2])
                elif tokens[1] == "subject" and len(tokens) == 4:
                    per_subject[tokens[2]] = Decision.from_text(tokens[3])
                elif tokens[1] == "object" and len(tokens) == 4:
                    per_object[tokens[2]] = Decision.from_text(tokens[3])
                elif tokens[1] == "type" and len(tokens) == 4:
                    per_type[tokens[2]] = Decision.from_text(tokens[3])
                else:
                    col.error(lineno, "expected: default <subject <id>|object <id>|type <name>|system> <allow|deny>")
            except (RelacError, IndexError) as exc:
                col.error(lineno, str(exc))
        elif kw == "cw-member" and len(tokens) == 2:
            cw_member = tokens[1]
            if cw_member not in model.relations:
                col.error(lineno, f"undeclared relation {cw_member!r}")
        elif kw == "cw-userpath" and len(tokens) >= 2:
            cond = _parse_condition(line.split(None, 1)[1], model, col, lineno)
            if cond is not None:
                cw_user_paths.append(cond)
        elif kw == "cw-objectpath" and len(tokens) >= 2:
            cond = _parse_condition(line.split(None, 1)[1], model, col, lineno)
            if cond is not None:
                cw_object_paths.append(cond)
        elif kw == "cw-principal" and len(tokens) == 2:
            cw_principal = tokens[1]
        elif kw == "sod" and len(tokens) >= 3:
            sod_spec = (tokens[1], tuple(tokens[2:]))
        else:
            col.error(lineno, f"unrecognized policy directive: {' '.join(tokens)}")

    if system_default is None:
        col.error(None, "a system-wide default must be specified: default system <allow|deny>")
        col.finish()

    chinese_wall = None
    if cw_member or cw_user_paths or cw_object_paths:
        if not (cw_member and cw_user_paths and cw_object_paths):
            col.error(None, "chinese-wall setup needs cw-member, cw-userpath and cw-objectpath")
        else:
            chinese_wall = ChineseWallConfig(
                membership_relation=cw_member,
                user_paths=tuple(cw_user_paths),
                object_paths=tuple(cw_object_paths),
                principal=cw_principal,
            )
            if shape is PmpShape.DAG:
                col.error(None, "chinese-wall rule generation supports set/list policies")
            else:
                rules.extend(
                    build_chinese_wall_rules(
                        chinese_wall.user_paths,
                        chinese_wall.object_paths,
                        chinese_wall.principal,
                    )
                )

    col.finish()

    if shape is PmpShape.DAG:
        n = len(rules)
        referenced = {b for _, b in dag_edges}
        roots = [i for i in range(n) if i not in referenced]
        if len(roots) > 1:
            # Conventional fix-up: hang every parentless rule off a fresh
            # (all, none, null) root.
            root_index = n
            rules.append(PmRule(ALL, NONE, NULL_PRINCIPAL))
            dag_edges.extend((root_index, i) for i in roots)
            col.warn(None, f"dag policy had {len(roots)} roots; inserted (all,none,null) root")

    try:
        pmp = Pmp(shape, rules, tuple(dag_edges))
        policy = ExtendedAuthPolicy(tuple(auth_rules), crs)
    except RelacError as exc:
        raise FileFormatError([f"{source}: {exc}"], source) from exc

    if sod_spec is not None:
        obj, actions = sod_spec
        try:
            pmp, policy = build_sod_policy(pmp, policy, obj, actions)
        except RelacError as exc:
            raise FileFormatError([f"{source}: {exc}"], source) from exc

    defaults = DefaultTable(
        system_wide=system_default,
        per_subject=per_subject,
        per_object=per_object,
        per_type=per_type,
    )
    return ParsedPolicy(
        pmp=pmp,
        policy=policy,
        defaults=defaults,
        chinese_wall=chinese_wall,
        warnings=col.warnings,
    )


def load_policy(path: str | Path, model: SystemModel) -> ParsedPolicy:
    return parse_policy(read_text(path), model, str(path))


# --- request / pair batches ---------------------------------------------------

def _rows(text: str, fields: tuple[str, ...]) -> list[tuple[int, tuple[str, ...] | str]]:
    """Per line: (lineno, one token per field) or (lineno, error text)."""
    usage = " ".join(f"<{name}>" for name in fields)
    return [
        (lineno, tuple(tokens)) if len(tokens) == len(fields)
        else (lineno, f"expected: {usage}, got {' '.join(tokens)!r}")
        for lineno, tokens, _ in _lines(text)
    ]


def parse_requests(text: str) -> list[tuple[int, tuple[str, str, str] | str]]:
    """Per line: (lineno, (subject, object, action)) or (lineno, error text)."""
    return _rows(text, ("subject", "object", "action"))


def parse_pairs(text: str) -> list[tuple[int, tuple[str, str] | str]]:
    """Per line: (lineno, (subject, object)) or (lineno, error text)."""
    return _rows(text, ("subject", "object"))
