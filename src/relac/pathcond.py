"""Path conditions: the pattern language matched against graph paths.

A path condition is a restricted regular expression over relationship
labels: single (possibly reversed) labels, concatenation (``;``),
one-or-more repetition (postfix ``+``), reversal (prefix ``~``) and the
empty condition ``<>`` which matches a node paired with itself.

The module provides the AST, a parser for the concrete syntax, a canonical
printer (``to_text``) and normalization to simple form (``simplify``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import (
    EmptyInputError,
    PathSyntaxError,
)

__all__ = [
    "PathCondition",
    "Empty",
    "Edge",
    "Concat",
    "Plus",
    "Reverse",
    "Target",
    "AllTarget",
    "NoneTarget",
    "PathTarget",
    "ALL",
    "NONE",
    "parse",
    "to_text",
    "simplify",
    "is_simple",
    "base_labels",
    "lint",
]


# --- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Empty:
    """The empty condition ``<>``: satisfied exactly when both nodes coincide."""


@dataclass(frozen=True)
class Edge:
    """A single edge condition: a label, optionally traversed backwards."""

    label: str
    reversed: bool = False


@dataclass(frozen=True)
class Concat:
    left: "PathCondition"
    right: "PathCondition"


@dataclass(frozen=True)
class Plus:
    """One or more consecutive occurrences of ``inner``."""

    inner: "PathCondition"


@dataclass(frozen=True)
class Reverse:
    """Reversal of an arbitrary sub-condition; only pre-normalization ASTs
    contain this node, ``simplify`` pushes it down into ``Edge.reversed``."""

    inner: "PathCondition"


PathCondition = Union[Empty, Edge, Concat, Plus, Reverse]


# --- targets -----------------------------------------------------------------

@dataclass(frozen=True)
class AllTarget:
    """Matches every request."""


@dataclass(frozen=True)
class NoneTarget:
    """Matches no request."""


@dataclass(frozen=True)
class PathTarget:
    condition: PathCondition


Target = Union[AllTarget, NoneTarget, PathTarget]

ALL = AllTarget()
NONE = NoneTarget()


# --- concrete syntax ----------------------------------------------------------
#
#   pc   := seq
#   seq  := term (";" term)*
#   term := atom "+"*
#   atom := ident | "<>" | "~" atom | "(" pc ")"
#
# ";" concatenates, postfix "+" repeats, prefix "~" reverses. "~" must not be
# applied directly to a bare "<>" (write "~(<>)" if you really mean it; it is
# equivalent to "<>").

IDENT_RE = re.compile(r"[A-Za-z@][A-Za-z0-9_:-]*")

_TOKEN_RE = re.compile(r"\s*(?:(<>)|([;~+()])|([A-Za-z@][A-Za-z0-9_:-]*))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PathSyntaxError(f"unexpected character {stripped[0]!r}", at)
        tok = m.group(1) or m.group(2) or m.group(3)
        tokens.append((tok, m.start(1) if m.group(1) else m.start(2) if m.group(2) else m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], length: int):
        self.tokens = tokens
        self.index = 0
        self.length = length

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return self.length

    def advance(self) -> str:
        tok = self.tokens[self.index][0]
        self.index += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise PathSyntaxError(f"expected {tok!r}", self.position())
        self.advance()

    def seq(self) -> PathCondition:
        parts = [self.term()]
        while self.peek() == ";":
            self.advance()
            parts.append(self.term())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Concat(part, node)
        return node

    def term(self) -> PathCondition:
        node = self.atom()
        while self.peek() == "+":
            self.advance()
            node = Plus(node)
        return node

    def atom(self) -> PathCondition:
        tok = self.peek()
        if tok is None:
            raise PathSyntaxError("unexpected end of input", self.position())
        if tok == "<>":
            self.advance()
            return Empty()
        if tok == "~":
            at = self.position()
            self.advance()
            nxt = self.peek()
            if nxt == "<>":
                raise PathSyntaxError("cannot reverse <> directly", at)
            if nxt is not None and IDENT_RE.fullmatch(nxt):
                self.advance()
                return Edge(nxt, reversed=True)
            return Reverse(self.atom())
        if tok == "(":
            self.advance()
            node = self.seq()
            self.expect(")")
            return node
        if IDENT_RE.fullmatch(tok):
            self.advance()
            return Edge(tok)
        raise PathSyntaxError(f"unexpected token {tok!r}", self.position())


def parse(text: str) -> PathCondition:
    """Parse concrete path-condition syntax into an AST.

    Raises :class:`EmptyInputError` on blank input and
    :class:`PathSyntaxError` (with a column) on malformed input.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise EmptyInputError("empty path condition")
    parser = _Parser(tokens, len(text))
    node = parser.seq()
    if parser.peek() is not None:
        raise PathSyntaxError(
            f"unexpected token {parser.peek()!r}", parser.position()
        )
    return node


# --- canonical printer ---------------------------------------------------------

def to_text(p: PathCondition) -> str:
    """Serialize with minimal parentheses; inverse of :func:`parse`.

    ``parse(to_text(p))`` is structurally identical to ``p`` for every AST,
    including non-simple ones.
    """
    if isinstance(p, Empty):
        return "<>"
    if isinstance(p, Edge):
        return ("~" + p.label) if p.reversed else p.label
    if isinstance(p, Plus):
        inner = to_text(p.inner)
        if isinstance(p.inner, Concat):
            inner = f"({inner})"
        return inner + "+"
    if isinstance(p, Reverse):
        inner = to_text(p.inner)
        # A bare ident after "~" re-parses as a reversed Edge, and "<>",
        # concatenations and pluses are not atoms; parenthesize those.
        if isinstance(p.inner, (Concat, Plus, Empty)) or (
            isinstance(p.inner, Edge) and not p.inner.reversed
        ):
            inner = f"({inner})"
        return "~" + inner
    if isinstance(p, Concat):
        left = to_text(p.left)
        if isinstance(p.left, Concat):
            left = f"({left})"
        return f"{left};{to_text(p.right)}"
    raise TypeError(f"not a path condition: {p!r}")


# --- normalization ---------------------------------------------------------------

def simplify(p: PathCondition, symmetric: Iterable[str] = ()) -> PathCondition:
    """Rewrite ``p`` into normalized simple form.

    Applies the standard equivalences: unit elimination for ``<>``,
    double-reversal cancellation, anti-distribution of reversal over
    concatenation, reversal commuting with ``+``, collapse of directly
    nested ``+``, dropping reversal on symmetric labels, and the canonical
    right-recursive ordering ``p;p+`` for an iterate next to its own plus.
    The result satisfies :func:`is_simple` and is semantically equivalent
    on every graph. Idempotent.
    """
    sym = frozenset(symmetric)
    return _canonicalize(_push(p, False, sym))


def _push(p: PathCondition, rev: bool, sym: frozenset[str]) -> PathCondition:
    if isinstance(p, Empty):
        return p
    if isinstance(p, Edge):
        flipped = p.reversed != rev
        if p.label in sym:
            flipped = False
        return Edge(p.label, flipped)
    if isinstance(p, Reverse):
        return _push(p.inner, not rev, sym)
    if isinstance(p, Plus):
        inner = _push(p.inner, rev, sym)
        if isinstance(inner, Empty):
            return inner
        if isinstance(inner, Plus):
            return inner
        return Plus(inner)
    if isinstance(p, Concat):
        if rev:
            left, right = _push(p.right, True, sym), _push(p.left, True, sym)
        else:
            left, right = _push(p.left, False, sym), _push(p.right, False, sym)
        if isinstance(left, Empty):
            return right
        if isinstance(right, Empty):
            return left
        return Concat(left, right)
    raise TypeError(f"not a path condition: {p!r}")


def _flatten(p: PathCondition) -> list[PathCondition]:
    if isinstance(p, Concat):
        return _flatten(p.left) + _flatten(p.right)
    return [p]


def _canonicalize(p: PathCondition) -> PathCondition:
    if isinstance(p, Plus):
        return Plus(_canonicalize(p.inner))
    if not isinstance(p, Concat):
        return p
    items = [_canonicalize(x) for x in _flatten(p)]
    # Move a plus past a straight copy of its iterate: [x+, x...] -> [x..., x+].
    changed = True
    while changed:
        changed = False
        for i, item in enumerate(items):
            if not isinstance(item, Plus):
                continue
            body = _flatten(item.inner)
            if items[i + 1 : i + 1 + len(body)] == body:
                items[i : i + 1 + len(body)] = body + [item]
                changed = True
                break
    node = items[-1]
    for item in reversed(items[:-1]):
        node = Concat(item, node)
    return node


def is_simple(p: PathCondition) -> bool:
    """True iff ``p`` is in normalized simple form: no ``Reverse`` nodes,
    ``<>`` only as the entire condition, no ``+`` directly nested in ``+``."""
    if isinstance(p, Empty):
        return True
    return _simple_part(p)


def _simple_part(p: PathCondition) -> bool:
    if isinstance(p, Edge):
        return True
    if isinstance(p, Plus):
        return not isinstance(p.inner, (Plus, Empty)) and _simple_part(p.inner)
    if isinstance(p, Concat):
        return _simple_part(p.left) and _simple_part(p.right)
    return False  # Empty inside a compound, Reverse anywhere


# --- misc helpers ---------------------------------------------------------------

def _walk(p: PathCondition) -> Iterator[PathCondition]:
    yield p
    if isinstance(p, Concat):
        yield from _walk(p.left)
        yield from _walk(p.right)
    elif isinstance(p, (Plus, Reverse)):
        yield from _walk(p.inner)


def base_labels(p: PathCondition) -> frozenset[str]:
    """All label names occurring in ``p``, ignoring direction."""
    return frozenset(n.label for n in _walk(p) if isinstance(n, Edge))


def lint(p: PathCondition) -> list[str]:
    """Non-fatal warnings: system labels are only ever written outward from
    a subject, so reversing one is almost certainly a mistake."""
    out = []
    for node in _walk(p):
        if isinstance(node, Edge) and node.reversed and node.label.startswith("@"):
            out.append(f"reversal of system label {node.label!r} is suspicious")
    return out
