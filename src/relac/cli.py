"""Command-line front end.

Subcommands: ``validate`` checks the three workspace files, ``eval``
decides a single request, ``batch`` replays a requests file sequentially
(history writeback between lines, so duty-separation and wall scenarios
replay faithfully) and ``warm`` precomputes caching edges for a pairs file.

Result lines are stable tab-separated ``decision<TAB>principals<TAB>source``
records; anything diagnostic (traces, notices, summaries) goes out prefixed
with ``#``. Exit codes: 0 allow/success, 1 deny/violations, 2 error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import fileformat
from .engine import EvalResult, Evaluator, HistoryConfig, Request
from .errors import FileFormatError, RelacError
from .policy import Decision

__all__ = ["main", "Workspace"]

EXIT_OK = 0  # allow, success
EXIT_FAIL = 1  # deny, violations
EXIT_ERROR = 2


@dataclass
class Workspace:
    """The three loaded inputs plus evaluation options."""

    model_path: Path
    graph_path: Path
    policy_path: Path
    caching: bool = True
    audit: bool = True
    trace: bool = False
    commit: bool = False
    cache_capacity: int | None = None

    def load(self) -> tuple[Evaluator, list[str]]:
        model = fileformat.load_model(self.model_path)
        graph = fileformat.load_graph(self.graph_path, model, self.cache_capacity)
        parsed = fileformat.load_policy(self.policy_path, model)
        config = HistoryConfig(
            caching_enabled=self.caching,
            decision_audit_enabled=self.audit,
            chinese_wall=parsed.chinese_wall,
        )
        evaluator = Evaluator(graph, parsed.pmp, parsed.policy, parsed.defaults, config)
        return evaluator, parsed.warnings

    def persist(self, evaluator: Evaluator) -> None:
        fileformat.save_graph(evaluator.graph, self.graph_path)


def _print_result(prefix: str, result: EvalResult) -> None:
    if result.trace:
        for line in result.trace:
            print(f"# {line}")
    principals = ",".join(sorted(result.matched)) or "-"
    print(f"{prefix}{result.decision.value}\t{principals}\t{result.source_text}")


def cmd_validate(ws: Workspace) -> int:
    clean = True
    try:
        model = fileformat.load_model(ws.model_path)
    except FileFormatError as exc:
        for message in exc.messages:
            print(message, file=sys.stderr)
        return EXIT_FAIL
    try:
        fileformat.load_graph(ws.graph_path, model, ws.cache_capacity)
    except FileFormatError as exc:
        for message in exc.messages:
            print(message, file=sys.stderr)
        clean = False
    try:
        parsed = fileformat.load_policy(ws.policy_path, model)
        for notice in parsed.warnings:
            print(f"# notice: {notice}")
    except FileFormatError as exc:
        for message in exc.messages:
            print(message, file=sys.stderr)
        clean = False
    if clean:
        print("# ok")
        return EXIT_OK
    return EXIT_FAIL


def cmd_eval(ws: Workspace, subject: str, obj: str, action: str) -> int:
    evaluator, warnings = ws.load()
    if ws.trace:
        for notice in warnings:
            print(f"# notice: {notice}")
    result = evaluator.evaluate(Request(subject, obj, action), trace=ws.trace)
    _print_result("", result)
    if ws.commit:
        ws.persist(evaluator)
    return EXIT_OK if result.decision is Decision.ALLOW else EXIT_FAIL


def cmd_batch(ws: Workspace, requests_path: Path) -> int:
    evaluator, _ = ws.load()
    entries = fileformat.parse_requests(fileformat.read_text(requests_path))
    allows = denies = errors = 0
    for lineno, entry in entries:
        if isinstance(entry, str):
            print(f"{requests_path}:{lineno}: {entry}", file=sys.stderr)
            errors += 1
            continue
        subject, obj, action = entry
        try:
            result = evaluator.evaluate(Request(subject, obj, action), trace=ws.trace)
        except RelacError as exc:
            print(f"{subject} {obj} {action}\terror\t-\t{exc}", file=sys.stdout)
            errors += 1
            continue
        _print_result(f"{subject} {obj} {action}\t", result)
        if result.decision is Decision.ALLOW:
            allows += 1
        else:
            denies += 1
    stats = evaluator.stats
    print(
        f"# summary requests={allows + denies + errors} allow={allows} "
        f"deny={denies} errors={errors} cache-hits={stats.cache_hits} "
        f"principal-computations={stats.principal_computations} "
        f"product-visits={stats.product_visits}"
    )
    if ws.commit:
        ws.persist(evaluator)
    return EXIT_ERROR if errors else EXIT_OK


def cmd_warm(ws: Workspace, pairs_path: Path) -> int:
    evaluator, _ = ws.load()
    entries = fileformat.parse_pairs(fileformat.read_text(pairs_path))
    errors = 0
    written = 0
    for lineno, entry in entries:
        if isinstance(entry, str):
            print(f"{pairs_path}:{lineno}: {entry}", file=sys.stderr)
            errors += 1
            continue
        try:
            written += evaluator.warm([entry])
        except RelacError as exc:
            print(f"{pairs_path}:{lineno}: {exc}", file=sys.stderr)
            errors += 1
    print(written)
    if ws.commit:
        ws.persist(evaluator)
    return EXIT_ERROR if errors else EXIT_OK


def _cache_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, type=Path, help="model (schema) file")
    common.add_argument("--graph", required=True, type=Path, help="system graph file")
    common.add_argument("--policy", required=True, type=Path, help="policy file")
    common.add_argument("--trace", action="store_true", help="print evaluation steps as # lines")
    common.add_argument("--commit", action="store_true", help="persist history writeback to the graph file")
    common.add_argument("--no-cache", action="store_true", help="disable caching edges")
    common.add_argument("--no-audit", action="store_true", help="disable decision audit edges")
    common.add_argument("--target-opt", action="store_true", help="no effect")
    common.add_argument("--cache-cap", type=_cache_cap, default=None, metavar="N", help="max caching edges (FIFO eviction)")

    parser = argparse.ArgumentParser(
        prog="relac", description="relationship-based access control engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common], help="check workspace files")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one request")
    p_eval.add_argument("subject")
    p_eval.add_argument("object")
    p_eval.add_argument("action")

    p_batch = sub.add_parser("batch", parents=[common], help="replay a requests file")
    p_batch.add_argument("requests", type=Path)

    p_warm = sub.add_parser("warm", parents=[common], help="precompute caching edges for pairs")
    p_warm.add_argument("pairs", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    ws = Workspace(
        model_path=args.model,
        graph_path=args.graph,
        policy_path=args.policy,
        caching=not args.no_cache,
        audit=not args.no_audit,
        trace=args.trace,
        commit=args.commit,
        cache_capacity=args.cache_cap,
    )
    try:
        if args.command == "validate":
            return cmd_validate(ws)
        if args.command == "eval":
            return cmd_eval(ws, args.subject, args.object, args.action)
        if args.command == "batch":
            return cmd_batch(ws, args.requests)
        if args.command == "warm":
            return cmd_warm(ws, args.pairs)
    except OSError as exc:
        # An input that cannot be read: missing, a directory. One that is
        # not UTF-8 is a RelacError that names the file.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileFormatError as exc:
        for message in exc.messages:
            print(message, file=sys.stderr)
        return EXIT_ERROR
    except RelacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
