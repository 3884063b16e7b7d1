"""One benchmark run in a fresh interpreter (started by ``run.py``).

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 [--scale X]

``--trace 0`` sets up several times (``setup_s`` is their median), then
serves the workload closed-loop for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` runs the fixed traced pass twice from a
fresh set-up, once plain and once with every layer wrapped, and prints the
per-layer metrics; their ratio of throughputs is the tracing overhead.

Times are scaled to a nominal machine speed by ``speedclock.SpeedClock``;
single calls are timed in thread CPU time, batches and set-up in wall time.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units it carries are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) lists of
``BENCHMARK.json``. A full report, with the metrics that only some
workloads can have, the traffic properties and the correctness checks,
goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def _import_relac() -> None:
    """Import relac from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import relac
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import relac from {src}: {exc}")
    if not Path(relac.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: relac was imported from {relac.__file__}, not {src}")


def _pct(samples: list[int], q: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in microseconds."""
    if not samples:
        raise ValueError("no samples to take a percentile of")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] / 1e3


def end_to_end(workload, seconds: float) -> tuple[dict, dict]:
    from speedclock import SpeedClock
    from workloads import timed_setups

    clock = SpeedClock()
    state, setups = timed_setups(workload, clock, SETUP_REPEATS)
    workload.prepare_checks(state)
    run = workload.run(state, clock, seconds=seconds)
    # The sample arrays grow with throughput: leave them out, so that a
    # faster program does not read as a bigger one.
    samples = sys.getsizeof(run.latencies) + sys.getsizeof(run.writes)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - samples / 2**20
    metrics = {
        "throughput_rps": run.requests / (run.busy_ns / 1e9),
        "latency_p50_us": _pct(run.latencies, 0.50),
        "latency_p99_us": _pct(run.latencies, 0.99),
        "write_latency_p50_us": _pct(run.writes, 0.50),
        # The mean, not the median: on a noisy host block times fall into
        # a fast and a slow mode, and the median jumps between them.
        "batch_wall_s": statistics.fmean(run.blocks) / 1e9,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    detail = {
        "setup_times_s": setups,
        "latency_samples": len(run.latencies),
        "write_samples": len(run.writes),
        "blocks": len(run.blocks),
        "speed_factor_quartiles": statistics.quantiles(clock.factors, n=4),
        "block_s": [b / 1e9 for b in run.blocks],
    }
    return metrics, {"run": run, "detail": detail}


def per_layer(workload) -> tuple[dict, dict]:
    from speedclock import SpeedClock
    from tracing import Tracer
    from workloads import timed_setups

    n = workload.trace_requests
    clock = SpeedClock()
    state, _ = timed_setups(workload, clock, 1)
    workload.prepare_checks(state)
    plain = workload.run(state, clock, requests=n)
    state = None

    tracer = Tracer()
    tracer.install()
    try:
        state, (setup_s,) = timed_setups(workload, clock, 1)
        tracer.paused = True
        workload.prepare_checks(state)
        tracer.paused = False
        first_span = len(tracer.spans)
        run = workload.run(state, clock, requests=n, tracer=tracer)
    finally:
        tracer.uninstall()

    own, calls = tracer.self_times()
    counts = tracer.counts
    stats = run.eval_stats
    evaluations = calls["engine.evaluate"]
    latencies = tracer.request_latencies_ns()
    tried = sum(v for k, v in counts.items() if k.startswith("rules_tried."))
    m = {}
    for name in ("graph.neighbors", "graph.lookup_cache", "graph.add_relationship",
                 "graph.record_typed_edge", "graph.invalidate_caches",
                 "automata.compile_condition", "automata.reachable_accepting",
                 "policy.match_principals", "engine.evaluate", "engine.interest_writeback",
                 "engine.warm", "fileformat.load", "fileformat.save_graph", "cli"):
        m[f"{name}.calls"] = calls[name]
    for name in ("graph.neighbors", "graph.lookup_cache", "graph.add_relationship",
                 "graph.record_typed_edge", "pathcond.parse", "pathcond.simplify",
                 "automata.compile_condition", "automata.intersection_search",
                 "automata.reachable_accepting", "policy.match_principals", "policy.decide",
                 "engine.evaluate", "engine.interest_writeback", "engine.warm",
                 "fileformat.load", "fileformat.save_graph", "cli"):
        m[f"{name}.self_s"] = own[name] / 1e9
    lookups = counts["lookups_in_requests"]
    m.update({
        "graph.cache_hit_ratio": counts["lookup_hits"] / lookups if lookups else 0.0,
        "graph.epoch_advances": run.epoch_advances,
        "automata.searches": counts["searches"],
        "automata.product_visits": counts["product_visits"],
        "automata.visits_per_request": counts["product_visits"] / evaluations,
        "automata.nonempty_ratio": counts["nonempty"] / counts["searches"] if counts["searches"] else 0.0,
        "automata.reachable_accepting.visits": counts["reach_visits"],
        "policy.rules_tried": tried,
        "policy.applicable_ratio": counts["rules_applicable"] / tried if tried else 0.0,
        "engine.principal_computations": stats["principal_computations"],
        "engine.cache_hits": stats["cache_hits"],
        "engine.cache_writes": stats["cache_writes"],
        "engine.evaluate.p50_us": _pct(latencies, 0.50),
        "engine.evaluate.p99_us": _pct(latencies, 0.99),
        "fileformat.graph_bytes_written": counts["graph_bytes_written"],
        "trace.overhead_ratio": (plain.requests / plain.busy_ns) / (run.requests / run.busy_ns),
        "trace.coverage": tracer.top_level_ns(first_span) / run.raw_ns,
    })
    for shape in ("set", "list", "dag", "set-filtered"):
        served = counts[f"requests.{shape}"]
        m[f"policy.rules_tried_per_request.{shape}"] = (
            counts[f"rules_tried.{shape}"] / served if served else 0.0)
    for level in ("subject", "object", "type", "system"):
        m[f"policy.default_level.{level}"] = counts[f"default_level.{level}"]

    traffic = {
        "requests": run.requests,
        "repeated_pair_share": _repeated_share(run.pairs),
        "cache_hit_ratio": m["graph.cache_hit_ratio"],
        "decision_mix": _shares(run.decisions),
        "source_mix": _shares(run.sources),
        "default_level_mix": _shares({lvl: counts[f"default_level.{lvl}"]
                                      for lvl in ("subject", "object", "type", "system")}),
        "visits_per_request": m["automata.visits_per_request"],
        "writes_per_request": (counts["writes_in_requests"] + len(run.writes)) / run.requests,
    }
    out = HERE / "_out"
    tracer.write(out / f"{workload.name}-spans.jsonl")
    detail = {
        "traced_setup_s": setup_s,
        "untraced_rps": plain.requests / (plain.busy_ns / 1e9),
        "traced_rps": run.requests / (run.busy_ns / 1e9),
        "request_time_s": sum(latencies) / 1e9,
        "spans": len(tracer.spans),
    }
    # The untraced pass is checked as well: both must be correct.
    run.checks += plain.checks
    run.failures += plain.failures
    return m, {"run": run, "traffic": traffic, "detail": detail}


def _repeated_share(pairs) -> float:
    seen = set()
    repeats = 0
    for pair in pairs:
        repeats += pair in seen
        seen.add(pair)
    return repeats / len(pairs) if pairs else 0.0


def _shares(counts: dict) -> dict:
    total = sum(counts.values())
    return {k: v / total for k, v in sorted(counts.items())} if total else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies graph and stream sizes (1.0 is the benchmark)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    _import_relac()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        if args.trace:
            metrics, extra = per_layer(workload)
        else:
            metrics, extra = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run = extra["run"]
    metrics["failed_frac"] = len(run.failures) / max(1, run.requests)
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        print(f"bench: no value for declared metrics {missing}", file=sys.stderr)
        return 2
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": workload.sizes(),
        "metrics": metrics,
        "checks": run.checks,
        "failures": run.failures[:50],
        "failure_count": len(run.failures),
        **{k: v for k, v in extra.items() if k != "run"},
        "setting": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        },
    }
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    units = {d["name"]: d["unit"] for d in declared}
    for name, value in sorted(metrics.items()):
        unit = units.get(name, "")
        print(f"# {args.workload} {name} = {value:.6g} {unit}".rstrip())
    print(f"# {args.workload} checks={run.checks} failures={len(run.failures)} "
          f"requests={run.requests}")
    for failure in run.failures[:10]:
        print(f"# failure: {failure}")
    result = {
        "correct": not run.failures and run.checks > 0,
        "attempted": run.requests,
        "failed": len(run.failures),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
