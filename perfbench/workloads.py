"""The three workloads: set-up, the measured closed loop and the checks.

One client in one thread sends a request, waits for the decision and only
then sends the next one, as callers of ``Evaluator.evaluate`` and
``relac batch`` do. Correctness checks run inside the loop but off the
clock. What is measured is the CPU time of each relac call and, for
``relac batch``, the wall time of the whole batch, both scaled by the
:class:`SpeedClock`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import gen
from speedclock import SpeedClock, cpu_ns
from tracing import Patches, Tracer

from relac import cli, fileformat
from relac.engine import Evaluator, HistoryConfig, Request
from relac.errors import RelacError
from relac.graph import DecisionAudit, SystemGraph


@dataclass
class Pass:
    """What one measured pass saw. Times are in nanoseconds at the clock's
    nominal speed, except ``raw_ns``, the unscaled time of the measured
    calls (CPU time) or batches (wall time)."""

    requests: int = 0
    busy_ns: float = 0.0
    raw_ns: int = 0
    latencies: array = field(default_factory=lambda: array("d"))
    writes: array = field(default_factory=lambda: array("d"))
    blocks: list[float] = field(default_factory=list)
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    decisions: dict[str, int] = field(default_factory=dict)
    sources: dict[str, int] = field(default_factory=dict)
    pairs: list[tuple[str, str]] | None = None
    epoch_advances: int = 0
    eval_stats: dict[str, int] = field(default_factory=dict)

    def record(self, decision: str, source: str, subject: str, obj: str) -> None:
        self.decisions[decision] = self.decisions.get(decision, 0) + 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if self.pairs is not None:
            self.pairs.append((subject, obj))


_STATS = ("principal_computations", "cache_hits", "cache_writes")


def _stats(evaluators: list[Evaluator]) -> dict[str, int]:
    return {k: sum(getattr(ev.stats, k) for ev in evaluators) for k in _STATS}


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


# --- the document graph workloads ----------------------------------------------


class DocWorkload:
    """Common loop of match-cold and cache-hot: requests from a seeded
    stream, a graph write every ``write_every`` requests, a timed block
    every ``block`` requests."""

    name = ""
    write_every = 0
    block = 0
    stream_length = 0
    trace_requests = 0
    # Writes each add a new edge; more than a run at ten times today's
    # speed can use, so that every write changes the graph.
    fresh_edges = 5000

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.rng = random.Random(seed)
        self.stream_length = _scaled(self.stream_length, scale, 400)
        self.trace_requests = _scaled(self.trace_requests, scale, 200)
        self.inputs = gen.doc_graph(self.rng, scale, n_fresh=self.fresh_edges)

    def build_graph(self):
        model = fileformat.parse_model(gen.DOC_MODEL)
        graph = SystemGraph(model)
        for node, type_name in self.inputs.entities:
            graph.add_entity(node, type_name)
        for frm, to, label in self.inputs.edges:
            graph.add_relationship(frm, to, label)
        return model, graph

    def policy(self, model, shape: str):
        return fileformat.parse_policy(self.inputs.policies[shape], model)

    def sizes(self) -> dict:
        return {
            "nodes": len(self.inputs.entities),
            "edges": len(self.inputs.edges),
            "stream_requests": self.stream_length,
            "write_every": self.write_every,
            "block_requests": self.block,
            "trace_requests": self.trace_requests,
        }

    def prepare_checks(self, state) -> None:
        """An uncached evaluator without writeback on the same graph,
        unfiltered, with the policy of shape ``reference_shape``."""
        parsed = self.policy(state["model"], self.reference_shape)
        state["reference"] = Evaluator(state["graph"], parsed.pmp, parsed.policy,
                                       parsed.defaults, HistoryConfig())

    def check(self, state, i: int, request: Request, result, run: Pass) -> None:
        raise NotImplementedError

    def run(self, state, clock: SpeedClock, *, seconds: float | None = None,
            requests: int | None = None, tracer: Tracer | None = None) -> Pass:
        """Serve the stream for ``seconds`` of wall time, or exactly
        ``requests`` requests from the start of the stream. The measured
        time is the CPU time spent inside relac calls."""
        graph, rotation = state["graph"], state["rotation"]
        fresh = self.inputs.fresh_edges
        stream = self.stream
        run = Pass(pairs=[] if tracer is not None else None)
        epoch0 = graph.epoch
        stats0 = _stats([ev for _, ev in rotation])
        clock.flush()
        deadline = perf_counter_ns() + int((seconds or 0) * 1e9)
        i = 0
        while i < requests if requests is not None else perf_counter_ns() < deadline:
            subject, obj, action = stream[i % len(stream)]
            label, evaluator = rotation[i % len(rotation)]
            if tracer is not None:
                tracer.label = label
            request = Request(subject, obj, action)
            t0 = cpu_ns()
            try:
                result = evaluator.evaluate(request)
            except RelacError as exc:
                run.failures.append(f"{label} {subject} {obj} {action}: {exc}")
                result = None
            elapsed = cpu_ns() - t0
            clock.add(run.latencies, elapsed)
            run.raw_ns += elapsed
            if result is not None:
                run.record(result.decision.value, result.source_text, subject, obj)
                if tracer is not None:
                    tracer.paused = True
                self.check(state, i, request, result, run)
                if tracer is not None:
                    tracer.paused = False
            i += 1
            if i % self.write_every == 0:
                frm, to, label = fresh[(i // self.write_every - 1) % len(fresh)]
                t0 = cpu_ns()
                added = graph.add_relationship(frm, to, label)
                elapsed = cpu_ns() - t0
                clock.add(run.writes, elapsed)
                run.raw_ns += elapsed
                if not added:
                    run.failures.append(f"write {frm} {to} {label} changed nothing")
            clock.tick()
        clock.flush()
        run.requests = i
        run.busy_ns = sum(run.latencies) + sum(run.writes)
        per_block = self.block // self.write_every
        run.blocks = [
            sum(run.latencies[b * self.block:(b + 1) * self.block])
            + sum(run.writes[b * per_block:(b + 1) * per_block])
            for b in range(i // self.block)
        ]
        run.epoch_advances = graph.epoch - epoch0
        stats1 = _stats([ev for _, ev in rotation])
        run.eval_stats = {k: stats1[k] - stats0[k] for k in _STATS}
        return run


class MatchCold(DocWorkload):
    """Uniform random requests rotating over four uncached evaluators."""

    name = "match-cold"
    write_every = 100
    block = 500
    stream_length = 60000
    trace_requests = 2000
    shapes = ("set", "list", "dag", "set-filtered")
    # Every set-filtered decision must equal the unfiltered set one.
    reference_shape = "set"

    def __init__(self, seed: int, scale: float, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.stream = gen.uniform_requests(self.rng, self.inputs, self.stream_length)

    def setup(self) -> dict:
        model, graph = self.build_graph()
        rotation = []
        for label in self.shapes:
            parsed = self.policy(model, label.split("-")[0])
            evaluator = Evaluator(graph, parsed.pmp, parsed.policy, parsed.defaults,
                                  HistoryConfig(), target_filter=label == "set-filtered")
            rotation.append((label, evaluator))
        return {"graph": graph, "rotation": rotation, "model": model}

    def check(self, state, i, request, result, run) -> None:
        if state["rotation"][i % 4][0] != "set-filtered":
            return
        want = state["reference"].evaluate(request).decision
        run.checks += 1
        if want is not result.decision:
            run.failures.append(
                f"set-filtered {request} decided {result.decision.value}, set {want.value}")


class CacheHot(DocWorkload):
    """Zipf requests over a warmed hot set on one caching list evaluator,
    with a rare structural write that stales the whole cache."""

    name = "cache-hot"
    hot_pairs = 512
    reference_shape = "list"
    write_every = 16000
    block = 16000
    stream_length = 96000
    trace_requests = 32000
    check_every = 257

    def __init__(self, seed: int, scale: float, workdir: Path):
        super().__init__(seed, scale, workdir)
        self.hot = gen.zipf_hot_set(self.rng, self.inputs, self.hot_pairs)
        self.stream = gen.zipf_requests(self.rng, self.hot, self.stream_length)

    def sizes(self) -> dict:
        return {**super().sizes(), "hot_pairs": self.hot_pairs}

    def setup(self) -> dict:
        model, graph = self.build_graph()
        parsed = self.policy(model, "list")
        evaluator = Evaluator(
            graph, parsed.pmp, parsed.policy, parsed.defaults,
            HistoryConfig(caching_enabled=True, decision_audit_enabled=True),
        )
        evaluator.warm(self.hot)
        return {"graph": graph, "rotation": [("list", evaluator)], "model": model}

    def check(self, state, i, request, result, run) -> None:
        if i % self.check_every:
            return
        want = state["reference"].evaluate(request)
        run.checks += 1
        if (want.decision, want.matched) != (result.decision, result.matched):
            run.failures.append(
                f"cached {request} gave {result.decision.value} {sorted(result.matched)}, "
                f"uncached {want.decision.value} {sorted(want.matched)}")


# --- history replay through the CLI -----------------------------------------------


def _timed(clock: SpeedClock, samples: list, tick: bool = False):
    """Wrapper maker that times each call into ``samples`` through the
    clock, and lets the clock close a slice after the call when ``tick``."""
    def make(fn):
        def wrapper(*args, **kwargs):
            t0 = cpu_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                clock.add(samples, cpu_ns() - t0)
                if tick:
                    clock.tick()

        return wrapper

    return make


def _keep(loaded: list):
    """Workspace.load wrapper that keeps the evaluator and its start epoch."""
    def make(fn):
        def wrapper(workspace):
            evaluator, warnings = fn(workspace)
            loaded.append((evaluator, evaluator.graph.epoch))
            return evaluator, warnings

        return wrapper

    return make


class HistoryReplay:
    """``relac batch --commit`` over a Chinese Wall plus separation-of-duty
    workspace, run in-process on a fresh copy of the graph file."""

    name = "history-replay"

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.ws = gen.wall_workspace(random.Random(seed), scale)
        self.dir = workdir
        self.paths = {k: workdir / f"{k}.txt" for k in ("model", "graph", "policy", "requests")}
        texts = {
            "model": self.ws.model,
            "graph": self.ws.graph,
            "policy": self.ws.policy,
            "requests": "".join(f"{s} {o} {a}\n" for s, o, a in self.ws.requests),
        }
        for key, path in self.paths.items():
            path.write_text(texts[key], encoding="utf-8")
        self.batch_graph = workdir / "batch-graph.txt"
        self.trace_requests = len(self.ws.requests)

    def sizes(self) -> dict:
        return {
            "nodes": sum(ln.startswith("entity ") for ln in self.ws.graph.splitlines()),
            "edges": sum(ln.startswith("edge ") for ln in self.ws.graph.splitlines()),
            "batch_requests": len(self.ws.requests),
            "trace_requests": len(self.ws.requests),
        }

    def setup(self) -> dict:
        evaluator, _ = cli.Workspace(
            self.paths["model"], self.paths["graph"], self.paths["policy"]
        ).load()
        return {"evaluator": evaluator}

    def prepare_checks(self, state) -> None:
        """Decisions of a fresh, uncached evaluator replaying the stream."""
        model = fileformat.load_model(self.paths["model"])
        graph = fileformat.load_graph(self.paths["graph"], model)
        parsed = fileformat.load_policy(self.paths["policy"], model)
        reference = Evaluator(
            graph, parsed.pmp, parsed.policy, parsed.defaults,
            HistoryConfig(decision_audit_enabled=True, chinese_wall=parsed.chinese_wall),
        )
        state["model"] = model
        state["expected"] = [
            reference.evaluate(Request(*r)).decision.value for r in self.ws.requests
        ]

    def batch(self, state, clock: SpeedClock, run: Pass, tracer: Tracer | None) -> None:
        """One ``relac batch --commit`` with its checks, added to ``run``.
        Untraced, each request is timed and the clock may slice between
        requests; traced, the batch is one slice so that no kernel run
        lands inside a span."""
        shutil.copyfile(self.paths["graph"], self.batch_graph)
        out = io.StringIO()
        patches = Patches()
        loaded = []
        patches.wrap(cli.Workspace, "load", _keep(loaded))
        if tracer is None:
            patches.wrap(Evaluator, "evaluate", _timed(clock, run.latencies, tick=True))
            patches.wrap(SystemGraph, "record_typed_edge", _timed(clock, run.writes))
        argv = ["batch", "--model", str(self.paths["model"]), "--graph", str(self.batch_graph),
                "--policy", str(self.paths["policy"]), "--commit", str(self.paths["requests"])]
        clock.start_wall()
        t0 = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            run.raw_ns += perf_counter_ns() - t0
            wall = clock.stop_wall()
            patches.undo()
        run.blocks.append(wall)
        run.busy_ns += wall
        if loaded:
            evaluator, epoch0 = loaded[0]
            run.epoch_advances += evaluator.graph.epoch - epoch0
            for k, v in _stats([evaluator]).items():
                run.eval_stats[k] = run.eval_stats.get(k, 0) + v
        run.requests += len(self.ws.requests)
        if code != 0:
            run.failures.append(f"relac batch exited with {code}")
        lines = [ln for ln in out.getvalue().splitlines() if ln and not ln.startswith("#")]
        got = []
        for line, (s, o, _) in zip(lines, self.ws.requests):
            fields = line.split("\t")
            got.append(fields[1])
            run.record(fields[1], fields[3], s, o)
        if tracer is not None:
            tracer.paused = True
        self.state_checks(state, run, got)
        if tracer is not None:
            tracer.paused = False

    def state_checks(self, state, run: Pass, got: list[str]) -> None:
        expected = state["expected"]
        run.checks += 1
        if len(got) != len(expected):
            run.failures.append(f"batch printed {len(got)} decisions for {len(expected)} requests")
        run.failures += [
            f"request {i} {self.ws.requests[i]}: batch {g}, fresh replay {e}"
            for i, (g, e) in enumerate(zip(got, expected)) if g != e
        ]
        try:
            graph = fileformat.load_graph(self.batch_graph, state["model"])
        except RelacError as exc:
            run.failures.append(f"committed graph does not reload: {exc}")
            return
        sod: dict[str, set[str]] = {}
        walls: dict[tuple[str, str], set[str]] = {}
        for frm, to, kind in graph.typed_edges():
            if not isinstance(kind, DecisionAudit) or not kind.allowed:
                continue
            if to == "ledger0" and kind.action in gen.SOD_ACTIONS:
                sod.setdefault(frm, set()).add(kind.action)
            elif kind.action == "read":
                company = self.ws.file_company[to]
                walls.setdefault((frm, self.ws.company_class[company]), set()).add(company)
        run.failures += [f"{u} holds @allow for {sorted(a)} on ledger0"
                         for u, a in sod.items() if len(a) > 1]
        run.failures += [f"{u} read companies {sorted(c)} of class {k}"
                         for (u, k), c in walls.items() if len(c) > 1]

    def run(self, state, clock: SpeedClock, *, seconds: float | None = None,
            requests: int | None = None, tracer: Tracer | None = None) -> Pass:
        """Batches until ``seconds`` of wall time have passed, or exactly
        one batch when ``requests`` is given (the traced pass)."""
        run = Pass(pairs=[] if tracer is not None else None)
        if tracer is not None:
            tracer.label = "set"
        deadline = perf_counter_ns() + int((seconds or 0) * 1e9)
        while True:
            self.batch(state, clock, run, tracer)
            gc.collect()  # free the batch's graph before the next one loads
            if requests is not None or perf_counter_ns() >= deadline:
                return run

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MatchCold, CacheHot, HistoryReplay)}


def timed_setups(workload, clock: SpeedClock, repeats: int) -> tuple[dict, list[float]]:
    """Set up ``repeats`` times; keep the last state, return every time in
    seconds."""
    times = []
    state = None
    for _ in range(repeats):
        state = None
        gc.collect()
        clock.start_wall()
        state = workload.setup()
        times.append(clock.stop_wall() / 1e9)
    return state, times

