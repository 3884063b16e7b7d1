"""A clock that reports time at a fixed reference speed of the machine.

On a shared host the same Python code runs up to half again slower for
seconds at a time while neighbours load it, and the host now and then
takes the CPU away for milliseconds. Both swamp the differences the
benchmark has to resolve. Two measures counter them:

* Single calls are timed in CPU time of the calling thread (``cpu_ns``),
  which leaves out the time the thread did not run. The client is one
  thread that waits on nothing but relac, so that is its service time.
* The clock cuts the measured work into slices of about ``SLICE_NS`` and,
  between two slices, times a fixed pure-Python kernel: a frozen miniature
  of relac's matching path on a seeded graph, kept here so that no change
  to relac can move it. Every time measured inside a slice
  is scaled by ``NOMINAL_NS`` over the mean kernel time on either side of
  the slice, that is, reported as if the machine ran at the speed at which
  the kernel takes ``NOMINAL_NS``. The kernel runs off the clock.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns, thread_time_ns

cpu_ns = thread_time_ns

SLICE_NS = 20_000_000
NOMINAL_NS = 2_000_000

# --- the kernel --------------------------------------------------------------
#
# A frozen miniature of relac's request path as it stood when the benchmark
# was written: a labelled graph answering one-step neighbour queries by
# copying sets, automata with per-state arcs, the breadth-first product
# search with early exit, four rules per request with a precluded check,
# and frozen result objects. Code of the same shape slows down the same way
# when the host is loaded; a plain loop does not.


class _Graph:
    def __init__(self, rng: random.Random):
        users = [f"u{i}" for i in range(1500)]
        groups = [f"g{i}" for i in range(60)]
        docs = [f"d{i}" for i in range(2500)]
        self.types = {**{u: "user" for u in users}, **{g: "group" for g in groups},
                      **{d: "doc" for d in docs}}
        self.symmetric = frozenset({"peer"})
        self.out: dict[str, dict[str, set[str]]] = {v: {} for v in self.types}
        self.inn: dict[str, dict[str, set[str]]] = {v: {} for v in self.types}
        for i in range(1, len(groups)):
            self._add(groups[i], groups[(i - 1) // 2], "sub")
        for u in users:
            self._add(u, rng.choice(groups), "member")
            self._add(u, rng.choice(users), "peer")
        for d in docs:
            self._add(groups[int(len(groups) * rng.random() ** 2)], d, "owns")
            if rng.random() < 0.3:
                self._add(rng.choice(users), d, "owns")
        self.requests = [(rng.choice(users), rng.choice(docs)) for _ in range(6)]

    def _add(self, frm: str, to: str, label: str) -> None:
        self.out[frm].setdefault(label, set()).add(to)
        self.inn[to].setdefault(label, set()).add(frm)

    def neighbors(self, node: str, label: str) -> set[str]:
        if node not in self.types:
            raise KeyError(node)
        rev = label.startswith("~")
        base = label[1:] if rev else label
        symmetric = base in self.symmetric
        if rev and not symmetric:
            return set(self.inn[node].get(base, ()))
        result = set(self.out[node].get(base, ()))
        if symmetric:
            result.update(self.inn[node].get(base, ()))
        return result


class _View:
    def __init__(self, graph: _Graph, start: str, accept: str):
        self.graph, self.start, self.accept = graph, start, accept

    def step(self, state: str, label: str) -> set[str]:
        return self.graph.neighbors(state, label)

    def is_accepting(self, state: str) -> bool:
        return state == self.accept


class _Nfa:
    def __init__(self, arcs: tuple[tuple[int, int, str], ...], final: int):
        self.arcs: dict[int, list[tuple[str, int]]] = {}
        for q, q2, label in arcs:
            self.arcs.setdefault(q, []).append((label, q2))
            self.arcs.setdefault(q2, [])
        self.start, self.accepting = 0, frozenset({final})

    def out(self, state: int):
        return self.arcs[state]

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting


@dataclass(frozen=True)
class _Found:
    nonempty: bool
    visits: int


def _search(m1: _Nfa, m2: _View) -> _Found:
    start = (m1.start, m2.start)
    seen = {start}
    frontier = deque([start])
    visits = 0
    while frontier:
        q1, q2 = frontier.popleft()
        visits += 1
        for label, n1 in m1.out(q1):
            for n2 in m2.step(q2, label):
                nxt = (n1, n2)
                if nxt in seen:
                    continue
                seen.add(nxt)
                if m1.is_accepting(n1) and m2.is_accepting(n2):
                    return _Found(True, visits + 1)
                frontier.append(nxt)
    return _Found(False, visits)


_GRAPH = _Graph(random.Random(20150528))
_RULES = (  # (principal, mandated, precluded): member;sub+;owns, owns, peer;owns
    ("team", _Nfa(((0, 1, "member"), (1, 2, "sub"), (2, 2, "sub"), (2, 3, "owns")), 3),
     _Nfa(((0, 1, "peer"), (1, 2, "owns")), 2)),
    ("author", _Nfa(((0, 1, "owns"),), 1), None),
    ("colleague", _Nfa(((0, 1, "peer"), (1, 2, "owns")), 2), _Nfa(((0, 1, "owns"),), 1)),
    ("reader", _Nfa(((0, 1, "member"), (1, 2, "owns")), 2), None),
)


def _kernel() -> frozenset[str]:
    matched: frozenset[str] = frozenset()
    for subject, obj in _GRAPH.requests:
        view = _View(_GRAPH, subject, obj)
        matched = frozenset(
            principal for principal, mandated, precluded in _RULES
            if _search(mandated, view).nonempty
            and (precluded is None or not _search(precluded, view).nonempty)
        )
    return matched


def kernel_ns() -> int:
    start = cpu_ns()
    _kernel()
    return cpu_ns() - start


class SpeedClock:
    """Collects raw durations and hands them out scaled to nominal speed.

    ``add`` queues a duration for a list; ``tick`` closes the slice once it
    is long enough (in wall time), and ``flush`` closes it now. Between
    ``start_wall`` and ``stop_wall`` the scaled wall time of every slice
    adds to ``wall_ns``.
    """

    def __init__(self):
        for _ in range(5):
            kernel_ns()
        self.factors: list[float] = []
        self.wall_ns = 0.0
        self._walling = False
        self._pending: list[tuple[list, int]] = []
        self._last = kernel_ns()
        self._slice_start = perf_counter_ns()

    def add(self, bucket: list, raw_ns: int) -> None:
        self._pending.append((bucket, raw_ns))

    def tick(self) -> None:
        if perf_counter_ns() - self._slice_start >= SLICE_NS:
            self.flush()

    def flush(self) -> None:
        end = perf_counter_ns()
        now = kernel_ns()
        factor = NOMINAL_NS / ((self._last + now) / 2)
        for bucket, raw in self._pending:
            bucket.append(raw * factor)
        self._pending.clear()
        if self._walling:
            self.wall_ns += (end - self._slice_start) * factor
        self.factors.append(factor)
        self._last = now
        self._slice_start = perf_counter_ns()

    def start_wall(self) -> None:
        self.flush()
        self.wall_ns = 0.0
        self._walling = True

    def stop_wall(self) -> float:
        """Close the slice and return the scaled wall time since
        ``start_wall``."""
        self.flush()
        self._walling = False
        return self.wall_ns
