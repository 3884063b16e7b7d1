"""Smoke test of the benchmark at a tiny size.

Checks the output contract only: every metric declared in BENCHMARK.json
is printed with its unit, the correctness checks ran and passed, and a
directory without relac's sources makes the benchmark fail. It applies no
timing gate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer times that only some workloads have; the traced run reports
# them in its report file rather than in the result line.
REPORT_ONLY = (
    "graph.lookup_cache.self_s",
    "graph.record_typed_edge.self_s",
    "automata.reachable_accepting.self_s",
    "engine.interest_writeback.self_s",
    "engine.warm.self_s",
    "fileformat.save_graph.self_s",
    "cli.self_s",
)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    for d in declared:
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float))
    report = json.loads((HERE / "_out" / f"{workload}-trace{trace}.json").read_text())
    assert report["checks"] > 0 and report["failure_count"] == 0
    assert report["metrics"]["failed_frac"] == 0
    if trace:
        assert set(REPORT_ONLY) <= set(report["metrics"])
        assert report["traffic"]["requests"] == result["attempted"]


def test_fails_without_relac_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    done = _run(tmp_path, "match-cold", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
