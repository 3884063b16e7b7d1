"""Write ``perfbench/TRAFFIC.json``: sizes and traffic properties per workload.

    python3 perfbench/record_traffic.py [--seeds 1,2,3]

Runs the traced pass of every workload in BENCHMARK.json for each seed and
records what its requests look like: share of repeated (subject, object)
pairs, cache hit ratio, decision, decision-source and default-level mix,
product visits and graph writes per request. A change that helps only
repeated pairs or only history writes can cite these shares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in args.seeds.split(","):
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", seed,
                 "--seconds", str(spec["run_seconds"]), "--trace", "1"],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            report = json.loads((HERE / "_out" / f"{name}-trace1.json").read_text())
            runs.append({"seed": int(seed), **report["traffic"]})
        record[name] = {"why": workload["why"], "sizes": report["sizes"], "traffic": runs}
    (HERE / "TRAFFIC.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
