"""relac benchmark: run one workload in a fresh interpreter.

    python3 perfbench/run.py --workload match-cold|cache-hot|history-replay \\
        --seed N --seconds S --trace 0|1 [--scale X]

Run it from the root of a checkout; it imports relac from ``src`` there.
Each run starts ``bench.py`` in a new interpreter with ``PYTHONHASHSEED``
pinned, so that set iteration order, and with it the product-search visit
counts, repeat exactly for a seed, and so that ``peak_rss_mb`` belongs to
one workload alone. The child's output is passed through; its last stdout
line is the JSON result. The workloads and metrics are declared in
``BENCHMARK.json``; ``perfbench/TRAFFIC.json`` records what each
workload's traffic looks like.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

HASH_SEED = "0"
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    bench = Path(__file__).resolve().parent / "bench.py"
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONDONTWRITEBYTECODE="1")
    # Turn SIGTERM into SystemExit so that the child is stopped below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen([sys.executable, str(bench), *argv], env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run: benchmark did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
