"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload twice, traced, with SEED and requires every exact
   count (the per-layer metrics marked exact in layers.py) and every
   simulate report digest seen in both runs to be identical.
2. Runs every workload once, untraced, with HOLDOUT, a seed not used while
   the benchmark was written, and requires ``correct`` to be true.

Prints one line per check and exits 0 only if all of them hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from layers import EXACT

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("session", "churn", "simulate")
SEED = 7
HOLDOUT = 90210
SECONDS = 10


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result object and the simulate report digests of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed: {proc.stderr.strip()}")
    digests = dict(line.split()[2::2] for line in lines if line.startswith("# report "))
    return json.loads(lines[-1]), digests


def main() -> int:
    good = True
    for workload in WORKLOADS:
        (first, d1), (second, d2) = (bench(workload, SEED, SECONDS, 1) for _ in range(2))
        differ = [
            name for name in EXACT
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]
        ]
        differ += [f"report {s}" for s in d1.keys() & d2.keys() if d1[s] != d2[s]]
        ok = not differ and first["correct"] and second["correct"]
        good &= ok
        print(f"{'ok' if ok else 'FAIL'} exact counts repeat: {workload} seed {SEED}"
              + (f" (differ: {', '.join(differ)})" if differ else ""))
    for workload in WORKLOADS:
        result, _ = bench(workload, HOLDOUT, SECONDS, 0)
        ok = result["correct"]
        good &= ok
        print(f"{'ok' if ok else 'FAIL'} oracle holds: {workload} seed {HOLDOUT} "
              f"({result['attempted']} attempted, {result['failed']} failed)")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
