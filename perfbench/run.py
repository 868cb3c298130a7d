"""msss benchmark: drives the real system the way its users do and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload session --seed 1 --seconds 10 --trace 0

Workloads: ``session`` (participants and combiners, CLI), ``churn`` (the
dealer, CLI) and ``simulate`` (library users, in process); see README.md.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
The lines before it name each metric, its unit and its sample count, and
record the machine. Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from common import BenchError, import_msss
from layers import PER_LAYER, breakdown, summarize

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
)
WORKLOADS = ("session", "churn", "simulate")


def machine(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print("# machine " + json.dumps(machine(args)), flush=True)
    try:
        import_msss()
        if args.workload == "session":
            import work_session as workload
        elif args.workload == "churn":
            import work_churn as workload
        else:
            import work_simulate as workload
        out = workload.run(args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for line in out.notes:
        print(line)
    for name, value, unit, samples in out.named:
        print(f"named {name} = {value:.6g} {unit} (n={samples})")
    failed_ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"named failed_ratio = {failed_ratio:.6g} ratio (n={out.attempted})")
    if args.trace:
        metrics = summarize(out.traced, out.untraced_ms, out.facts)
        spec = [(name, unit) for name, unit, _, _ in PER_LAYER]
        for line in breakdown(out.traced):
            print(line)
    else:
        metrics = out.end_to_end
        spec = END_TO_END
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in spec}
    for name, unit in spec:
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": out.attempted > 0 and out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"# wall {time.monotonic() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
