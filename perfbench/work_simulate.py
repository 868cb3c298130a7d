"""``simulate``: the library path, with no files and no fresh processes.

Calls ``msss.simulate.run_simulation`` in this process at 192-bit primes,
10 participants, 6 secrets and no injected cheaters, over a fixed list of
simulation seeds drawn from the workload seed. Set-up is a
warm-up call on a seed of its own; an untraced run makes three, on three
seeds (``setup_s`` is the median), each followed by a third of the
measuring time. Each call's report must show every session recovered with
a matching tag, no unauthorized coalition accepted, and hash the same as
every earlier report of its seed.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import Command, Outcome, import_msss, median, stream
from tracing import Tracer

PARTICIPANTS = 10
SECRETS = 6
# 192-bit primes, not the CLI workloads' 512. A call's cost varies by about
# 20 % from seed to seed (prime search, random access structures), so a run's
# figure is steady only if it holds many calls: on a 2-vCPU Intel Xeon VM a
# 512-bit call takes 2-2.5 s, a 256-bit call about 0.44 s and a 192-bit call
# about 0.18 s, or some fifty calls in a 10-second run.
PRIME_BITS = 192
SEEDS = 256  # more than a run can call, so each call's cost is a fresh draw
WARM_UPS = 3


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def sound(report: dict) -> bool:
    s = report["summary"]
    return (
        s["cheaters_missed"] == 0
        and s["unauthorized_accepted"] == 0
        and s["recovered"] == s["tag_ok"] == s["sessions"] > 0
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    msss = import_msss()
    rng = stream(seed, "simulate", "plan")
    warm_seeds = [rng.getrandbits(32) for _ in range(WARM_UPS)]
    seeds = [rng.getrandbits(32) for _ in range(SEEDS)]
    tracer = Tracer()
    digests: dict[int, str] = {}
    out = Outcome()

    def call(sim_seed: int, traced: bool, **tags) -> tuple[bool, float]:
        config = msss.SimulationConfig(
            participants=PARTICIPANTS, secrets=SECRETS, bits_per_prime=PRIME_BITS, seed=sim_seed
        )
        if traced:
            tracer.install()
        start = time.monotonic_ns()
        cpu_start = time.thread_time_ns()
        try:
            report = msss.run_simulation(config)
        finally:
            cpu_ns = time.thread_time_ns() - cpu_start
            end = time.monotonic_ns()
            tracer.uninstall()
        command = Command("run_simulation", 0, "", "", start, end, None, tags, cpu_ns)
        if traced:
            command.spans = tracer.take()
            out.traced.append(command)
        ok = sound(report) and digests.setdefault(sim_seed, digest(report)) == digest(report)
        return ok, command

    rounds = 1 if trace else WARM_UPS
    setups, call_s, untraced_ms = [], [], []
    index, looped = 0, 0.0
    for r in range(rounds):
        ok, command = call(warm_seeds[r], trace, loop=False, window=True)
        out.attempted += 1
        out.failed += not ok
        setups.append(command.cpu_ms / 1e3)
        # segment r ends once the loop has run (r + 1) / rounds of its time in total
        started = time.monotonic()
        deadline = started + seconds * (r + 1) / rounds - looped
        while time.monotonic() < deadline or (trace and index < 2):
            # a traced run makes each call twice, traced then untraced
            traced = trace and index % 2 == 0
            number = index // 2 if trace else index
            ok, command = call(seeds[number % SEEDS], traced, loop=True, window=traced and number == 0)
            out.attempted += 1
            out.failed += not ok
            if ok:
                call_s.append(command.cpu_ms / 1e3)
            if not traced:
                untraced_ms.append(command.ms)
            index += 1
        looped += time.monotonic() - started

    out.end_to_end = {
        "setup_s": median(setups),
        "ops_per_s": len(call_s) / sum(call_s) if call_s else 0.0,
        "op_ms.p50": median(call_s) * 1e3,
    }
    out.named = [("simulate_s.p50", median(call_s), "s", len(call_s))]
    out.untraced_ms = untraced_ms
    out.notes = [f"# report {s} sha256 {d}" for s, d in sorted(digests.items())]
    return out
