"""Shared pieces of the benchmark: checkout paths, seeded input streams,
the fresh-process command runner, and percentile helpers."""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCHER = os.path.join(ROOT, "perfbench", "launch.py")
BITS = 512
COMMAND_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def import_msss():
    """Import msss from this checkout's ``src/`` and nowhere else."""
    pkg_dir = os.path.join(SRC, "msss")
    if not os.path.isfile(os.path.join(pkg_dir, "cli.py")):
        raise BenchError(f"no msss sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import msss

    if os.path.dirname(os.path.abspath(msss.__file__)) != pkg_dir:
        raise BenchError(f"msss imported from {msss.__file__}, not from {pkg_dir}")
    return msss


def stream(*parts) -> random.Random:
    """A deterministic random stream named by its parts (seed, workload, step)."""
    return random.Random(":".join(str(p) for p in parts))


def draw_set(rng: random.Random, pool, size: int, others) -> frozenset:
    """A random set of ``size`` ids from ``pool`` that neither contains nor
    is contained in any of ``others``, so adding it keeps an antichain
    without dropping a set."""
    pool = sorted(pool)
    while True:
        candidate = frozenset(rng.sample(pool, size))
        if not any(candidate <= o or o <= candidate for o in others):
            return candidate


def sets_arg(sets) -> str:
    """The CLI spelling of an access structure: 'A,B|C'."""
    return "|".join(",".join(sorted(s)) for s in sets)


def file_sizes(workdir: str) -> dict:
    return {
        "board_bytes": os.path.getsize(os.path.join(workdir, "board.json")),
        "dealer_bytes": os.path.getsize(os.path.join(workdir, "dealer.json")),
    }


def fresh_dir(*parts) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Outcome:
    """What one workload run measured and how many of its ops failed."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)  # gated metric name -> value
    named: list = field(default_factory=list)  # (name, value, unit, samples)
    traced: list = field(default_factory=list)  # traced ops in run order
    untraced_ms: list = field(default_factory=list)  # untraced loop op latencies
    facts: dict = field(default_factory=dict)  # file sizes at the end of the window
    notes: list = field(default_factory=list)  # extra report lines


@dataclass
class Command:
    """One finished CLI command: what ran, how it ended, and its timing."""

    kind: str
    rc: int
    stdout: str
    stderr: str
    spawn_ns: int
    exit_ns: int
    spans: list | None = None
    tags: dict = field(default_factory=dict)
    cpu_ns: int = 0  # user + system CPU time of the command's process

    @property
    def ms(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e6

    @property
    def cpu_ms(self) -> float:
        return self.cpu_ns / 1e6

    @property
    def lines(self) -> list[str]:
        return self.stdout.splitlines()


def child_cpu_ns() -> int:
    """User + system CPU time of all reaped child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


class Runner:
    """Runs msss commands one at a time in ``workdir``, each in a fresh
    interpreter started through the launcher, and keeps every finished
    command."""

    def __init__(self):
        self.workdir = ROOT
        self.commands: list[Command] = []

    def run(self, kind: str, *argv, traced: bool = False, **tags) -> Command:
        env = dict(os.environ)
        env.pop("PERFBENCH_SPANS", None)
        spans_path = os.path.join(self.workdir, ".spans.json")
        if traced:
            env["PERFBENCH_SPANS"] = spans_path
        args = [sys.executable, LAUNCHER, *(str(a) for a in argv)]
        cpu_before = child_cpu_ns()
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(
            args,
            cwd=self.workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        exit_ns = time.monotonic_ns()
        cpu_ns = child_cpu_ns() - cpu_before  # one child at a time, reaped by run()
        spans = None
        if traced:
            if not os.path.exists(spans_path):
                raise BenchError(f"traced {kind} wrote no spans: {proc.stderr.strip()}")
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            os.remove(spans_path)
        cmd = Command(kind, proc.returncode, proc.stdout, proc.stderr, spawn_ns, exit_ns, spans, tags,
                      cpu_ns)
        self.commands.append(cmd)
        return cmd


def stand_up(runner: Runner, plan: dict, traced: bool) -> float:
    """Build a board through the CLI: ``setup``, one ``enroll`` per
    participant, one ``share`` per secret. Returns the CPU time of these
    commands in seconds."""
    seeds = iter(plan["seeds"])
    first = len(runner.commands)
    tags = {"traced": traced, "loop": False, "window": True, "cli": True}
    cmd = runner.run("setup", "setup", "--bits", BITS, "--board", "board.json",
                     "--dealer", "dealer.json", "--seed", next(seeds), **tags)
    expect(cmd, 0)
    for pid in plan["pids"]:
        cmd = runner.run("enroll", "enroll", "--id", pid, "--board", "board.json",
                         "--key-out", f"{pid}.key", "--seed", next(seeds), **tags)
        expect(cmd, 0, [f"enrolled {pid}: ps = "], prefix=True)
    for sid, secret in plan["secrets"].items():
        cmd = runner.run("share", "share", "--secret", secret["value"], "--sets",
                         sets_arg(secret["sets"]), "--board", "board.json",
                         "--dealer", "dealer.json", "--seed", next(seeds), **tags)
        expect(cmd, 0, [sid])
    return sum(c.cpu_ns for c in runner.commands[first:]) / 1e9


def check(cmd, rc, lines=None, prefix=False) -> bool:
    """Whether a command ended with the expected exit code and stdout."""
    if cmd.rc != rc:
        return False
    if lines is None:
        return True
    if prefix:
        return len(cmd.lines) == len(lines) and all(
            got.startswith(want) for got, want in zip(cmd.lines, lines)
        )
    return cmd.lines == lines


def expect(cmd, rc, lines=None, prefix=False) -> None:
    """Set-up must succeed: the loop's inputs depend on every step."""
    if not check(cmd, rc, lines, prefix):
        raise BenchError(f"set-up command {cmd.kind} failed ({cmd.rc}): {cmd.stderr.strip()}")
