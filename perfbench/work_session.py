"""``session``: the read path on a small board.

Set-up stands up a board through the CLI: ``setup``, ``enroll`` of 8
participants, ``share`` of 4 secrets with 3 minimal sets each. The loop is
a closed loop of reconstruction sessions, round-robin over every (secret,
set) pair: each member runs ``contribute``, then one ``verify`` and one
``reconstruct`` follow. Every fifth session has one member's contribution
replaced by a different unit mod n, which both checks must pin on that
member (exit 15).

Set sizes follow the round-robin position (1, 2, 3, 4, 1, ...), so every
seed runs the same mix of session sizes and only the members and numbers
differ. The dealer does no work in the loop.

An untraced run stands the board up three times (``setup_s`` is the
median) and runs a third of the measuring time after each stand-up, so
set-up and loop samples both spread over the whole run and drifts in the
machine's speed reach them alike. A traced run stands up once.
"""

from __future__ import annotations

import json
import math
import os
import time

from common import (
    Outcome,
    Runner,
    check,
    draw_set,
    file_sizes,
    fresh_dir,
    median,
    p90,
    stand_up,
    stream,
)

PARTICIPANTS = 8
SECRETS = 4
SETS_PER_SECRET = 3
TAMPER_EVERY = 5
WINDOW_SESSIONS = 5  # the count window ends after the first five sessions
STAND_UPS = 3


def make_plan(seed: int) -> dict:
    rng = stream(seed, "session", "plan")
    pids = [f"P{i:02d}" for i in range(1, PARTICIPANTS + 1)]
    secrets = {}
    for i in range(SECRETS):
        sets: list[frozenset] = []
        for j in range(SETS_PER_SECRET):
            size = 1 + (j * SECRETS + i) % 4
            sets.append(draw_set(rng, pids, size, sets))
        secrets[f"s{i + 1}"] = {"value": rng.getrandbits(480), "sets": sets}
    order = [(f"s{i + 1}", j) for j in range(SETS_PER_SECRET) for i in range(SECRETS)]
    return {
        "seed": seed,
        "pids": pids,
        "secrets": secrets,
        "order": order,
        "seeds": [rng.getrandbits(32) for _ in range(1 + PARTICIPANTS + SECRETS)],
    }


def tamper(workdir: str, path: str, rng) -> None:
    """Replace a contribution's x with a different unit mod n."""
    with open(os.path.join(workdir, "board.json"), encoding="utf-8") as fh:
        n = int(json.load(fh)["params"]["n"], 16)
    full = os.path.join(workdir, path)
    with open(full, encoding="utf-8") as fh:
        contribution = json.load(fh)
    honest = int(contribution["x"], 16)
    while True:
        x = rng.randrange(1, n)
        if x != honest and math.gcd(x, n) == 1:
            break
    contribution["x"] = format(x, "x")
    with open(full, "w", encoding="utf-8") as fh:
        json.dump(contribution, fh)


def run_session(runner, plan, index, traced, window) -> tuple[bool, float]:
    """One reconstruction session; returns (as expected, timed seconds)."""
    sid, set_no = plan["order"][index % len(plan["order"])]
    secret = plan["secrets"][sid]
    members = sorted(secret["sets"][set_no])
    cheater = None
    if index % TAMPER_EVERY == TAMPER_EVERY - 1:
        cheater = stream(plan["seed"], "session", "tamper", index).choice(members)
    tags = {"traced": traced, "loop": True, "window": window, "cli": True}
    ok, spent = True, 0.0
    common = ("--board", "board.json", "--secret-id", sid, "--set", ",".join(members))
    files = [f"c_{pid}.json" for pid in members]
    for pid, path in zip(members, files):
        cmd = runner.run("contribute", "contribute", *common, "--key", f"{pid}.key",
                         "--out", path, "--force", **tags)
        spent += cmd.cpu_ms / 1e3
        ok = ok and cmd.rc == 0 and cmd.stdout.strip().isdigit()
    if cheater is not None:
        tamper(runner.workdir, files[members.index(cheater)], stream(plan["seed"], "session", "x", index))
    tags["tampered"] = cheater
    contributions = [a for path in files for a in ("--contribution", path)]
    cmd = runner.run("verify", "verify", *common, *contributions, **tags)
    spent += cmd.cpu_ms / 1e3
    want = [f"cheater: {pid}" if pid == cheater else f"ok: {pid}" for pid in members]
    ok = ok and check(cmd, 15 if cheater else 0, want)
    cmd = runner.run("reconstruct", "reconstruct", *common, *contributions, **tags)
    spent += cmd.cpu_ms / 1e3
    if cheater:
        ok = ok and check(cmd, 15, [f"cheater: {cheater}"])
    else:
        ok = ok and check(cmd, 0, [str(secret["value"]), "tag: ok"])
    return ok, spent


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    plan = make_plan(seed)
    out = Outcome()
    runner = Runner()
    rounds = 1 if trace else STAND_UPS
    setups, session_s = [], []
    index, looped = 0, 0.0
    for r in range(rounds):
        runner.workdir = fresh_dir("session", f"stand_up{r}")
        setups.append(stand_up(runner, plan, traced=trace))
        out.facts = file_sizes(runner.workdir)
        # segment r ends once the loop has run (r + 1) / rounds of its time in total
        started = time.monotonic()
        deadline = started + seconds * (r + 1) / rounds - looped
        while time.monotonic() < deadline or (trace and index < 2 * WINDOW_SESSIONS):
            # a traced run plays each session twice, traced then untraced
            traced = trace and index % 2 == 0
            number = index // 2 if trace else index
            ok, spent = run_session(runner, plan, number, traced, traced and number < WINDOW_SESSIONS)
            out.attempted += 1
            if ok:
                session_s.append(spent)
            else:
                out.failed += 1
            index += 1
        looped += time.monotonic() - started

    loop = [c for c in runner.commands if c.tags["loop"]]
    reads = {kind: [c.cpu_ms for c in loop if c.kind == kind]
             for kind in ("contribute", "verify", "reconstruct")}
    pooled = [c.cpu_ms for c in loop]
    sessions_per_s = len(session_s) / sum(session_s) if session_s else 0.0
    out.end_to_end = {
        "setup_s": median(setups),
        "ops_per_s": sessions_per_s,
        "op_ms.p50": median(pooled),
    }
    out.named = [
        ("sessions_per_s", sessions_per_s, "1/s", out.attempted),
        ("contribute_ms.p50", median(reads["contribute"]), "ms", len(reads["contribute"])),
        ("verify_ms.p50", median(reads["verify"]), "ms", len(reads["verify"])),
        ("reconstruct_ms.p50", median(reads["reconstruct"]), "ms", len(reads["reconstruct"])),
        ("read_ms.p90", p90(pooled), "ms", len(pooled)),
    ]
    out.traced = [c for c in runner.commands if c.spans is not None]
    out.untraced_ms = [c.ms for c in loop if c.spans is None]
    return out
