"""``churn``: the dealer's write path on a larger board.

Set-up stands up a board through the CLI: ``setup``, ``enroll`` of 10
participants, ``share`` of 6 secrets with 3 minimal sets each, then keeps
a snapshot of the board, dealer and key files. Each cycle restores that
snapshot (untimed, so the board stays the same size however long the run)
and runs 13 write commands:

    share x2, update renew x2, update add-set x2, update remove-set x2,
    enroll of a new participant, update add-set of that participant into
    3 secrets, update remove-participant of them.

The schedule is drawn from the seed against a model of every access
structure, so each command is valid and its output is known. After each
cycle, untimed, the board is loaded through the library, one set of every
package is reconstructed from the participants' keys, and the removed
participant must appear nowhere. No participant or combiner command runs.

As in ``session``, an untraced run stands up three times and measures a
third of the time after each stand-up; the loop carries on across the
three thirds on the first board. A traced run stands up once.
"""

from __future__ import annotations

import json
import os
import shutil
import time

from common import (
    Outcome,
    Runner,
    check,
    draw_set,
    file_sizes,
    fresh_dir,
    import_msss,
    median,
    p90,
    sets_arg,
    stand_up,
    stream,
)

PARTICIPANTS = 10
SECRETS = 6
SETS_PER_SECRET = 3
STAND_UPS = 3
STATE_FILES = ("board.json", "dealer.json")


def make_plan(seed: int) -> dict:
    rng = stream(seed, "churn", "plan")
    pids = [f"P{i:02d}" for i in range(1, PARTICIPANTS + 1)]
    secrets = {}
    for i in range(SECRETS):
        sets: list[frozenset] = []
        for j in range(SETS_PER_SECRET):
            sets.append(draw_set(rng, pids, 1 + (j * SECRETS + i) % 4, sets))
        secrets[f"s{i + 1}"] = {"value": rng.getrandbits(480), "sets": sets}
    return {
        "seed": seed,
        "pids": pids,
        "secrets": secrets,
        "seeds": [rng.getrandbits(32) for _ in range(1 + PARTICIPANTS + SECRETS)],
    }


def _copy(model: dict) -> dict:
    return {sid: {"value": s["value"], "sets": list(s["sets"])} for sid, s in model.items()}


def cycle_schedule(plan: dict, cycle: int):
    """The cycle's commands as (kind, argv, expected stdout lines, prefix
    match, model of every secret after the command), and the id of the
    participant the cycle adds and removes."""
    rng = stream(plan["seed"], "churn", "cycle", cycle)
    model = _copy(plan["secrets"])
    originals = sorted(model, key=lambda sid: int(sid[1:]))
    files = ("--board", "board.json", "--dealer", "dealer.json")
    steps = []

    def step(kind, argv, line, prefix=False):
        steps.append((kind, argv, [line], prefix, _copy(model)))

    for k in range(2):
        sid = f"s{SECRETS + 1 + k}"
        sets: list[frozenset] = []
        for size in (2, 3, 1):
            sets.append(draw_set(rng, plan["pids"], size, sets))
        model[sid] = {"value": rng.getrandbits(480), "sets": sets}
        step("share", ["share", "--secret", model[sid]["value"], "--sets", sets_arg(sets),
                       *files, "--seed", rng.getrandbits(32)], sid)
    for sid in rng.sample(originals, 2):
        model[sid]["value"] = rng.getrandbits(480)
        step("renew", ["update", "renew", *files, "--secret-id", sid, "--secret",
                       model[sid]["value"], "--seed", rng.getrandbits(32)], f"renewed: {sid}")
    for sid in rng.sample(originals, 2):
        new = draw_set(rng, plan["pids"], 2, model[sid]["sets"])
        model[sid]["sets"].append(new)
        step("edit_set", ["update", "add-set", *files, "--secret-id", sid, "--set",
                          ",".join(sorted(new)), "--seed", rng.getrandbits(32)], f"updated: {sid}")
    for sid in rng.sample(originals, 2):
        index = rng.randrange(len(model[sid]["sets"]))
        del model[sid]["sets"][index]
        step("edit_set", ["update", "remove-set", *files, "--secret-id", sid,
                          "--index", index + 1], f"updated: {sid}")
    newcomer = f"N{cycle:04d}"
    step("enroll", ["enroll", "--id", newcomer, "--board", "board.json", "--key-out",
                    f"{newcomer}.key", "--force", "--seed", rng.getrandbits(32)],
         f"enrolled {newcomer}: ps = ", prefix=True)
    joined = sorted(rng.sample(sorted(model), 3), key=lambda sid: int(sid[1:]))
    for sid in joined:
        singles = {next(iter(s)) for s in model[sid]["sets"] if len(s) == 1}
        partner = rng.choice([p for p in plan["pids"] if p not in singles])
        model[sid]["sets"].append(frozenset((newcomer, partner)))
        step("edit_set", ["update", "add-set", *files, "--secret-id", sid, "--set",
                          f"{newcomer},{partner}", "--seed", rng.getrandbits(32)], f"updated: {sid}")
    for sid in joined:
        model[sid]["sets"] = [s for s in model[sid]["sets"] if newcomer not in s]
    step("remove_participant", ["update", "remove-participant", *files, "--id", newcomer,
                                "--seed", rng.getrandbits(32)], "renewed: " + ", ".join(joined))
    return steps, newcomer


def audit(msss, workdir: str, model: dict, revision: int, newcomer: str, enrolled: bool) -> bool:
    """Untimed oracle over the board after a cycle: revision, structures,
    one reconstruction per package, and no trace of a removed participant."""
    board = msss.bulletin.load(os.path.join(workdir, "board.json"))
    if board.revision != revision or sorted(board.packages) != sorted(model):
        return False
    keys = {}
    for pid in board.roster:
        with open(os.path.join(workdir, f"{pid}.key"), encoding="utf-8") as fh:
            raw = json.load(fh)
        keys[pid] = msss.ParticipantKey(pid=raw["id"], s=int(raw["s"], 16), ps=int(raw["ps"], 16))
    for sid, pkg in board.packages.items():
        if [e.members for e in pkg.entries] != model[sid]["sets"]:
            return False
        members = sorted(pkg.entry(1).members)
        contributions = [msss.contribute(board.params, keys[pid], pkg, 1) for pid in members]
        got = msss.reconstruct(board.params, pkg, 1, contributions, board.roster)
        if got != model[sid]["value"] or not msss.verify_secret(pkg, 1, got, board.params.width):
            return False
    if enrolled:
        for name in STATE_FILES:
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                if f'"{newcomer}"' in fh.read():
                    return False
    return True


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    msss = import_msss()
    plan = make_plan(seed)
    out = Outcome()
    runner = Runner()
    rounds = 1 if trace else STAND_UPS
    setups, write_s = [], []
    cycle, steps, newcomer, done = 0, [], "", 0
    looped = 0.0

    def start_cycle():
        nonlocal steps, newcomer, done
        for name in STATE_FILES:
            shutil.copy2(os.path.join(snapshot, name), loopdir)
        steps, newcomer = cycle_schedule(plan, cycle // 2 if trace else cycle)
        done = 0

    def end_cycle(failed: bool):
        """Untimed: audit the board after the steps that ran."""
        nonlocal cycle, steps
        model = steps[done - 1][4] if done else plan["secrets"]
        if tags["window"]:
            out.facts = file_sizes(loopdir)
        out.attempted += 1
        try:
            ok = not failed and audit(
                msss, loopdir, model, base_revision + done, newcomer, done == len(steps)
            )
        except (msss.MsssError, OSError, KeyError):
            ok = False
        out.failed += not ok
        cycle += 1
        steps = []

    for r in range(rounds):
        runner.workdir = fresh_dir("churn", f"stand_up{r}")
        setups.append(stand_up(runner, plan, traced=trace))
        if r == 0:
            # the loop runs on the first board; later stand-ups only time the set-up
            loopdir = runner.workdir
            snapshot = os.path.join(loopdir, "snapshot")
            os.makedirs(snapshot)
            for name in STATE_FILES:
                shutil.copy2(os.path.join(loopdir, name), snapshot)
            with open(os.path.join(loopdir, "board.json"), encoding="utf-8") as fh:
                base_revision = json.load(fh)["revision"]
        runner.workdir = loopdir
        # segment r ends once the loop has run (r + 1) / rounds of its time in total
        started = time.monotonic()
        deadline = started + seconds * (r + 1) / rounds - looped
        while time.monotonic() < deadline or (trace and cycle < 2):
            if not steps:
                start_cycle()
            # a traced run plays each cycle twice, traced then untraced
            traced = trace and cycle % 2 == 0
            tags = {"traced": traced, "loop": True, "window": traced and cycle == 0, "cli": True}
            kind, argv, lines, prefix, _ = steps[done]
            cmd = runner.run(kind, *argv, **tags)
            out.attempted += 1
            if check(cmd, 0, lines, prefix):
                write_s.append(cmd.cpu_ms / 1e3)
                done += 1
                if done == len(steps):
                    end_cycle(False)
            else:
                out.failed += 1
                end_cycle(True)
        looped += time.monotonic() - started
    if steps:
        end_cycle(False)

    loop = [c for c in runner.commands if c.tags["loop"]]
    by_kind = {}
    for c in loop:
        by_kind.setdefault(c.kind, []).append(c.cpu_ms)
    pooled = [c.cpu_ms for c in loop]
    updates_per_s = len(write_s) / sum(write_s) if write_s else 0.0
    out.end_to_end = {
        "setup_s": median(setups),
        "ops_per_s": updates_per_s,
        "op_ms.p50": median(pooled),
    }
    out.named = [("updates_per_s", updates_per_s, "1/s", len(pooled))]
    for kind in ("share", "renew", "edit_set", "remove_participant"):
        samples = by_kind.get(kind, [])
        out.named.append((f"{kind}_ms.p50", median(samples), "ms", len(samples)))
    out.named.append(("write_ms.p90", p90(pooled), "ms", len(pooled)))
    out.traced = [c for c in runner.commands if c.spans is not None]
    out.untraced_ms = [c.ms for c in loop if c.spans is None]
    return out
