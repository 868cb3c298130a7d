#!/usr/bin/env python3
"""Dynamic updates and cheater detection on a small random deployment.

Shows that key material survives every update: secrets are renewed, the
access structure is reshaped, a participant is removed, and the remaining
participants keep reconstructing with the keys they enrolled with.

Run with:  PYTHONPATH=src python3 demos/dynamic_updates.py
"""

import random

from msss import (
    Board,
    add_qualified_set,
    contribute,
    enroll,
    keygen,
    reconstruct,
    remove_participant,
    remove_qualified_set,
    renew_secret,
    setup,
    share_secret,
    validate_minimal,
    verify_secret,
)
from msss.errors import BadContribution, StructureBecameEmpty

rng = random.Random(2026)

params, state = setup(bits_per_prime=16, rng=rng)
print(f"n has {params.n.bit_length()} bits, m = {params.m}")

pids = ["alice", "bob", "carol", "dave"]
keys = {pid: keygen(params, pid, rng) for pid in pids}
board = Board(params)
for pid in pids:
    enroll(board, pid, keys[pid].ps)

structure = validate_minimal([{"alice", "bob"}, {"carol", "dave"}])
secret = rng.randrange(params.m)
pkg = share_secret(state, board, secret, structure, rng)
print(f"shared {secret} as {pkg.secret_id} under {[sorted(e.members) for e in pkg.entries]}")


def session(pkg, j, members, forged=None):
    contribs = [contribute(params, keys[pid], pkg, j) for pid in members]
    if forged:
        contribs = [
            c._replace(x=c.x ^ 1) if c.pid == forged else c for c in contribs
        ]
    try:
        got = reconstruct(params, pkg, j, contribs, board.roster)
    except BadContribution as exc:
        print(f"  set {j}: cheater detected -> {', '.join(exc.pids)}")
        return
    ok = verify_secret(pkg, j, got, params.width)
    print(f"  set {j}: recovered {got}, tag {'ok' if ok else 'MISMATCH'}")


print("\nhonest sessions:")
session(pkg, 1, ["alice", "bob"])
session(pkg, 2, ["carol", "dave"])

print("\nbob flips one bit of his contribution:")
session(pkg, 1, ["alice", "bob"], forged="bob")

print("\nrenew the secret (same value, fresh randomness):")
pkg = renew_secret(state, board, pkg.secret_id, secret, rng)
session(pkg, 1, ["alice", "bob"])

print("\ngrant {dave} solo access; {carol, dave} stops being minimal:")
pkg = add_qualified_set(state, board, pkg.secret_id, {"dave"}, rng)
print(f"  structure is now {[sorted(e.members) for e in pkg.entries]}")
session(pkg, len(pkg.entries), ["dave"])

print("\nrevoke dave's solo set again:")
pkg = remove_qualified_set(board, pkg.secret_id, 2)
print(f"  structure is now {[sorted(e.members) for e in pkg.entries]}")

print("\nremove dave from the deployment:")
renewed = remove_participant(state, board, "dave", rng)
print(f"  roster: {sorted(board.roster)}; renewed: "
      f"{[p.secret_id for p in renewed] or 'nothing (no structure mentions dave)'}")

print("\nremoving bob would leave the secret unreachable, so it is refused:")
try:
    remove_participant(state, board, "bob", rng)
except StructureBecameEmpty as exc:
    print(f"  refused: {exc}")

print("\nthe surviving qualified set still works, original keys throughout:")
session(pkg, 1, ["alice", "bob"])
