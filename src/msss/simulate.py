"""In-memory multi-party deployments, for the ``simulate`` command and for
stress testing.

One run builds a whole deployment (setup, enrollment, random access
structures, sharing), replays a reconstruction session for every qualified
set of every secret, probes unauthorized coalitions with the best attack
available to them, and optionally makes members cheat. The report contains
no wall-clock values, so a fixed seed gives a byte-identical report.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from . import combiner, dealer, participant
from .accessstruct import is_authorized
from .bulletin import Board
from .errors import BadContribution, BadParameter, DuplicateParticipant, UnmaskOutOfField
from .modexp import powmod

_default_rng = random.SystemRandom()

# draws of a member's key before a pseudo-share held by another is given up on
_ENROLL_ATTEMPTS = 30
# draws of a coalition before a structure is taken to authorize them all
_COALITION_ATTEMPTS = 30


class SimulationConfig(NamedTuple):
    participants: int
    secrets: int
    bits_per_prime: int = 16
    max_minimal_sets: int = 4
    max_set_size: int = 4
    cheaters_per_session: int = 0
    unauthorized_probes: int = 2
    seed: int | None = None

    def validate(self) -> None:
        if self.participants < 1:
            raise BadParameter("need at least one participant")
        if self.secrets < 1:
            raise BadParameter("need at least one secret")
        if self.max_minimal_sets < 1 or self.max_set_size < 1:
            raise BadParameter("structure bounds must be positive")
        if self.cheaters_per_session < 0 or self.unauthorized_probes < 0:
            raise BadParameter("counts must be non-negative")


def random_antichain(rng, pids, max_sets: int, max_set_size: int) -> tuple[frozenset[str], ...]:
    """A random antichain of 1..max_sets minimal sets over the given ids."""
    pool = sorted(pids)
    target = rng.randint(1, max_sets)
    sets: list[frozenset[str]] = []
    attempts = 0
    while len(sets) < target and attempts < 50:
        attempts += 1
        size = rng.randint(1, min(max_set_size, len(pool)))
        candidate = frozenset(rng.sample(pool, size))
        if any(candidate <= s or s <= candidate for s in sets):
            continue
        sets.append(candidate)
    return tuple(sets)


def _enroll_all(rng, board, pids) -> dict:
    """A key for each id, each enrolled on the board (``dealer.enroll``).
    A pseudo-share that is already another member's is refused, as equal
    masks cancel, so it is drawn again, at most ``_ENROLL_ATTEMPTS`` times
    per member."""
    params, keys = board.params, {}
    for pid in pids:
        for _ in range(_ENROLL_ATTEMPTS):
            keys[pid] = participant.keygen(params, pid, rng)
            try:
                dealer.enroll(board, pid, keys[pid].ps)
                break
            except DuplicateParticipant:
                pass
        else:
            raise BadParameter(f"g = {params.g} has too few powers mod n = {params.n}"
                             f" for {len(pids)} distinct pseudo-shares")
    return keys


def attack_entry(params, package, set_index: int, xs) -> tuple[bool, int | None]:
    """What a coalition can do with one entry and whatever x values it has:
    XOR them into the masked value, interpolate, and hope the tag matches.

    Returns (tag accepted, recovered value or None).
    """
    try:
        value = combiner.unmask(params, package, set_index, xs)
    except UnmaskOutOfField:
        return False, None
    return combiner.verify_secret(package, set_index, value, params.width), value


def _corrupt(rng, honest_x: int, n: int) -> int:
    """A unit mod n different from the honest contribution."""
    while True:
        candidate = rng.randrange(1, n)
        if candidate != honest_x and math.gcd(candidate, n) == 1:
            return candidate


def _non_covering_coalition(rng, pids, structure):
    """A random coalition that ``structure`` does not authorize, if one of
    ``_COALITION_ATTEMPTS`` draws is."""
    pool = sorted(pids)
    for _ in range(_COALITION_ATTEMPTS):
        size = rng.randint(1, max(1, len(pool) - 1))
        candidate = frozenset(rng.sample(pool, size))
        if not is_authorized(structure, candidate):
            return candidate
    return None


def run_simulation(config: SimulationConfig) -> dict:
    """Build one deployment and exercise it end to end; returns the report.

    The dealer's pows run by CRT over p and q (see ``msss.dealer``); every
    other pow stands for a party that knows only n and pays the full pow mod
    n. Each session asks its members for fresh contributions, as independent
    sessions would. The attack probes reuse the x = ps0**s mod n those
    sessions released for the same secret and raise only the missing ones,
    each at most once per secret, and every probe of an entry reuses the
    inverse of its public d - 1 mod m (see ``msss.linepoly``). None of these
    shortcuts changes a value or a draw, so a seed still fixes the report.
    """
    config.validate()
    rng = random.Random(config.seed) if config.seed is not None else _default_rng

    params, state = dealer.setup(config.bits_per_prime, rng)
    pids = [f"P{i}" for i in range(1, config.participants + 1)]
    board = Board(params)
    keys = _enroll_all(rng, board, pids)

    for _ in range(config.secrets):
        structure = random_antichain(rng, pids, config.max_minimal_sets, config.max_set_size)
        value = rng.randrange(0, params.m)
        dealer.share_secret(state, board, value, structure, rng)

    sessions = []
    probes = []
    for sid, pkg in board.packages.items():
        xs_of = {}  # pid -> x = ps0**s mod n for this secret
        for j in range(1, len(pkg.entries) + 1):
            members = sorted(pkg.entry(j).members)
            honest = {
                pid: participant.contribute(params, keys[pid], pkg, j) for pid in members
            }
            xs_of.update((pid, c.x) for pid, c in honest.items())
            contribs = dict(honest)
            cheaters = []
            if config.cheaters_per_session:
                for pid in rng.sample(members, min(config.cheaters_per_session, len(members))):
                    cheaters.append(pid)
                    contribs[pid] = honest[pid]._replace(x=_corrupt(rng, honest[pid].x, params.n))
            session = {
                "secret_id": sid,
                "set_index": j,
                "members": members,
                "cheaters_injected": sorted(cheaters),
                "cheaters_detected": [],
            }
            try:
                got = combiner.reconstruct(params, pkg, j, list(contribs.values()), board.roster)
            except BadContribution as exc:
                session["cheaters_detected"] = exc.pids
                session["outcome"] = "cheater-detected"
                session["tag"] = None
            else:
                tag_ok = combiner.verify_secret(pkg, j, got, params.width)
                session["outcome"] = "recovered" if got == state.secrets[sid] else "wrong-secret"
                session["tag"] = "ok" if tag_ok else "mismatch"
            sessions.append(session)

            # every strict subset of the qualified set tries its luck, with
            # the honest values even of members who cheated in the session
            for size in range(1, len(members)):
                for subset in itertools.combinations(members, size):
                    xs = [honest[pid].x for pid in subset]
                    accepted, _ = attack_entry(params, pkg, j, xs)
                    probes.append(
                        {
                            "secret_id": sid,
                            "set_index": j,
                            "coalition": list(subset),
                            "kind": "strict-subset",
                            "accepted": accepted,
                        }
                    )

        structure = pkg.structure()
        for _ in range(config.unauthorized_probes):
            coalition = _non_covering_coalition(rng, pids, structure)
            if coalition is None:
                break
            for pid in coalition - xs_of.keys():
                xs_of[pid] = powmod(pkg.ps0, keys[pid].s, params.n, public=True)
            xs = [xs_of[pid] for pid in sorted(coalition)]
            for j in range(1, len(pkg.entries) + 1):
                accepted, _ = attack_entry(params, pkg, j, xs)
                probes.append(
                    {
                        "secret_id": sid,
                        "set_index": j,
                        "coalition": sorted(coalition),
                        "kind": "non-covering",
                        "accepted": accepted,
                    }
                )

    report = {
        "config": config._asdict(),
        "params": {
            "n_bits": params.n.bit_length(),
            "m_bits": params.m.bit_length(),
            "width": params.width,
            "max_share_bits": max(k.s.bit_length() for k in keys.values()),
        },
        "sessions": sessions,
        "unauthorized": probes,
        "summary": {
            "sessions": len(sessions),
            "recovered": sum(s["outcome"] == "recovered" for s in sessions),
            "tag_ok": sum(s["tag"] == "ok" for s in sessions),
            "cheater_sessions": sum(bool(s["cheaters_injected"]) for s in sessions),
            "cheaters_missed": sum(
                s["cheaters_detected"] != s["cheaters_injected"] for s in sessions
            ),
            "unauthorized_probes": len(probes),
            "unauthorized_accepted": sum(p["accepted"] for p in probes),
        },
    }
    return report
