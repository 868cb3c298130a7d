"""The whole dealer lifecycle as one Hypothesis state machine.

``Lifecycle`` runs the library's dealer, participant and combiner
operations in any order on one 64-bit world, and checks every step against
a plain model: the roster, each secret's qualified sets in publishing
order, and each secret's value. A refusal must be the one the model
predicts and change nothing; an accepted operation changes no package
that it does not name. ``setup`` is not under test here
(``test_dealer.TestSetup``), so the world is built once per module.
"""

import itertools
import math
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test,
)

from msss import bulletin, combiner, dealer, participant
from msss.errors import (
    BadContribution, BadParameter, DuplicateParticipant, EmptySet, ExtraContribution,
    IndexOutOfRange, LastEntry, MsssError, NotAntichain, SecretTooLarge, StructureBecameEmpty,
    UnknownParticipant, UnknownSecret,
)
from msss.simulate import attack_entry

PARAMS, STATE = dealer.setup(64, random.Random(32))
N, M = PARAMS.n, PARAMS.m
PIDS = "ABCDE"  # and "Z", which is never enrolled
HOSTILE_IDS = ["", " ", " C", "C,D", "C|D", 7]
# the pseudo-share an enroll offers: the fresh key's, one that is not a
# reduced unit mod n, or one on the roster
OFFERS = ["fresh", "0", "n", "p", "n + held", "held"]
SECRETS = st.integers(-1, M)
ONE_IN_FIVE = st.sampled_from([False] * 4 + [True])


def _first(*cases):
    """The model's verdict: the error of the first case that holds, or None."""
    return next((error for holds, error in cases if holds), None)


class Lifecycle(RuleBasedStateMachine):
    def __init__(self, tmp_path):
        super().__init__()
        self.dealer_file = tmp_path / "dealer.json"
        self.state = bulletin.DealerState(STATE.p, STATE.q)
        self.board = bulletin.Board(PARAMS)
        # the model: pid -> key, and sid -> qualified sets and secret
        self.keys, self.structures, self.secrets = {}, {}, {}

    @initialize(seed=st.integers(0, 2**32 - 1), data=st.data(), secret=st.integers(0, M - 1))
    def start(self, seed, data, secret):
        self.rng = random.Random(seed)
        for pid in "ABCD":
            self.enroll(pid, "fresh")
        self.share(data, secret, hostile=False)

    def _snapshot(self):
        packages = {sid: bulletin.package_to_obj(pkg) for sid, pkg in self.board.packages.items()}
        return list(self.board.roster.items()), packages, dict(self.state.secrets)

    def _do(self, error, operation, touched=()):
        """Run one library operation. With ``error`` it must raise exactly that
        and change nothing; with None it returns, and every package outside
        ``touched`` is byte-identical after it. Returns what it raised or returned."""
        before = self._snapshot()
        try:
            result = operation()
        except MsssError as exc:
            assert type(exc) is error, repr(exc)
            assert self._snapshot() == before
            return exc
        assert error is None, f"accepted, where {error.__name__} was expected"
        after = self._snapshot()[1]
        assert all(after[sid] == obj for sid, obj in before[1].items() if sid not in touched)
        return result

    def _sid(self, data):
        """A published secret id, or one time in four or less the next one, which is unknown."""
        unknown = f"s{len(self.structures) + 1}"
        return data.draw(st.sampled_from([*self.structures] * 3 + [unknown]))

    def _member_set(self, data, max_size=2):
        ids = st.sampled_from(sorted(self.keys) or ["Z"])
        return data.draw(st.frozensets(ids, min_size=1, max_size=max_size))

    def _assert_renewed(self, pkg, old):
        """``pkg`` renews ``old``: a fresh h0 and no entry kept, and the x values
        released for ``old`` pass no check of ``pkg`` and open none of its
        entries, even bound to the new package and index."""
        assert pkg.h0 != old.h0 and not set(pkg.entries) & set(old.entries)
        for j, entry in enumerate(pkg.entries, 1):
            stale = [bulletin.Contribution(pid, pkg.secret_id, j, pow(old.ps0, self.keys[pid].s, N))
                     for pid in entry.members]
            assert not any(combiner.check_contributions(PARAMS, pkg, j, stale, self.board.roster))
            assert not attack_entry(PARAMS, pkg, j, [c.x for c in stale])[0]

    @rule(pid=st.sampled_from(PIDS) | st.sampled_from(HOSTILE_IDS), offer=st.sampled_from(OFFERS))
    def enroll(self, pid, offer):
        key = participant.keygen(PARAMS, pid, self.rng)
        held = [k.ps for k in self.keys.values()]
        one = (held or [key.ps])[0]
        ps = {"fresh": key.ps, "0": 0, "n": N, "p": STATE.p, "n + held": N + one,
              "held": one}[offer]
        error = _first(
            (pid in HOSTILE_IDS or not (0 < ps < N and math.gcd(ps, N) == 1), BadParameter),
            (pid in self.keys or ps in held, DuplicateParticipant),
        )
        if self._do(error, lambda: dealer.enroll(self.board, pid, ps)) is None:
            self.keys[pid] = key

    @rule(data=st.data(), secret=SECRETS)
    def share(self, data, secret, hostile=True):
        # distinct sets of one size, an antichain; if hostile, one time in
        # five each a set that holds the first, or an id no one enrolled
        ids = sorted(self.keys) or ["Z"]
        size = data.draw(st.integers(1, min(3, len(ids))))
        same_size = st.frozensets(st.sampled_from(ids), min_size=size, max_size=size)
        sets = data.draw(st.lists(same_size, min_size=1, max_size=3, unique=True))
        if hostile and data.draw(ONE_IN_FIVE):
            sets.append(sets[0] | self._member_set(data))
        if hostile and data.draw(ONE_IN_FIVE):
            sets[0] |= {"Z"}
        error = _first(
            (any(a <= b for a, b in itertools.permutations(sets, 2)), NotAntichain),
            (secret < 0, BadParameter),
            (secret >= M, SecretTooLarge),
            (any("Z" in a for a in sets), UnknownParticipant),
        )
        sid = f"s{len(self.structures) + 1}"
        share = lambda: dealer.share_secret(self.state, self.board, secret, sets, self.rng)
        pkg = self._do(error, share, {sid})
        if error is None:
            assert pkg.secret_id == sid
            self.structures[sid], self.secrets[sid] = sets, secret

    @rule(data=st.data(), secret=SECRETS)
    def renew(self, data, secret):
        sid = self._sid(data)
        error = _first((sid not in self.structures, UnknownSecret), (secret < 0, BadParameter),
                       (secret >= M, SecretTooLarge))
        old = self.board.packages.get(sid)
        renew = lambda: dealer.renew_secret(self.state, self.board, sid, secret, self.rng)
        pkg = self._do(error, renew, {sid})
        if error is None:
            self.secrets[sid] = secret
            self._assert_renewed(pkg, old)

    @rule(data=st.data())
    def add_set(self, data):
        sid = self._sid(data)
        sets = self.structures.get(sid, [])
        new = self._member_set(data)
        if sets and data.draw(st.booleans()):  # a published set with one member more or less
            new = data.draw(st.sampled_from(sets)) ^ self._member_set(data, max_size=1)
        new = frozenset() if data.draw(ONE_IN_FIVE) else new
        new |= {"Z"} if data.draw(ONE_IN_FIVE) else set()
        error = _first((sid not in self.structures, UnknownSecret),
                       ("Z" in new, UnknownParticipant), (not new, EmptySet),
                       (any(a <= new for a in sets), NotAntichain))
        old = self.board.packages.get(sid)
        add = lambda: dealer.add_qualified_set(self.state, self.board, sid, new, self.rng)
        pkg = self._do(error, add, {sid})
        if error is None:
            # the strict supersets of the new set go, every other entry stays as it was
            assert pkg.entries[:-1] == tuple(e for e in old.entries if not new < e.members)
            assert pkg._replace(entries=old.entries) == old
            self.structures[sid] = [a for a in sets if not new < a] + [new]

    @rule(data=st.data())
    def remove_set(self, data):
        sid = self._sid(data)
        sets = self.structures.get(sid, [])
        index = data.draw(st.integers(0, len(sets) + 1))
        error = _first((sid not in self.structures, UnknownSecret),
                       (not 1 <= index <= len(sets), IndexOutOfRange), (len(sets) == 1, LastEntry))
        old = self.board.packages.get(sid)
        pkg = self._do(error, lambda: dealer.remove_qualified_set(self.board, sid, index), {sid})
        if error is None:
            assert pkg == old._replace(entries=old.entries[: index - 1] + old.entries[index:])
            self.structures[sid] = sets[: index - 1] + sets[index:]
            # the removed set lacks a member of every set left, so its members'
            # contributions are refused by each
            cached = [participant.contribute(PARAMS, self.keys[pid], old, index)
                      for pid in sorted(sets[index - 1])]
            for j in range(1, len(pkg.entries) + 1):
                with pytest.raises(ExtraContribution):
                    combiner.reconstruct(PARAMS, pkg, j, cached, self.board.roster)

    @rule(pid=st.sampled_from(PIDS))
    def remove_participant(self, pid):
        named = [sid for sid, sets in self.structures.items() if any(pid in a for a in sets)]
        emptied = [sid for sid in named if all(pid in a for a in self.structures[sid])]
        error = _first((pid not in self.keys, UnknownParticipant), (emptied, StructureBecameEmpty))
        old = dict(self.board.packages)
        remove = lambda: dealer.remove_participant(self.state, self.board, pid, self.rng)
        renewed = self._do(error, remove, named)
        if error is StructureBecameEmpty:
            assert renewed.secret_ids == emptied
        if error is None:
            assert [pkg.secret_id for pkg in renewed] == named
            del self.keys[pid]
            for pkg in renewed:
                sid = pkg.secret_id
                self.structures[sid] = [a for a in self.structures[sid] if pid not in a]
                self._assert_renewed(pkg, old[sid])

    @rule()
    def round_trip(self):
        assert bulletin.from_document(bulletin.to_document(self.board)) == self.board
        bulletin.save_dealer(self.state, self.board, self.dealer_file)
        assert bulletin.load_dealer(self.dealer_file, self.board) == self.state

    @rule(data=st.data())
    def reconstruct(self, data):
        sid = data.draw(st.sampled_from(list(self.structures)))
        pkg = self.board.packages[sid]
        j = data.draw(st.integers(1, len(pkg.entries)))
        members = sorted(pkg.entry(j).members)
        honest = [participant.contribute(PARAMS, self.keys[pid], pkg, j) for pid in members]
        cheaters = data.draw(st.sets(st.sampled_from(members)))
        offered = [c._replace(x=self._other_unit(c.x)) if c.pid in cheaters else c for c in honest]
        reconstruct = lambda: combiner.reconstruct(PARAMS, pkg, j, offered, self.board.roster)
        verdict = self._do(BadContribution if cheaters else None, reconstruct)
        if cheaters:
            assert verdict.pids == sorted(cheaters)
        else:
            assert verdict == self.secrets[sid]
            assert combiner.verify_secret(pkg, j, verdict, PARAMS.width)
        # no coalition that lacks a member opens the entry: not the strict
        # subsets of its set, nor a drawn set of members without one of them
        xs = {pid: pow(pkg.ps0, key.s, N) for pid, key in self.keys.items()}
        drawn = data.draw(st.sets(st.sampled_from(sorted(self.keys))))
        drawn -= {data.draw(st.sampled_from(members))}
        subsets = [c for size in range(len(members)) for c in itertools.combinations(members, size)]
        for coalition in [*subsets, drawn]:
            assert not attack_entry(PARAMS, pkg, j, [xs[pid] for pid in coalition])[0]

    def _other_unit(self, x):
        while True:
            y = self.rng.randrange(1, N)
            if y != x and math.gcd(y, N) == 1:
                return y

    @invariant()
    def board_and_dealer_state_match_the_model(self):
        assert list(self.board.roster.items()) == [(pid, k.ps) for pid, k in self.keys.items()]
        # secret ids run s1 ... sk in publishing order and are never reused
        assert list(self.structures) == [f"s{i}" for i in range(1, len(self.structures) + 1)]
        assert [(sid, list(pkg.structure())) for sid, pkg in self.board.packages.items()] == list(
            self.structures.items()
        )
        assert self.state.secrets == self.secrets


def test_dealer_lifecycle(tmp_path):
    run_state_machine_as_test(
        lambda: Lifecycle(tmp_path),
        settings=settings(max_examples=20, stateful_step_count=30, deadline=None),
    )
