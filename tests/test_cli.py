import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss import bulletin, cli, codec, combiner, dealer, numtheory
from msss.accessstruct import validate_minimal
from msss.bulletin import PublicParams
from msss.cli import main
from msss.errors import MsssError

from conftest import FIVE_SETS, TEN_ROSTER, TOY_SETUP, TOY_SHARE, TOY_WIDE_H0, full_width_draw
from oracles import miller_rabin, trial_division_factor
from scripted import LimitedRandom, ScriptedRandom

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(*argv, script=None):
    """Run one command; ``script`` pins every draw of its RNG. Returns the
    exit code and what the command wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.MonkeyPatch.context() as mp:
            if script is not None:
                rng = ScriptedRandom(script)
                mp.setattr(cli, "_rng", lambda args: rng)
            code = main([str(a) for a in argv])
    if script is not None and code == 0:
        assert rng.values == [], "script not used up"
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def run():
    return _run


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    """Toy world on disk, built once per module: board, dealer state, keys for
    A and B, secret s1."""
    tmp = tmp_path_factory.mktemp("toy")
    board = tmp / "board.json"
    dealer = tmp / "dealer.json"
    code, out, _ = _run(
        "setup", "--bits", 4, "--board", board, "--dealer", dealer, script=TOY_SETUP
    )
    assert code == 0
    assert out.splitlines() == ["n = 143 (8 bits)", "m = 149 (8 bits)", "width = 1"]
    for pid, s in (("A", 5), ("B", 7)):
        code, out, _ = _run(
            "enroll", "--id", pid, "--board", board, "--key-out", tmp / f"key_{pid}.json",
            script=[s],
        )
        assert code == 0
    code, out, _ = _run(
        "share", "--secret", 100, "--sets", "A,B", "--board", board, "--dealer", dealer,
        script=TOY_SHARE,
    )
    assert code == 0
    assert out.strip() == "s1"
    return tmp


@pytest.fixture
def toy_files(tmp_path, toy_dir):
    """A copy of the toy world of its own for each test."""
    shutil.copytree(toy_dir, tmp_path, dirs_exist_ok=True)
    keys = {pid: tmp_path / f"key_{pid}.json" for pid in "AB"}
    return {"board": tmp_path / "board.json", "dealer": tmp_path / "dealer.json", "keys": keys,
            "tmp": tmp_path}


def _contribute(run, world, pid, out_name, secret_id="s1", members="A,B"):
    path = world["tmp"] / out_name
    code, out, _ = run(
        "contribute", "--board", world["board"], "--key", world["keys"][pid],
        "--secret-id", secret_id, "--set", members, "--out", path,
    )
    assert code == 0
    return path, int(out.strip())


class TestScriptedToySession:
    def test_worked_constants_on_the_board(self, toy_files):
        board = bulletin.load(toy_files["board"])
        assert board.roster == {"A": 45, "B": 115}
        pkg = board.packages["s1"]
        assert (pkg.ps0, pkg.h0, pkg.f1) == (115, 103, 105)
        assert (pkg.entry(1).d, pkg.entry(1).masked) == (7, 184)

    def test_revision_counts_every_mutation(self, run, toy_files):
        # setup(0) + enroll A + enroll B + share = 3 mutations after creation
        assert bulletin.load(toy_files["board"]).revision == 3
        run("update", "renew", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--secret", 1, "--seed", 2)
        assert bulletin.load(toy_files["board"]).revision == 4

    def test_contribute_reconstruct_verify(self, run, toy_files):
        path_a, x_a = _contribute(run, toy_files, "A", "ca.json")
        path_b, x_b = _contribute(run, toy_files, "B", "cb.json")
        assert (x_a, x_b) == (111, 80)

        code, out, _ = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A,B",
            "--contribution", path_a, "--contribution", path_b,
        )
        assert code == 0
        assert out.splitlines() == ["100", "tag: ok"]

        code, out, _ = run(
            "verify", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A,B",
            "--contribution", path_a, "--contribution", path_b,
        )
        assert code == 0
        assert out.splitlines() == ["ok: A", "ok: B"]

    def test_tampered_contribution_names_the_cheater(self, run, toy_files):
        path_a, _ = _contribute(run, toy_files, "A", "ca.json")
        path_b, _ = _contribute(run, toy_files, "B", "cb.json")
        obj = json.loads(path_b.read_text())
        obj["x"] = format(int(obj["x"], 16) ^ 2, "x")
        path_b.write_text(json.dumps(obj))

        code, out, _ = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A,B",
            "--contribution", path_a, "--contribution", path_b,
        )
        assert code == 15
        assert out.strip() == "cheater: B"

        code, out, _ = run(
            "verify", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A,B",
            "--contribution", path_a, "--contribution", path_b,
        )
        assert code == 15
        assert "cheater: B" in out

    def test_verify_flags_contribution_bound_to_another_set(self, run, toy_files):
        code, _, _ = run(
            "update", "add-set", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--set", "B", script=[9],
        )
        assert code == 0
        # contribution made for set {B} presented as if for a different secret
        path_b, _ = _contribute(run, toy_files, "B", "cb.json", members="B")
        obj = json.loads(path_b.read_text())
        obj["secret_id"] = "s2"
        path_b.write_text(json.dumps(obj))
        code, out, _ = run(
            "verify", "--board", toy_files["board"], "--secret-id", "s1", "--set", "B",
            "--contribution", path_b,
        )
        assert code == 15
        assert "cheater: B" in out

    def test_missing_contribution_exit_code(self, run, toy_files):
        path_a, _ = _contribute(run, toy_files, "A", "ca.json")
        code, _, err = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A,B",
            "--contribution", path_a,
        )
        assert code == 13
        assert "B" in err

    def test_key_file_contains_only_key_material(self, toy_files):
        obj = json.loads(toy_files["keys"]["A"].read_text())
        assert set(obj) == {"id", "s", "ps"}
        assert obj == {"id": "A", "s": "5", "ps": "2d"}

    def test_dealer_file_holds_only_what_cannot_be_derived(self, toy_files):
        # phi(n) and the next secret id follow from p, q and the secrets, and
        # s0 and the slope from each package, which lives on the board alone:
        # the dealer file keeps the SHA-256 of its record, not a copy
        obj = json.loads(toy_files["dealer"].read_text())
        assert list(obj) == ["p", "q", "secrets", "digests"]
        assert (obj["p"], obj["q"], obj["secrets"]) == ("b", "d", {"s1": "64"})
        packages = json.loads(toy_files["board"].read_text())["packages"]
        assert obj["digests"] == {sid: _package_digest(pkg) for sid, pkg in packages.items()}


def _package_digest(package: dict) -> str:
    """The dealer file's digest of a package record read off a board: the
    SHA-256 of the record serialized on its own, as the board writes it."""
    return hashlib.sha256((json.dumps(package, indent=2) + "\n").encode()).hexdigest()


def _write_contribution(world, name, pid, x, secret_id="s1"):
    path = world["tmp"] / name
    obj = {"pid": pid, "secret_id": secret_id, "set_index": 1, "x": format(x, "x")}
    path.write_text(json.dumps(obj))
    return path


def _session_args(world, paths, members="A,B"):
    args = ["--board", world["board"], "--secret-id", "s1", "--set", members]
    for path in paths:
        args += ["--contribution", path]
    return args


class TestOneVerdict:
    """check_contributions, `msss verify` and `msss reconstruct` agree on
    every contribution, on the toy world with the set {A, B}."""

    @pytest.mark.parametrize(
        "case, flagged, reconstruct_code",
        [
            ("honest", [], 0),
            ("flipped-x", ["B"], 15),
            # a member's contribution bound to another session is a cheat
            ("other-secret", ["B"], 15),
            # a non-member is outside the coalition, so reconstruct refuses
            # it before the verdict
            ("non-member", ["C"], 14),
        ],
    )
    def test_verdicts_agree(self, run, toy_files, case, flagged, reconstruct_code):
        assert run("enroll", "--id", "C", "--board", toy_files["board"],
                   "--key-out", toy_files["tmp"] / "kc.json", script=[9])[0] == 0
        path_a, _ = _contribute(run, toy_files, "A", "ca.json")
        if case == "non-member":
            second = _write_contribution(toy_files, "cc.json", "C", pow(115, 9, 143))
        else:
            second, x_b = _contribute(run, toy_files, "B", "cb.json")
            if case == "flipped-x":
                second = _write_contribution(toy_files, "cb.json", "B", x_b ^ 2)
            elif case == "other-secret":
                second = _write_contribution(toy_files, "cb.json", "B", x_b, secret_id="s2")
        paths = [path_a, second]

        board = bulletin.load(toy_files["board"])
        contributions = [bulletin.load_contribution(path) for path in paths]
        verdicts = combiner.check_contributions(
            board.params, board.packages["s1"], 1, contributions, board.roster
        )
        assert [c.pid for c, ok in zip(contributions, verdicts) if not ok] == flagged

        code, out, _ = run("verify", *_session_args(toy_files, paths))
        assert out.splitlines() == [
            f"{'ok' if ok else 'cheater'}: {c.pid}" for c, ok in zip(contributions, verdicts)
        ]
        assert code == (15 if flagged else 0)

        code, out, _ = run("reconstruct", *_session_args(toy_files, paths))
        assert code == reconstruct_code
        assert (code == 0) == (not flagged)
        if code == 0:
            assert out.splitlines() == ["100", "tag: ok"]
        else:
            cheaters = [line for line in out.splitlines() if line.startswith("cheater: ")]
            assert cheaters == ([f"cheater: {pid}" for pid in flagged] if code == 15 else [])

    def test_tampered_masked_value_exits_16_and_blames_no_one(self, run, tmp_path):
        # a board whose masked value was edited opens to a wrong secret: the
        # tag says so, and every honest contribution still passes its check
        world = {"board": tmp_path / "board.json", "tmp": tmp_path,
                 "keys": {pid: tmp_path / f"{pid}.key" for pid in "AB"}}
        files = ("--board", world["board"], "--dealer", tmp_path / "dealer.json")
        assert run("setup", "--bits", 4, *files, "--seed", 1)[0] == 0
        for pid, seed in (("A", 1), ("B", 2)):
            assert run("enroll", "--id", pid, "--board", world["board"],
                       "--key-out", world["keys"][pid], "--seed", seed)[0] == 0
        assert run("share", "--secret", 5, "--sets", "A,B", *files, "--seed", 1)[:2] == (0, "s1\n")
        obj = json.loads(world["board"].read_text())
        entry = obj["packages"]["s1"]["entries"][0]
        entry["masked"] = format(int(entry["masked"], 16) ^ 1, "x")
        world["board"].write_text(json.dumps(obj))
        paths = [_contribute(run, world, pid, f"c{pid}.json")[0] for pid in "AB"]
        assert run("reconstruct", *_session_args(world, paths)) == (16, "130\ntag: mismatch\n", "")
        assert run("verify", *_session_args(world, paths)) == (0, "ok: A\nok: B\n", "")

    def test_id_off_the_roster_exits_before_any_verdict(self, run, toy_files):
        path_a, x_a = _contribute(run, toy_files, "A", "ca.json")
        stranger = _write_contribution(toy_files, "cz.json", "Z", x_a)
        code, out, err = run("verify", *_session_args(toy_files, [path_a, stranger]))
        assert code == 7
        assert out == ""
        assert "Z" in err


class TestContributeChecksTheKey:
    """`msss contribute` refuses (exit 19) unless the board's pseudo-share
    of the key holder is the key's own, so a tampered board cannot get an
    honest member named a cheater."""

    @pytest.mark.parametrize("case", ["tampered-roster", "key-of-another-board"])
    def test_refuses_a_key_the_board_does_not_hold(self, run, toy_files, case):
        key = toy_files["keys"]["A"]
        if case == "tampered-roster":
            # g^3 mod n is a unit, so the board still loads
            obj = json.loads(toy_files["board"].read_text())
            obj["roster"]["A"] = format(pow(15, 3, 143), "x")
            toy_files["board"].write_text(json.dumps(obj))
            bulletin.load(toy_files["board"])
        else:
            # same n and s_A = 5, but g = 20, so ps = 89 where the board has 45
            other = toy_files["tmp"] / "other"
            other.mkdir()
            key = other / "key_A.json"
            assert run("setup", "--bits", 4, "--board", other / "b.json",
                       "--dealer", other / "d.json", script=(3, 5, 20))[0] == 0
            assert run("enroll", "--id", "A", "--board", other / "b.json",
                       "--key-out", key, script=[5])[0] == 0
        out_path = toy_files["tmp"] / "ca.json"
        code, out, err = run(
            "contribute", "--board", toy_files["board"], "--key", key,
            "--secret-id", "s1", "--set", "A,B", "--out", out_path,
        )
        assert code == 19
        assert out == ""
        assert "pseudo-share of A" in err
        assert not out_path.exists()

    def test_non_member_still_exits_9(self, run, toy_files):
        key_c = toy_files["tmp"] / "kc.json"
        assert run("enroll", "--id", "C", "--board", toy_files["board"],
                   "--key-out", key_c, script=[9])[0] == 0
        out_path = toy_files["tmp"] / "cc.json"
        code, out, _ = run(
            "contribute", "--board", toy_files["board"], "--key", key_c,
            "--secret-id", "s1", "--set", "A,B", "--out", out_path,
        )
        assert code == 9
        assert out == ""
        assert not out_path.exists()


class TestBoardChecksH0:
    """A board whose h0 does not open ps0 to g is refused when it is read,
    so no honest member is named a cheater for it."""

    @pytest.mark.parametrize("command", ["contribute", "verify", "reconstruct"])
    def test_tampered_h0_exits_19_at_load(self, run, toy_files, command):
        paths = [_contribute(run, toy_files, pid, f"c{pid}.json")[0] for pid in "AB"]
        obj = json.loads(toy_files["board"].read_text())
        obj["packages"]["s1"]["h0"] = format(103 + 4, "x")  # odd, so only ps0^h0 = g breaks
        toy_files["board"].write_text(json.dumps(obj))
        out_path = toy_files["tmp"] / "again.json"
        if command == "contribute":
            argv = ("contribute", "--board", toy_files["board"], "--key", toy_files["keys"]["A"],
                    "--secret-id", "s1", "--set", "A,B", "--out", out_path)
        else:
            argv = (command, *_session_args(toy_files, paths))
        code, out, err = run(*argv)
        assert code == 19
        assert out == ""
        assert "s1: ps0^h0 is not g mod n" in err
        assert not out_path.exists()


class TestBoardChecksShortH0:
    """Every h0 on a board is short, odd, at least 3 and its own package's
    alone; a board that breaks one of these is refused at load (exit 19)
    and no file is written."""

    @staticmethod
    def _refused(run, world, argv, named):
        files = [world["board"].read_bytes(), world["dealer"].read_bytes()]
        code, out, err = run(*argv)
        assert (code, out) == (19, ""), err
        assert named in err
        assert [world["board"].read_bytes(), world["dealer"].read_bytes()] == files

    @pytest.mark.parametrize(
        "h0, named",
        [
            pytest.param(TOY_WIDE_H0, "s1: h0 has 129 bits, over 128", id="129-bit"),
            pytest.param(102, "s1: h0 is not odd and at least 3", id="even"),
            pytest.param(1, "s1: h0 is not odd and at least 3", id="one"),
        ],
    )
    def test_h0_outside_the_rules_exits_19(self, run, toy_files, h0, named):
        obj = json.loads(toy_files["board"].read_text())
        obj["packages"]["s1"]["h0"] = format(h0, "x")
        toy_files["board"].write_text(json.dumps(obj))
        argv = ("share", "--secret", 5, "--sets", "A", "--board", toy_files["board"],
                "--dealer", toy_files["dealer"], "--seed", 1)
        self._refused(run, toy_files, argv, named)

    def test_two_packages_with_one_h0_exit_19(self, run, toy_files):
        assert run("share", "--secret", 5, "--sets", "A", "--board", toy_files["board"],
                   "--dealer", toy_files["dealer"], "--seed", 1)[0] == 0
        obj = json.loads(toy_files["board"].read_text())
        s1, s2 = obj["packages"]["s1"], obj["packages"]["s2"]
        s2.update(ps0=s1["ps0"], h0=s1["h0"])  # ps0^h0 = g still holds for both
        toy_files["board"].write_text(json.dumps(obj))
        out_path = toy_files["tmp"] / "ca.json"
        argv = ("contribute", "--board", toy_files["board"], "--key", toy_files["keys"]["A"],
                "--secret-id", "s1", "--set", "A,B", "--out", out_path)
        self._refused(run, toy_files, argv, "s2: h0 is also the h0 of s1")
        assert not out_path.exists()

    def test_board_from_before_short_h0_exits_19_on_every_load(
        self, run, tmp_path, monkeypatch
    ):
        world = {"board": tmp_path / "board.json", "dealer": tmp_path / "dealer.json",
                 "tmp": tmp_path, "keys": {"A": tmp_path / "A.key"}}
        where = ("--board", world["board"])
        assert run("setup", "--bits", 512, *where, "--dealer", world["dealer"],
                   "--seed", 6)[0] == 0
        assert run("enroll", "--id", "A", *where, "--key-out", world["keys"]["A"],
                   "--seed", 7)[0] == 0
        with monkeypatch.context() as mp:
            mp.setattr(dealer, "_draw_h0", full_width_draw)
            assert run("share", "--secret", 5, "--sets", "A", *where,
                       "--dealer", world["dealer"], "--seed", 8)[0] == 0
        h0 = int(json.loads(world["board"].read_text())["packages"]["s1"]["h0"], 16)
        assert h0.bit_length() > 1000
        named = "run `msss setup` again"
        for argv in [
            ("enroll", "--id", "B", *where, "--key-out", tmp_path / "B.key", "--seed", 9),
            ("share", "--secret", 6, "--sets", "A", *where, "--dealer", world["dealer"],
             "--seed", 9),
            ("update", "renew", "--secret-id", "s1", "--secret", 7, *where,
             "--dealer", world["dealer"], "--seed", 9),
            ("contribute", *where, "--key", world["keys"]["A"], "--secret-id", "s1",
             "--set", "A", "--out", tmp_path / "a.x"),
            ("verify", *_session_args(world, [_write_contribution(world, "c.x", "A", 1)],
                                      members="A")),
        ]:
            self._refused(run, world, argv, named)
        assert not (tmp_path / "B.key").exists() and not (tmp_path / "a.x").exists()

    def test_dealer_writes_only_short_distinct_h0(self, run, tmp_path):
        where = ("--board", tmp_path / "board.json")
        dealer_file = ("--dealer", tmp_path / "dealer.json")
        assert run("setup", "--bits", 512, *where, *dealer_file, "--seed", 6)[0] == 0
        for i, pid in enumerate("AB"):
            assert run("enroll", "--id", pid, *where, "--key-out", tmp_path / f"{pid}.key",
                       "--seed", 10 + i)[0] == 0
        for i in range(4):
            assert run("share", "--secret", i, "--sets", "A|B", *where, *dealer_file,
                       "--seed", 20 + i)[0] == 0
        board = bulletin.load(tmp_path / "board.json")
        h0s = [pkg.h0 for pkg in board.packages.values()]
        assert len(set(h0s)) == len(h0s) == 4
        assert all(3 <= h0 < 2**128 and h0 % 2 == 1 for h0 in h0s)
        assert all(pkg.ps0 != board.params.g for pkg in board.packages.values())


class TestKeysFromBeforeShortS:
    """A key enrolled before keygen drew a 256-bit s, with an s as wide as
    n, still contributes and reconstructs: nothing reads the width of s."""

    def test_full_width_key_contributes_and_reconstructs(self, run, tmp_path):
        board_path = tmp_path / "board.json"
        where = ("--board", board_path)
        dealer_file = ("--dealer", tmp_path / "dealer.json")
        keys = {pid: tmp_path / f"{pid}.key" for pid in "AB"}
        assert run("setup", "--bits", 512, *where, *dealer_file, "--seed", 31)[0] == 0
        for i, pid in enumerate("AB"):
            assert run("enroll", "--id", pid, *where, "--key-out", keys[pid],
                       "--seed", 32 + i)[0] == 0
        assert bulletin.load_key(keys["A"]).s < 2**256

        # B's key as keygen drew it before: s uniform on [2, n]
        params = bulletin.load(board_path).params
        s = random.Random(34).randrange(2, params.n + 1)
        assert s.bit_length() > 1000
        ps = pow(params.g, s, params.n)
        bulletin.save_key(bulletin.ParticipantKey("B", s, ps), keys["B"])
        obj = json.loads(board_path.read_text())
        obj["roster"]["B"] = format(ps, "x")
        board_path.write_text(json.dumps(obj))

        assert run("share", "--secret", 4242, "--sets", "A,B", *where, *dealer_file,
                   "--seed", 35)[0] == 0
        world = {"board": board_path, "tmp": tmp_path, "keys": keys}
        paths = [_contribute(run, world, pid, f"{pid}.x")[0] for pid in "AB"]
        code, out, err = run("verify", *_session_args(world, paths))
        assert (code, out.splitlines()) == (0, ["ok: A", "ok: B"]), err
        code, out, err = run("reconstruct", *_session_args(world, paths))
        assert (code, out.splitlines()) == (0, ["4242", "tag: ok"]), err


def _next_link(r, low):
    """The smallest N = 2*k*r + 1 >= low that the 40-round oracle calls prime
    and for which 2**((N-1)/r) is not 1 mod N."""
    rng = random.Random(0)
    link = low + (1 - low) % (2 * r)
    while not (miller_rabin(link, rng) and pow(2, (link - 1) // r, link) != 1):
        link += 2 * r
    return link


def _forged_chain(n, top_shift=0, composite_tail=False):
    """A prime m > n and a chain built like the dealer's, but with the top
    link ``top_shift`` bits wider than the rule allows for m, or with a
    composite tail."""
    bits = [n.bit_length() // 2 + 2 + top_shift]
    while bits[-1] > 19:
        bits.append(bits[-1] // 2 + 2)
    tail = (1 << (bits[-1] - 1)) + 1
    while (trial_division_factor(tail, math.isqrt(tail) + 1) is None) == composite_tail:
        tail += 2
    chain = [tail]
    for b in reversed(bits[:-1]):
        chain.insert(0, _next_link(chain[0], 1 << (b - 1)))
    return _next_link(chain[0], n + 1), chain


def _chain_tampers():
    """(id, edit of (m, chain, n) -> (m, chain)); each breaks one rule of the chain."""

    def too_wide(m, chain, n):
        m, chain = _forged_chain(n, top_shift=1)
        assert chain[0].bit_length() > m.bit_length() // 2 + 2
        return m, chain

    def too_small(m, chain, n):
        m, chain = _forged_chain(n, top_shift=-3)
        assert chain[0] ** 2 < m
        return m, chain

    def composite_tail(m, chain, n):
        m, chain = _forged_chain(n, composite_tail=True)
        # every step holds; only the tail is not prime
        links = [m, *chain]
        assert all(numtheory.pocklington_step(a, b) for a, b in zip(links, links[1:]))
        return m, chain

    def not_a_divisor(m, chain, n):
        other = chain[0] + 2
        while not miller_rabin(other, random.Random(0)):
            other += 2
        assert (m - 1) % other
        return m, [other, *chain[1:]]

    return [
        ("m-plus-2", lambda m, chain, n: (m + 2, chain)),
        ("link-plus-2", lambda m, chain, n: (m, [chain[0] + 2, *chain[1:]])),
        ("dropped-link", lambda m, chain, n: (m, chain[:-1])),
        ("r-squared-below-n", too_small),
        ("link-not-dividing", not_a_divisor),
        ("link-over-bit-bound", too_wide),
        ("composite-tail", composite_tail),
    ]


class TestBoardChecksMChain:
    """Every load proves m prime from the board's chain; a board whose chain
    does not is refused (exit 19) before anything is written, and a chain
    key that is missing or malformed exits 18."""

    @pytest.fixture(params=[16, 64])
    def chain_board(self, request, run, tmp_path):
        board = tmp_path / "board.json"
        assert run("setup", "--bits", request.param, "--board", board,
                   "--dealer", tmp_path / "dealer.json", "--seed", 4)[0] == 0
        return board

    def _enroll_refused(self, run, board, want_code, want_err):
        before = board.read_bytes()
        key = board.parent / "A.key"
        code, out, err = run("enroll", "--id", "A", "--board", board, "--key-out", key,
                             "--seed", 1)
        assert (code, out) == (want_code, "")
        assert want_err in err
        assert not key.exists()
        assert board.read_bytes() == before

    @pytest.mark.parametrize("tamper", [pytest.param(t, id=name) for name, t in _chain_tampers()])
    def test_chain_that_proves_nothing_exits_19(self, run, chain_board, tamper):
        obj = json.loads(chain_board.read_text())
        params = obj["params"]
        n, m = int(params["n"], 16), int(params["m"], 16)
        chain = [int(link, 16) for link in params["m_chain"]]
        m, chain = tamper(m, chain, n)
        params.update(m=format(m, "x"), width=codec.mask_width(m),
                      m_chain=[format(link, "x") for link in chain])
        chain_board.write_text(json.dumps(obj))
        self._enroll_refused(run, chain_board, 19, "m not proved prime by its chain")

    @pytest.mark.parametrize(
        "edit, named",
        [
            pytest.param(lambda params: params.pop("m_chain"), "run `msss setup` again",
                         id="old-layout"),
            pytest.param(lambda params: params.update(m_chain=["x" + params["m_chain"][0]]),
                         "params m_chain link 1", id="link-not-hex"),
            pytest.param(lambda params: params.update(m_chain=params["m_chain"][0]),
                         "params m_chain must be a list", id="chain-not-a-list"),
        ],
    )
    def test_malformed_chain_exits_18(self, run, chain_board, edit, named):
        obj = json.loads(chain_board.read_text())
        edit(obj["params"])
        chain_board.write_text(json.dumps(obj))
        self._enroll_refused(run, chain_board, 18, named)


class TestStrictFiles:
    """Key, contribution and dealer files are parsed as strictly as the
    board: a malformed one exits 18 and nothing is printed or written."""

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("reconstruct", "set_index", True),  # once read as set 1
            ("verify", "set_index", 1.9),  # once truncated to set 1
            ("verify", "pid", ["A"]),  # once a TypeError traceback
        ],
    )
    def test_malformed_contribution(self, run, toy_files, command, field, value):
        path_a, _ = _contribute(run, toy_files, "A", "ca.json")
        path_b, _ = _contribute(run, toy_files, "B", "cb.json")
        obj = json.loads(path_a.read_text())
        obj[field] = value
        path_a.write_text(json.dumps(obj))
        code, out, err = run(command, *_session_args(toy_files, [path_a, path_b]))
        assert code == 18
        assert out == ""
        assert field in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            # unknown keys were once ignored
            pytest.param(lambda obj: obj.update(note="x"), ["note"], id="note-x"),
            # share names the next secret s<k+1>, which would be s2 again
            pytest.param(
                lambda obj: obj.update(
                    secrets={"s2": obj["secrets"]["s1"]}, digests={"s2": obj["digests"]["s1"]}
                ),
                ["s2"],
                id="only-record-s2",
            ),
            # written while the dealer file stored s0 and the slope (the package
            # record is elided here); the note on the missing digests says how
            # to convert it
            pytest.param(
                lambda obj: (obj.pop("digests"), obj.update(
                    records={
                        "s1": {"s0": "7", "slope": "5", "secret": obj.pop("secrets")["s1"],
                               "package": {}},
                    }
                )),
                ["digests", "README"],
                id="records-with-s0-and-slope",
            ),
            # written while the dealer file kept a copy of every package
            pytest.param(
                lambda obj: (obj.pop("digests"), obj.update(packages={"s1": {}})),
                ["digests", "README"],
                id="packages-not-digests",
            ),
            # written before phi(n) and the next index were derived; once
            # trusted, a wrong phi made every honest member a cheater
            pytest.param(
                lambda obj: obj.update(phi="78", next_index=2), ["phi", "next_index"],
                id="stored-phi-and-next-index",
            ),
        ],
    )
    def test_malformed_dealer_file(self, run, toy_files, edit, named):
        obj = json.loads(toy_files["dealer"].read_text())
        edit(obj)
        toy_files["dealer"].write_text(json.dumps(obj))
        files = (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes())
        code, out, err = run("share", "--secret", 5, "--sets", "A", "--board", toy_files["board"],
                             "--dealer", toy_files["dealer"], "--seed", 1)
        assert code == 18
        assert out == ""
        assert all(name in err for name in named)
        assert (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes()) == files

    def test_malformed_key_file(self, run, toy_files):
        obj = json.loads(toy_files["keys"]["A"].read_text())
        obj["note"] = "x"
        toy_files["keys"]["A"].write_text(json.dumps(obj))
        code, out, err = run(
            "contribute", "--board", toy_files["board"], "--key", toy_files["keys"]["A"],
            "--secret-id", "s1", "--set", "A,B", "--out", toy_files["tmp"] / "ca.json",
        )
        assert code == 18
        assert out == ""
        assert not (toy_files["tmp"] / "ca.json").exists()

    @pytest.mark.parametrize("field", ["s", "ps"])
    def test_key_file_hex_with_leading_zero(self, run, toy_files, field):
        # once read as the same integer, so the key file was not canonical
        obj = json.loads(toy_files["keys"]["A"].read_text())
        obj[field] = "0" + obj[field]
        toy_files["keys"]["A"].write_text(json.dumps(obj))
        code, out, err = run(
            "contribute", "--board", toy_files["board"], "--key", toy_files["keys"]["A"],
            "--secret-id", "s1", "--set", "A,B", "--out", toy_files["tmp"] / "ca.json",
        )
        assert code == 18
        assert out == ""
        assert f"{field}: expected lowercase hex with no leading zeros" in err
        assert not (toy_files["tmp"] / "ca.json").exists()


class TestRepeatedKeys:
    """``json.loads`` alone keeps the last of two equal keys, so a file could
    read one way here and another way to another reader: a key repeated in
    any record exits 18 and changes no file."""

    @pytest.mark.parametrize(
        "record, key",
        [("board", "A"), ("board", "revision"), ("board", "d"), ("dealer", "p"),
         ("key", "s"), ("contribution", "x")],
        ids=["roster", "revision", "entry-d", "dealer-p", "key-s", "contribution-x"],
    )
    def test_a_repeated_key_exits_18(self, run, toy_files, record, key):
        contributions = [_contribute(run, toy_files, pid, f"c{pid}.json")[0] for pid in "AB"]
        path = {
            "board": toy_files["board"], "dealer": toy_files["dealer"],
            "key": toy_files["keys"]["A"], "contribution": contributions[0],
        }[record]
        # a bogus first value: a reader that keeps the last one reads the file as written
        text = path.read_text()
        at = text.index(f'"{key}": ')
        bogus = "0" if key == "revision" else '"1"'
        path.write_text(f'{text[:at]}"{key}": {bogus}, {text[at:]}')
        files = {p: p.read_bytes() for p in toy_files["tmp"].iterdir()}
        if record == "key":
            argv = ["contribute", "--board", toy_files["board"], "--key", path,
                    "--secret-id", "s1", "--set", "A,B", "--out", toy_files["tmp"] / "c.json"]
        elif record == "contribution":
            argv = ["verify", *_session_args(toy_files, contributions)]
        else:
            argv = ["share", "--secret", 5, "--sets", "A", "--board", toy_files["board"],
                    "--dealer", toy_files["dealer"], "--seed", 1]
        code, out, err = run(*argv)
        assert (code, out) == (18, "")
        assert err == f"error: {path}: not valid JSON: duplicate key '{key}'\n"
        assert {p: p.read_bytes() for p in toy_files["tmp"].iterdir()} == files


class TestFullScriptedSession:
    def test_whole_protocol_reproduces_worked_constants(self, run, tmp_path):
        """One uninterrupted operator session under forced randomness:
        setup, three enrollments, two shares, contributions, reconstruction,
        verification, a structure update, and a second reconstruction."""
        board = tmp_path / "board.json"
        state = tmp_path / "dealer.json"
        assert run("setup", "--bits", 4, "--board", board, "--dealer", state,
                   script=TOY_SETUP)[0] == 0
        for pid, s in (("A", 5), ("B", 7), ("C", 9)):
            assert run("enroll", "--id", pid, "--board", board,
                       "--key-out", tmp_path / f"{pid}.key", script=[s])[0] == 0

        code, out, _ = run("share", "--secret", 100, "--sets", "A,B", "--board", board,
                           "--dealer", state, script=TOY_SHARE)
        assert code == 0 and out.strip() == "s1"
        code, out, _ = run("share", "--secret", 42, "--sets", "C", "--board", board,
                           "--dealer", state, "--seed", 11)
        assert code == 0 and out.strip() == "s2"

        loaded = bulletin.load(board)
        assert loaded.roster == {"A": 45, "B": 115, "C": pow(15, 9, 143)}
        pkg = loaded.packages["s1"]
        assert (pkg.ps0, pkg.h0, pkg.f1) == (115, 103, 105)
        assert (pkg.entry(1).d, pkg.entry(1).masked) == (7, 184)

        xa = tmp_path / "a.x"
        xb = tmp_path / "b.x"
        code, out, _ = run("contribute", "--board", board, "--key", tmp_path / "A.key",
                           "--secret-id", "s1", "--set", "A,B", "--out", xa)
        assert code == 0 and out.strip() == "111"
        code, out, _ = run("contribute", "--board", board, "--key", tmp_path / "B.key",
                           "--secret-id", "s1", "--set", "A,B", "--out", xb)
        assert code == 0 and out.strip() == "80"

        code, out, _ = run("reconstruct", "--board", board, "--secret-id", "s1",
                           "--set", "A,B", "--contribution", xa, "--contribution", xb)
        assert code == 0 and out.splitlines() == ["100", "tag: ok"]
        code, out, _ = run("verify", "--board", board, "--secret-id", "s1",
                           "--set", "A,B", "--contribution", xa, "--contribution", xb)
        assert code == 0 and out.splitlines() == ["ok: A", "ok: B"]

        # widen access, then reconstruct through the new set with the same keys
        code, out, _ = run("update", "add-set", "--board", board, "--dealer", state,
                           "--secret-id", "s1", "--set", "B", script=[9])
        assert code == 0
        xb2 = tmp_path / "b2.x"
        code, out, _ = run("contribute", "--board", board, "--key", tmp_path / "B.key",
                           "--secret-id", "s1", "--set", "B", "--out", xb2)
        assert code == 0 and out.strip() == "80"  # same ps0, so the same x
        code, out, _ = run("reconstruct", "--board", board, "--secret-id", "s1",
                           "--set", "B", "--contribution", xb2)
        assert code == 0 and out.splitlines() == ["100", "tag: ok"]

        # the other secret was never disturbed
        code, out, _ = run("contribute", "--board", board, "--key", tmp_path / "C.key",
                           "--secret-id", "s2", "--set", "C", "--out", tmp_path / "c.x")
        assert code == 0
        code, out, _ = run("reconstruct", "--board", board, "--secret-id", "s2",
                           "--set", "C", "--contribution", tmp_path / "c.x")
        assert code == 0 and out.splitlines() == ["42", "tag: ok"]


class TestUpdates:
    def test_add_set_then_reconstruct_original_secret(self, run, toy_files):
        code, out, _ = run(
            "update", "add-set", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--set", "B", script=[9],
        )
        assert code == 0
        path_b, _ = _contribute(run, toy_files, "B", "cb2.json", members="B")
        code, out, _ = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s1", "--set", "B",
            "--contribution", path_b,
        )
        assert code == 0
        assert out.splitlines() == ["100", "tag: ok"]

    def test_renew_invalidates_stale_contributions(self, run, toy_files):
        path_a, _ = _contribute(run, toy_files, "A", "ca.json")
        path_b, _ = _contribute(run, toy_files, "B", "cb.json")
        # seed chosen so the fresh s0 is not congruent to the old one modulo
        # ord(g); on a toy field a collision there would make the stale values
        # legitimately valid again
        code, out, _ = run(
            "update", "renew", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--secret", 100, "--seed", 2,
        )
        assert code == 0
        assert out.strip() == "renewed: s1"
        # stale values no longer satisfy the verification identity
        code, out, _ = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A,B",
            "--contribution", path_a, "--contribution", path_b,
        )
        assert code == 15
        assert out.startswith("cheater:")

    def test_reconstruct_names_every_stale_contribution(self, run, toy_files):
        paths = [_contribute(run, toy_files, pid, f"c{pid}.json")[0] for pid in ("A", "B")]
        # h0 = 41 (s0 = 41) exposes both; see test_stale_contribution_may_pass_on_the_toy_group
        code, _, _ = run(
            "update", "renew", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--secret", 44, script=[41, 5, 9],
        )
        assert code == 0
        # one line per cheater, from reconstruct as from verify
        code, out, _ = run("reconstruct", *_session_args(toy_files, paths))
        assert code == 15
        assert out.splitlines() == ["cheater: A", "cheater: B"]
        code, out, _ = run("verify", *_session_args(toy_files, paths))
        assert code == 15
        assert out.splitlines() == ["cheater: A", "cheater: B"]

    def test_stale_contribution_may_pass_on_the_toy_group(self, run, toy_files):
        # a known toy-size property, not a forgery: A's stale x = g^35 has
        # order 12 as s_A = 5 divides ord(g) = 60, and the renewed h0 = 19
        # (s0 = 19) has 7 * 19 = 1 mod 12, so x^19 is A's pseudo-share again
        paths = [_contribute(run, toy_files, pid, f"c{pid}.json")[0] for pid in ("A", "B")]
        code, _, _ = run(
            "update", "renew", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--secret", 44, script=[19, 5, 9],
        )
        assert code == 0
        code, out, _ = run("verify", *_session_args(toy_files, paths))
        assert code == 15
        assert out.splitlines() == ["ok: A", "cheater: B"]

    def test_remove_set_and_last_entry_guard(self, run, toy_files):
        code, _, _ = run(
            "update", "add-set", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--set", "B", script=[9],
        )
        assert code == 0
        code, _, err = run(
            "update", "remove-set", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--index", 1,
        )
        assert code == 11  # {B} swallowed {A,B}, so only one entry is left
        code, _, _ = run(
            "update", "add-set", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--set", "A", script=[11],
        )
        assert code == 0
        code, out, _ = run(
            "update", "remove-set", "--board", toy_files["board"], "--dealer", toy_files["dealer"],
            "--secret-id", "s1", "--index", 2,
        )
        assert code == 0
        board = bulletin.load(toy_files["board"])
        assert [sorted(e.members) for e in board.packages["s1"].entries] == [["B"]]

    def test_add_set_refuses_when_no_d_is_left(self, run, tmp_path, monkeypatch):
        # s1's 147 sets take every d in [2, m - 1] = [2, 148]: one more set is
        # refused before a d is drawn, where a draw loop would never end (the
        # limited draws make it fail fast), and no file changes
        params, state = dealer.setup(4, random.Random(1))
        structure = validate_minimal(FIVE_SETS[:147])
        world = bulletin.Board(params, dict(TEN_ROSTER), revision=1)
        dealer.share_secret(state, world, 5, structure, random.Random(1))
        board, dealer_file = tmp_path / "board.json", tmp_path / "dealer.json"
        bulletin.save(world, board)
        bulletin.save_dealer(state, world, dealer_file)
        before = board.read_bytes(), dealer_file.read_bytes()
        monkeypatch.setattr(cli, "_rng", lambda args: LimitedRandom(1, draws=1000))
        code, _, err = run(
            "update", "add-set", "--board", board, "--dealer", dealer_file, "--secret-id", "s1",
            "--set", ",".join(sorted(FIVE_SETS[147])),
        )
        assert code == 25
        assert "m = 149 is too small: 0 d left in [2, m - 1], 1 needed" in err
        assert (board.read_bytes(), dealer_file.read_bytes()) == before

    def test_remove_participant_reports_renewed_ids(self, run, toy_files):
        run("enroll", "--id", "C", "--board", toy_files["board"], "--key-out",
            toy_files["tmp"] / "kc.json", script=[9])
        code, out, _ = run(
            "share", "--secret", 42, "--sets", "A,B|A,C", "--board", toy_files["board"],
            "--dealer", toy_files["dealer"], "--seed", 3,
        )
        assert code == 0 and out.strip() == "s2"
        code, out, _ = run(
            "update", "remove-participant", "--board", toy_files["board"],
            "--dealer", toy_files["dealer"], "--id", "B", "--seed", 4,
        )
        assert code == 12  # s1 would lose its only set {A, B}
        code, out, _ = run(
            "update", "remove-participant", "--board", toy_files["board"],
            "--dealer", toy_files["dealer"], "--id", "C", "--seed", 4,
        )
        assert code == 0
        assert out.strip() == "renewed: s2"
        board = bulletin.load(toy_files["board"])
        assert "C" not in board.roster
        assert [sorted(e.members) for e in board.packages["s2"].entries] == [["A", "B"]]


class TestDealerWrite:
    """A dealer file that lost its last write, a board rolled back on its
    own, or a dealer file that serves another board: the dealer file does
    not match the board, and the next dealer command exits 19 and writes
    nothing."""

    def _lose_next_dealer_write(self, run, world, *argv):
        before = world["dealer"].read_bytes()
        code, _, _ = run(*argv, "--board", world["board"], "--dealer", world["dealer"])
        assert code == 0
        world["dealer"].write_bytes(before)
        return world["board"].read_bytes(), before

    def _assert_refused(self, run, world, files, secret_id, *argv):
        code, out, err = run(*argv, "--board", world["board"], "--dealer", world["dealer"])
        assert code == 19
        assert out == ""
        assert f"disagree on {secret_id}" in err
        assert (world["board"].read_bytes(), world["dealer"].read_bytes()) == files

    def test_lost_write_after_share(self, run, toy_files):
        # s2 is on the board but not in the dealer file, whose next_index
        # would publish s2 again over it
        files = self._lose_next_dealer_write(
            run, toy_files, "share", "--secret", 5, "--sets", "A", "--seed", 1
        )
        self._assert_refused(
            run, toy_files, files, "s2", "share", "--secret", 6, "--sets", "B", "--seed", 2
        )

    @pytest.mark.parametrize(
        "update",
        [
            ("add-set", "--secret-id", "s1", "--set", "C", "--seed", 3),
            ("remove-participant", "--id", "C", "--seed", 4),
        ],
        ids=["add-set", "remove-participant"],
    )
    def test_board_rolled_back_alone(self, run, toy_files, update):
        # an older board.json put back under the newer dealer.json: every
        # stale entry still matches its tag, as remove-participant renews s1
        # under its same value, so only the digest tells the boards apart
        paths = ("--board", toy_files["board"], "--dealer", toy_files["dealer"])
        assert run("enroll", "--id", "C", "--board", toy_files["board"],
                   "--key-out", toy_files["tmp"] / "kc.json", script=[9])[0] == 0
        if update[0] == "remove-participant":
            assert run("update", "add-set", *paths, "--secret-id", "s1", "--set", "C",
                       "--seed", 3)[0] == 0
        before = toy_files["board"].read_bytes()
        assert run("update", *update, *paths)[0] == 0
        toy_files["board"].write_bytes(before)
        self._assert_refused(
            run, toy_files, (before, toy_files["dealer"].read_bytes()), "s1",
            "share", "--secret", 5, "--sets", "A", "--seed", 5,
        )

    def test_lost_write_after_renew(self, run, toy_files):
        # the dealer file still holds the old secret of s1 and the digest of
        # its old package, so add-set would extend the new package with an
        # entry for the old secret
        files = self._lose_next_dealer_write(
            run, toy_files, "update", "renew", "--secret-id", "s1", "--secret", 44, "--seed", 2
        )
        self._assert_refused(
            run, toy_files, files, "s1",
            "update", "add-set", "--secret-id", "s1", "--set", "B", "--seed", 3,
        )

    @pytest.mark.parametrize("forgery", ["secret-plus-one", "secret-m-with-its-tags"])
    def test_secret_that_does_not_open_its_package(self, run, toy_files, forgery):
        # once accepted: add-set published an entry whose honest
        # reconstruction printed a wrong value and "tag: mismatch"
        obj = json.loads(toy_files["dealer"].read_text())
        if forgery == "secret-plus-one":
            obj["secrets"]["s1"] = "65"
        else:
            # the tags accept m = 149, which is no field element
            obj["secrets"]["s1"] = "95"
            board = json.loads(toy_files["board"].read_text())
            board["packages"]["s1"]["entries"][0]["tag"] = codec.tag(149, 7, 1).hex()
            obj["digests"]["s1"] = _package_digest(board["packages"]["s1"])
            toy_files["board"].write_text(json.dumps(board))
        toy_files["dealer"].write_text(json.dumps(obj))
        files = (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes())
        self._assert_refused(
            run, toy_files, files, "s1",
            "update", "add-set", "--secret-id", "s1", "--set", "B", "--seed", 3,
        )

    @pytest.mark.parametrize("factors", ["other-board", "1-and-n"])
    def test_dealer_file_of_another_board(self, run, tmp_path, factors):
        # both boards are fresh, so their (empty) package lists agree; a
        # share signed with the other board's phi(n) once exited 0 and made
        # verify name both honest members as cheaters
        board, dealer = tmp_path / "board.json", tmp_path / "dealer.json"
        assert run("setup", "--bits", 4, "--board", board, "--dealer", dealer,
                   script=TOY_SETUP)[0] == 0
        for pid, s in (("A", 5), ("B", 7)):
            assert run("enroll", "--id", pid, "--board", board,
                       "--key-out", tmp_path / f"{pid}.key", script=[s])[0] == 0
        if factors == "other-board":
            dealer = tmp_path / "other-dealer.json"
            assert run("setup", "--bits", 16, "--board", tmp_path / "other-board.json",
                       "--dealer", dealer, "--seed", 2)[0] == 0
        else:
            dealer.write_text(json.dumps({"p": "1", "q": "8f", "secrets": {}, "digests": {}}))
        files = (board.read_bytes(), dealer.read_bytes())
        code, out, err = run("share", "--secret", 5, "--sets", "A,B", "--board", board,
                             "--dealer", dealer, "--seed", 3)
        assert code == 19
        assert out == ""
        assert "not the dealer file of this board" in err
        assert (board.read_bytes(), dealer.read_bytes()) == files

    def test_dealer_file_with_p_equal_to_q(self, run, tmp_path):
        # a hand-made board with n = p*p and a dealer file holding p = q:
        # share once exited 0 and published s1 under the wrong phi(n), and
        # every later command exited 19 on ps0^h0 != g
        p = 65521
        n = p * p
        m, m_chain = numtheory.proved_prime_above(n, 32)
        params = PublicParams(g=p + 1, n=n, m=m, width=codec.mask_width(m), m_chain=m_chain)
        board, dealer = tmp_path / "board.json", tmp_path / "dealer.json"
        bulletin.save(bulletin.Board(params), board)
        for pid, seed in (("A", 5), ("B", 7)):
            assert run("enroll", "--id", pid, "--board", board,
                       "--key-out", tmp_path / f"{pid}.key", "--seed", seed)[0] == 0
        dealer.write_text(json.dumps({"p": f"{p:x}", "q": f"{p:x}", "secrets": {}, "digests": {}}))
        files = (board.read_bytes(), dealer.read_bytes())
        code, out, err = run("share", "--secret", 5, "--sets", "A,B", "--board", board,
                             "--dealer", dealer, "--seed", 3)
        assert code == 19
        assert out == ""
        assert "p = q" in err
        assert (board.read_bytes(), dealer.read_bytes()) == files

    def test_dealer_file_with_p_and_q_sharing_a_factor(self, run, tmp_path):
        # a hand-made board with n = 45 = 3 * 15: taking 15**-1 mod 3 once
        # ended in a ValueError traceback
        params = PublicParams(g=7, n=45, m=47, width=1, m_chain=())
        board, dealer = tmp_path / "board.json", tmp_path / "dealer.json"
        bulletin.save(bulletin.Board(params), board)
        dealer.write_text(json.dumps({"p": "3", "q": "f", "secrets": {}, "digests": {}}))
        files = (board.read_bytes(), dealer.read_bytes())
        code, out, err = run("share", "--secret", 5, "--sets", "A", "--board", board,
                             "--dealer", dealer, "--seed", 3)
        assert (code, out) == (19, "")
        assert "a factor common to p and q" in err
        assert (board.read_bytes(), dealer.read_bytes()) == files

    @pytest.mark.parametrize(
        "argv",
        [
            ("share", "--secret", 5, "--sets", "A,B", "--seed", 3),
            ("update", "renew", "--secret-id", "s1", "--secret", 44, "--seed", 3),
            ("update", "add-set", "--secret-id", "s1", "--set", "A", "--seed", 3),
            ("update", "remove-set", "--secret-id", "s1", "--index", 1),
            ("update", "remove-participant", "--id", "B", "--seed", 3),
        ],
        ids=["share", "renew", "add-set", "remove-set", "remove-participant"],
    )
    def test_h0_not_a_unit_mod_phi(self, run, toy_files, argv):
        # g = 125, ps0 = 5 and h0 = 3 pass every board check on h0 and
        # ps0^h0 = g, but 3 has no inverse mod phi(143) = 120: add-set once
        # exited 22 on such a package; the dealer file's digest matches it
        board = json.loads(toy_files["board"].read_text())
        board["packages"]["s1"].update(ps0="5", h0="3")
        board["params"]["g"] = "7d"
        obj = json.loads(toy_files["dealer"].read_text())
        obj["digests"]["s1"] = _package_digest(board["packages"]["s1"])
        files = {}
        for name, doc in (("board", board), ("dealer", obj)):
            toy_files[name].write_text(json.dumps(doc))
            files[name] = toy_files[name].read_bytes()
        code, out, err = run(*argv, "--board", toy_files["board"], "--dealer", toy_files["dealer"])
        assert code == 19
        assert out == ""
        assert "s1: h0 is not a unit mod phi(n)" in err
        assert {name: toy_files[name].read_bytes() for name in files} == files


# A seeded 16-bit session through every command, with the stdout and exit
# code of each step, the SHA-256 of every file it leaves, one SHA-256 over
# the board after every step and one over the dealer file after every step.
# The outputs, the board history and every file but dealer.json were
# recorded before the dealer's write path was unified. dealer.json and its
# history were recorded again when the dealer file stopped storing phi(n)
# and the next secret index, and again when it stopped storing s0 and the
# slope: at every step it is the earliest file with phi and next_index
# removed and each record's secret and package moved into "secrets" and
# "packages". The setup line, board.json, dealer.json and both histories were
# recorded again when m came with the chain that proves it prime: every draw
# after g moved, and the board gained "m_chain"; no other output or file
# changed. The four contributions, their files, board.json, dealer.json and
# both histories were recorded again when the dealer began to draw a short h0
# and derive s0 from it: every package and so every x changed, while the
# setup and enroll lines, the keys and both recovered secrets did not.
# dealer.json and its history were recorded again when the dealer file
# replaced its copy of each package by the package's SHA-256: at every step
# it is the earlier file with "packages" replaced by "digests"; every output,
# board.json and the board history stayed byte-identical. The setup line, the
# two s2 contributions and their files, board.json, dealer.json and both
# histories were recorded again when m became the one constant of its width
# (33 bits above n's 31, so width 5) and setup stopped drawing for it: the
# keys, s1's contributions and both recovered secrets did not change. A
# refactor of the write path must not change a byte of it.
GOLDEN_BOARD = ("--board", "board.json")
GOLDEN_DEALER = GOLDEN_BOARD + ("--dealer", "dealer.json")
GOLDEN_SESSION = [
    (("setup", "--bits", 16, *GOLDEN_DEALER, "--seed", 1), 0,
     "n = 1911295649 (31 bits)\nm = 4296084629 (33 bits)\nwidth = 5\n"),
    (("enroll", "--id", "A", *GOLDEN_BOARD, "--key-out", "A.key", "--seed", 11), 0,
     "enrolled A: ps = df1a60e\n"),
    (("enroll", "--id", "B", *GOLDEN_BOARD, "--key-out", "B.key", "--seed", 12), 0,
     "enrolled B: ps = 5c6b2c44\n"),
    (("enroll", "--id", "C", *GOLDEN_BOARD, "--key-out", "C.key", "--seed", 13), 0,
     "enrolled C: ps = 61bb1314\n"),
    (("enroll", "--id", "D", *GOLDEN_BOARD, "--key-out", "D.key", "--seed", 14), 0,
     "enrolled D: ps = 4740ab5e\n"),
    (("share", "--secret", 12345, "--sets", "A,B|C", *GOLDEN_DEALER, "--seed", 21), 0,
     "s1\n"),
    (("share", "--secret-text", "hi", "--sets", "A,C|B,C|B,D", *GOLDEN_DEALER, "--seed", 22),
     0, "s2\n"),
    (("update", "renew", *GOLDEN_DEALER, "--secret-id", "s1", "--secret", 54321,
      "--seed", 23), 0, "renewed: s1\n"),
    (("update", "add-set", *GOLDEN_DEALER, "--secret-id", "s2", "--set", "A,D", "--seed", 24),
     0, "updated: s2\n"),
    (("update", "remove-set", *GOLDEN_DEALER, "--secret-id", "s2", "--index", 1), 0,
     "updated: s2\n"),
    (("update", "remove-participant", *GOLDEN_DEALER, "--id", "C", "--seed", 25), 0,
     "renewed: s1, s2\n"),
    (("contribute", *GOLDEN_BOARD, "--key", "A.key", "--secret-id", "s1", "--set", "A,B",
      "--out", "a.x"), 0, "1502730620\n"),
    (("contribute", *GOLDEN_BOARD, "--key", "B.key", "--secret-id", "s1", "--set", "A,B",
      "--out", "b.x"), 0, "985505392\n"),
    (("reconstruct", *GOLDEN_BOARD, "--secret-id", "s1", "--set", "A,B",
      "--contribution", "a.x", "--contribution", "b.x"), 0, "54321\ntag: ok\n"),
    (("verify", *GOLDEN_BOARD, "--secret-id", "s1", "--set", "A,B",
      "--contribution", "a.x", "--contribution", "b.x"), 0, "ok: A\nok: B\n"),
    (("contribute", *GOLDEN_BOARD, "--key", "B.key", "--secret-id", "s2", "--set", "B,D",
      "--out", "b2.x"), 0, "825572685\n"),
    (("contribute", *GOLDEN_BOARD, "--key", "D.key", "--secret-id", "s2", "--set", "B,D",
      "--out", "d2.x"), 0, "1595666044\n"),
    (("reconstruct", *GOLDEN_BOARD, "--secret-id", "s2", "--set", "B,D",
      "--contribution", "b2.x", "--contribution", "d2.x"), 0, "26729\ntag: ok\n"),
]
GOLDEN_SHA256 = {
    "A.key": "4e957a69ce617d03b48dc5fc29bc35d46d35da5d7db7379c08fc528197a36e68",
    "B.key": "cb170f0f606a81037d41e210a38b4161e0078a947b044046677de439b293ecd8",
    "C.key": "c1ae0c24596fd6373098eafbb2687c9fc70aa5f5a7b7f7017fec50ae40a03421",
    "D.key": "fba2a10462e9258108084cea183fbf5f5266fc6a3cd0e0099babf7891db3f717",
    "a.x": "2a8a96279bafc4e8589c7c1138de6e45502cf325a7fed9a3a4ea52f7a8b10dd6",
    "b.x": "06103c46eda089c855711f5f41939b60a17360c9a09d012f47ca71dfe5014dd4",
    "b2.x": "8aa01b7b5b4a06749be732573c00a946513736a0e126b5d1680cf9a73c68aafe",
    "board.json": "e78d5133b797ed710e0f42c9a500067f8a5cf31840ab2c59f7546086ab6df0e2",
    "board.json.lock": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "d2.x": "585846ae6c73634512e1d98032d8f65b5ba8d365864360d32bafcfdd14f447d4",
    "dealer.json": "266d29b6185fd60f8d2021324b112f362d8e8e436f50740399952011fc23653c",
}
GOLDEN_BOARD_HISTORY_SHA256 = "d95a9d26efadb2fe5cd1a9087a46c3a575562675d1f65ae0b0b62c1c1d93976d"
GOLDEN_DEALER_HISTORY_SHA256 = "1dc749cf79792cd2d5d0bdbf91f84809b6f345b5b85570a7c955fea63002a41b"


def test_golden_session(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    board_history, dealer_history = hashlib.sha256(), hashlib.sha256()
    for argv, want_code, want_out in GOLDEN_SESSION:
        code, out, _ = run(*argv)
        assert (code, out) == (want_code, want_out), argv
        board_history.update((tmp_path / "board.json").read_bytes())
        dealer_history.update((tmp_path / "dealer.json").read_bytes())
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert digests == GOLDEN_SHA256
    assert board_history.hexdigest() == GOLDEN_BOARD_HISTORY_SHA256
    assert dealer_history.hexdigest() == GOLDEN_DEALER_HISTORY_SHA256


def _readme_exit_table() -> dict[int, str]:
    """Code -> meaning, from the two-column table under "### Exit codes"."""
    text = (SRC.parent / "README.md").read_text()
    table = text.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        for code, meaning in zip(cells[::3], cells[1::3]):
            if code.isdigit():
                rows[int(code)] = meaning
    return rows


def test_exit_codes_are_unique_and_documented():
    classes, pending = [], [MsssError]
    while pending:
        subclasses = pending.pop().__subclasses__()
        classes += subclasses
        pending += subclasses
    codes = {cls.__name__: cls.exit_code for cls in classes}
    assert len(set(codes.values())) == len(codes), codes
    table = _readme_exit_table()
    assert set(codes.values()) <= set(table), set(codes.values()) - set(table)
    for retired in (22, 23):
        assert retired not in codes.values()
        assert table[retired] == "retired, not reused"


class TestExitCodes:
    def test_unwritable_board_path(self, run, tmp_path):
        code, _, err = run(
            "setup", "--bits", 4, "--board", tmp_path / "missing" / "b.json",
            "--dealer", tmp_path / "d.json", "--seed", 1,
        )
        assert code == 24
        assert "cannot" in err

    def test_contribution_written_nowhere_exits_24_and_leaves_no_temp_file(
        self, run, toy_files
    ):
        # a failed replace once left <out>.tmp behind
        tmp = toy_files["tmp"]
        (tmp / "a-dir").mkdir()
        for out, force in [(tmp / "missing" / "c.json", []), (tmp / "a-dir", ["--force"])]:
            code, stdout, err = run(
                "contribute", "--board", toy_files["board"], "--key", toy_files["keys"]["A"],
                "--secret-id", "s1", "--set", "A,B", "--out", out, *force,
            )
            assert (code, stdout) == (24, "")
            assert err.startswith(f"error: cannot write {out}: ")
        assert list(tmp.rglob("*.tmp")) == []
        assert list((tmp / "a-dir").iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["enroll", "--id", "A", "--key-out", "A.key"],
        ["share", "--secret", 5, "--sets", "A", "--dealer", "d.json"],
        ["update", "renew", "--secret-id", "s1", "--secret", 5, "--dealer", "d.json"],
    ], ids=["enroll", "share", "update"])
    def test_missing_board_exits_24_and_leaves_no_lock(self, run, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(*argv, "--board", "nope.json")
        assert (code, out) == (24, "")
        assert err.startswith("error: cannot read nope.json: ")
        assert list(tmp_path.iterdir()) == []

    def test_private_files_are_0600_and_public_files_take_the_umask(self, run, tmp_path):
        files = {name: tmp_path / name for name in ("board", "dealer", "A.key", "a.x")}
        world = ["--board", files["board"], "--dealer", files["dealer"]]
        umask = os.umask(0o022)
        try:
            assert run("setup", "--bits", 4, *world, "--seed", 1)[0] == 0
            assert run("enroll", "--id", "A", "--board", files["board"],
                       "--key-out", files["A.key"], "--seed", 2)[0] == 0
            files["dealer"].chmod(0o644)  # widened by hand: the next write narrows it again
            assert run("share", "--secret", 5, "--sets", "A", *world, "--seed", 3)[0] == 0
            assert run("contribute", "--board", files["board"], "--key", files["A.key"],
                       "--secret-id", "s1", "--set", "A", "--out", files["a.x"])[0] == 0
        finally:
            os.umask(umask)
        modes = {name: stat.S_IMODE(path.stat().st_mode) for name, path in files.items()}
        assert modes == {"board": 0o644, "dealer": 0o600, "A.key": 0o600, "a.x": 0o644}

    def test_negative_secret_exits_25_and_writes_nothing(self, run, toy_files):
        files = (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes())
        code, out, err = run("share", "--secret", -5, "--sets", "A", "--board",
                             toy_files["board"], "--dealer", toy_files["dealer"], "--seed", 1)
        assert (code, out, err) == (25, "", "error: secret must be non-negative, got -5\n")
        assert (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes()) == files

    def test_setup_refuses_existing_board(self, run, tmp_path):
        board, state = tmp_path / "b.json", tmp_path / "d.json"
        assert run("setup", "--bits", 4, "--board", board, "--dealer", state,
                   "--seed", 1)[0] == 0
        code, _, err = run("setup", "--bits", 4, "--board", board, "--dealer", state,
                           "--seed", 1)
        assert code == 3
        assert "already exists" in err

    def test_duplicate_enroll(self, run, toy_files):
        code, _, err = run(
            "enroll", "--id", "A", "--board", toy_files["board"],
            "--key-out", toy_files["tmp"] / "again.json",
        )
        assert code == 4

    def test_enroll_refuses_a_pseudo_share_already_on_the_roster(self, run, tmp_path):
        # at --bits 4 (n = 143) seeds 3 and 4 draw different s with one g^s
        board, state = tmp_path / "b.json", tmp_path / "d.json"
        assert run("setup", "--bits", 4, "--board", board, "--dealer", state,
                   "--seed", 1)[0] == 0
        assert run("enroll", "--id", "A", "--board", board, "--key-out", tmp_path / "A.key",
                   "--seed", 3)[0] == 0
        before = board.read_bytes(), state.read_bytes()
        key = tmp_path / "B.key"
        code, out, err = run("enroll", "--id", "B", "--board", board, "--key-out", key,
                             "--seed", 4)
        assert (code, out) == (4, "")
        assert "A's" in err
        assert not key.exists()
        assert (board.read_bytes(), state.read_bytes()) == before

    @pytest.mark.parametrize(
        "pid", ["", " ", "C,D", "C|D", " C"], ids=["empty", "blank", "comma", "bar", "padded"]
    )
    def test_enroll_refuses_an_id_no_set_can_name(self, run, toy_files, pid):
        # "" once wrote its key file before failing; the others enrolled
        key = toy_files["tmp"] / "kc.json"
        board = toy_files["board"].read_bytes()
        code, out, err = run(
            "enroll", "--id", pid, "--board", toy_files["board"], "--key-out", key, "--seed", 1
        )
        assert code == 25
        assert out == ""
        assert repr(pid) in err
        assert not key.exists()
        assert toy_files["board"].read_bytes() == board

    def test_nested_sets_rejected(self, run, toy_files):
        code, _, err = run(
            "share", "--secret", 5, "--sets", "A|A,B", "--board", toy_files["board"],
            "--dealer", toy_files["dealer"],
        )
        assert code == 6

    def test_secret_equal_to_m_rejected(self, run, toy_files):
        code, _, _ = run(
            "share", "--secret", 149, "--sets", "A,B", "--board", toy_files["board"],
            "--dealer", toy_files["dealer"],
        )
        assert code == 5

    def test_unknown_secret_id(self, run, toy_files):
        code, _, _ = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s9", "--set", "A,B",
            "--contribution", toy_files["tmp"] / "none.json",
        )
        assert code == 8

    def test_unmatched_set_designation(self, run, toy_files):
        path_a, _ = _contribute(run, toy_files, "A", "ca.json")
        code, _, err = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", "s1", "--set", "A",
            "--contribution", path_a,
        )
        assert code == 26
        assert "no qualified set" in err

    def test_secret_text_too_large(self, run, toy_files):
        code, _, _ = run(
            "share", "--secret-text", "hello world", "--sets", "A,B",
            "--board", toy_files["board"], "--dealer", toy_files["dealer"],
        )
        assert code == 5

    def test_bad_secret_literal(self, run, toy_files):
        code, _, err = run(
            "share", "--secret", "12banana", "--sets", "A,B",
            "--board", toy_files["board"], "--dealer", toy_files["dealer"],
        )
        assert code == 25


class TestSecretText:
    def test_text_secret_round_trip(self, run, toy_files):
        # "d" encodes to 100, the toy secret value
        code, out, _ = run(
            "share", "--secret-text", "d", "--sets", "A,B",
            "--board", toy_files["board"], "--dealer", toy_files["dealer"], "--seed", 6,
        )
        assert code == 0
        sid = out.strip()
        path_a, _ = _contribute(run, toy_files, "A", "ta.json", secret_id=sid)
        path_b, _ = _contribute(run, toy_files, "B", "tb.json", secret_id=sid)
        code, out, _ = run(
            "reconstruct", "--board", toy_files["board"], "--secret-id", sid, "--set", "A,B",
            "--contribution", path_a, "--contribution", path_b,
        )
        assert code == 0
        recovered = int(out.splitlines()[0])
        assert recovered.to_bytes(1, "big").decode() == "d"


def _set_byte(path, at, value):
    data = bytearray(path.read_bytes())
    data[at] = value
    path.write_bytes(bytes(data))


def _long_revision(path):
    # past int's 4300-digit limit json.loads raises a plain ValueError
    path.write_text(re.sub(r'"revision": \d+', '"revision": ' + "1" * 5000, path.read_text()))


class TestRefusalsAreMsssErrors:
    """A refusal is raised as an ``msss.errors`` class and exits with its
    code; anything else that leaves a command is a bug and a traceback."""

    @pytest.mark.parametrize(
        "corrupt, secret, code, message",
        [
            # each once exited 25 as a bad parameter
            pytest.param(lambda world: _set_byte(world["board"], 40, 0xFF), ["--secret", "5"],
                         18, "board.json: not UTF-8: 'utf-8' codec can't decode byte 0xff",
                         id="board-byte-0xff"),
            pytest.param(lambda world: _long_revision(world["board"]), ["--secret", "5"],
                         18, "board.json: not valid JSON: Exceeds the limit",
                         id="board-revision-5000-digits"),
            # an argv byte that is not UTF-8 reaches the option as a surrogate
            pytest.param(lambda world: None, ["--secret-text", "\udcff"],
                         25, "--secret-text is not valid UTF-8", id="secret-text-not-utf-8"),
        ],
    )
    def test_unreadable_input_is_refused_and_nothing_written(
        self, run, toy_files, corrupt, secret, code, message
    ):
        corrupt(toy_files)
        files = (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes())
        result = run("share", *secret, "--sets", "A", "--board", toy_files["board"],
                     "--dealer", toy_files["dealer"], "--seed", 1)
        assert result[:2] == (code, "")
        assert result[2].startswith("error: ") and message in result[2]
        assert (toy_files["board"].read_bytes(), toy_files["dealer"].read_bytes()) == files

    def test_a_plain_value_error_is_a_bug_not_an_exit_code(self, run, toy_files, monkeypatch):
        paths = [_contribute(run, toy_files, pid, f"c{pid}.json")[0] for pid in "AB"]

        def broken(*args):
            raise ValueError("a bug")

        monkeypatch.setattr(combiner, "check_contributions", broken)
        with pytest.raises(ValueError, match="a bug"):
            main([str(a) for a in ("verify", *_session_args(toy_files, paths))])


def _fuzz_world(tmp: Path) -> dict[str, bytes]:
    """The files of a 4-bit world: board, dealer, keys of A and B, s1 shared
    to {A, B}, and both contributions to it."""
    board, dealer_file = tmp / "board.json", tmp / "dealer.json"
    argv = [
        ("setup", "--bits", 4, "--board", board, "--dealer", dealer_file, "--seed", 1),
        ("enroll", "--id", "A", "--board", board, "--key-out", tmp / "ka.json", "--seed", 1),
        ("enroll", "--id", "B", "--board", board, "--key-out", tmp / "kb.json", "--seed", 2),
        ("share", "--secret", 5, "--sets", "A,B", "--board", board, "--dealer", dealer_file,
         "--seed", 1),
    ]
    for pid in "ab":
        argv.append(("contribute", "--board", board, "--key", tmp / f"k{pid}.json",
                     "--secret-id", "s1", "--set", "A,B", "--out", tmp / f"c{pid}.json"))
    with contextlib.redirect_stdout(io.StringIO()):
        for args in argv:
            assert main([str(a) for a in args]) == 0, args
    return {path.name: path.read_bytes() for path in tmp.iterdir()}


@pytest.fixture(scope="module")
def fuzz_world(tmp_path_factory):
    return _fuzz_world(tmp_path_factory.mktemp("fuzz"))


def _leaves(obj, path=()):
    """The path of every JSON leaf (a number, string, bool, null or empty
    container) below obj."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return [path]
    return [leaf for key, value in children for leaf in _leaves(value, (*path, key))] or [path]


# 0 and every code of the README table that is not retired
_LIVE_CODES = {0} | {code for code, meaning in _readme_exit_table().items()
                     if meaning != "retired, not reused"}
_FUZZ_FILES = ["board.json", "dealer.json", "ka.json", "ca.json"]
_SESSION = ("--secret-id", "s1", "--set", "A,B")
_CONTRIBUTIONS = ("--contribution", "ca.json", "--contribution", "cb.json")
_FUZZ_COMMANDS = {
    "verify": ("verify", *_SESSION, *_CONTRIBUTIONS),
    "reconstruct": ("reconstruct", *_SESSION, *_CONTRIBUTIONS),
    "contribute": ("contribute", "--key", "ka.json", *_SESSION, "--out", "new.json"),
    "add-set": ("update", "add-set", "--dealer", "dealer.json", "--secret-id", "s1",
                "--set", "B", "--seed", "1"),
    "renew": ("update", "renew", "--dealer", "dealer.json", "--secret-id", "s1",
              "--secret", "7", "--seed", "1"),
}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False),
    st.text(max_size=6), st.sampled_from(["", "0", "00", "1", "ff", "A", "s1", "s2"]),
    st.just([]), st.just({}),
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_corrupted_file_exits_with_a_documented_code(fuzz_world, data):
    """One JSON leaf or one byte of one file replaced: every command exits
    with a code of the README table, and a refused dealer command writes
    neither of its files."""
    name = data.draw(st.sampled_from(_FUZZ_FILES), "file")
    raw = fuzz_world[name]
    if data.draw(st.booleans(), "replace a leaf"):
        obj = json.loads(raw)
        *path, key = data.draw(st.sampled_from(_leaves(obj)), "leaf")
        parent = obj
        for step in path:
            parent = parent[step]
        parent[key] = data.draw(_JSON_VALUES, "value")
        corrupted = json.dumps(obj).encode()
    else:
        at = data.draw(st.integers(0, len(raw) - 1), "at")
        corrupted = raw[:at] + bytes([data.draw(st.integers(0, 255), "byte")]) + raw[at + 1:]
    command = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)), "command")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for file_name, content in fuzz_world.items():
            (tmp / file_name).write_bytes(corrupted if file_name == name else content)
        argv = [*_FUZZ_COMMANDS[command], "--board", "board.json"]
        argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]
        dealer_files = [(tmp / "board.json").read_bytes(), (tmp / "dealer.json").read_bytes()]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in _LIVE_CODES, code
        if code and command in ("add-set", "renew"):
            assert [(tmp / "board.json").read_bytes(),
                    (tmp / "dealer.json").read_bytes()] == dealer_files


# `msss simulate --participants 6 --secrets 4 --cheaters 1 --bits 64 --seed <seed>`
# Seeds 7 and 11 were recorded again when m came with its prime chain, which
# moves every draw after g. Seed 3 kept its report: keygen's rejection
# sampling brings its stream back to the same words. All three were recorded
# again when the dealer began to draw a short h0 first, which moves every
# draw after the first share, and again when p and q came with prime chains
# of their own, which moves n and every draw after it. All three were
# recorded again when m became the one constant of its width, drawn from no
# rng, which moves every draw after g and widens m to 129 bits.
GOLDEN_REPORT_SHA256 = {
    7: "672bd39616419983739b4985aed4f8bbaafd3b0db10102fd8f780ddb6659cfed",
    3: "043672a2e0898dcc885bac9ae3e75125278da8b92c5f37ade1894e6fe361aaa3",
    11: "c134c52a3410e42befec153def7a44f744870bbe313428b29aa501c9992bd7ab",
}


class TestSimulateCommand:
    def test_deterministic_report(self, run):
        argv = ("simulate", "--participants", 4, "--secrets", 2, "--seed", 9, "--cheaters", 1)
        code_a, out_a, _ = run(*argv)
        code_b, out_b, _ = run(*argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert report["summary"]["cheaters_missed"] == 0
        assert report["summary"]["unauthorized_accepted"] == 0

    @pytest.mark.parametrize("seed", GOLDEN_REPORT_SHA256)
    def test_golden_report(self, run, seed):
        # SHA-256 of the whole report; a refactor must not change a byte of it
        code, out, _ = run("simulate", "--participants", 6, "--secrets", 4, "--cheaters", 1,
                           "--bits", 64, "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORT_SHA256[seed]

    def test_too_few_powers_of_g_for_distinct_pseudo_shares(self, run):
        # every g mod 143 = 11 * 13 has an order dividing lcm(10, 12) = 60, so
        # 61 members cannot all hold a pseudo-share of their own, and the
        # redraw gives up; seed 3 draws g = 28
        code, out, err = run("simulate", "--participants", 61, "--secrets", 1, "--bits", 4,
                             "--seed", 3)
        assert code == 25
        assert out == ""
        assert "g = 28 has too few powers mod n = 143 for 61 distinct pseudo-shares" in err

    def test_timing_goes_to_stderr_not_the_report(self, run):
        code, out, err = run("simulate", "--participants", 3, "--secrets", 1, "--seed", 2)
        assert code == 0
        assert " ms" in err
        report = json.loads(out)
        assert set(report) == {"config", "params", "sessions", "unauthorized", "summary"}


def test_setup_bits_are_per_prime_factor(run, tmp_path):
    code, out, _ = run(
        "setup", "--bits", 16, "--board", tmp_path / "b.json",
        "--dealer", tmp_path / "d.json", "--seed", 3,
    )
    assert code == 0
    board = bulletin.load(tmp_path / "b.json")
    assert board.params.n.bit_length() in (31, 32)  # two 16-bit factors
    assert f"({board.params.n.bit_length()} bits)" in out


def test_module_entry_point_runs_in_subprocess(tmp_path):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    result = subprocess.run(
        [sys.executable, "-B", "-m", "msss", "setup", "--bits", "4",
         "--board", str(tmp_path / "b.json"), "--dealer", str(tmp_path / "d.json"),
         "--seed", "1"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "n = 143" in result.stdout  # 11 and 13 are the only 4-bit primes
    assert (tmp_path / "b.json").exists()


def _commands(parser, names=()):
    """(names, parser) of every command, update's by both of their names."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*names, name))
            return
    yield names, parser


COMMANDS = dict(_commands(cli.build_parser()))
SHARED_OPTIONS = ("--board", "--dealer", "--seed", "--force", "--id", "--secret-id", "--set",
                  "--contribution", "--secret", "--secret-text")


def test_there_are_eleven_commands():
    assert len(COMMANDS) == 11


@pytest.mark.parametrize("option", SHARED_OPTIONS)
def test_shared_option_has_one_help_and_one_required(option):
    taken = {
        names: (action.help, action.required)
        for names, parser in COMMANDS.items()
        for action in parser._actions
        if option in action.option_strings
    }
    assert len(taken) > 1
    assert len(set(taken.values())) == 1, taken
    assert next(iter(taken.values()))[0]


def test_every_option_has_a_help_text():
    bare = [
        (" ".join(names), action.option_strings)
        for names, parser in COMMANDS.items()
        for action in parser._actions
        if action.option_strings and not action.help
    ]
    assert bare == []
    # the help of --id states the rule that dealer.enroll keeps
    id_help = COMMANDS[("enroll",)]._option_string_actions["--id"].help
    assert "no ',' or '|', no leading/trailing spaces" in id_help


@pytest.mark.parametrize("names", COMMANDS, ids=" ".join)
def test_every_command_has_help(capsys, names):
    with pytest.raises(SystemExit) as raised:
        main([*names, "--help"])
    assert raised.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: msss {' '.join(names)} ")


@pytest.mark.parametrize("names", COMMANDS, ids=" ".join)
def test_the_named_command_alone_gets_its_options(names):
    # main builds the parser for the command its first word names
    alone = dict(_commands(cli.build_parser(names[0])))
    assert alone[names].format_help() == COMMANDS[names].format_help()
    filled = {n for n, parser in alone.items() if len(parser._actions) > 1}
    assert filled == {n for n in COMMANDS if n[0] == names[0]}


def test_a_top_level_error_still_names_every_command(capsys):
    argv = ["verify", "--board", "b", "--secret-id", "s1", "--set", "A", "--contribution", "c"]
    with pytest.raises(SystemExit) as raised:
        main([*argv, "extra"])
    assert raised.value.code == 2
    assert capsys.readouterr().err == (
        cli.build_parser().format_usage() + "msss: error: unrecognized arguments: extra\n"
    )
