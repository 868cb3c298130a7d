"""Acceptance suite: the deliverable's exit criteria, one test per criterion.

Each test prints an ``ACCEPTANCE <name>: PASS`` line (visible with -s);
a failure shows up as the test failing. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import math
import random
import time

import pytest

from msss import accessstruct, bulletin, combiner, dealer, participant
from msss.linepoly import interpolate_line
from msss.simulate import SimulationConfig, run_simulation

from conftest import TOY_SETUP, TOY_SHARE
from oracles import brute_line_search, naive_mod_exp, scan_inverse
from scripted import ScriptedRandom

SMALL_WORLD_BUDGET_SECONDS = 10.0
BIG_WORLD_BUDGET_SECONDS = 120.0
CHEATER_TRIALS = 10_000


def _announce(name):
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def small_world_pass():
    """One shared pass over 200 randomized toy deployments (16-bit primes,
    3..8 participants, 1..5 secrets, antichains of 1..4 minimal sets),
    including every strict-subset and non-covering probe."""
    rng = random.Random(20260808)
    reports = []
    started = time.monotonic()
    for _ in range(200):
        config = SimulationConfig(
            participants=rng.randint(3, 8),
            secrets=rng.randint(1, 5),
            bits_per_prime=16,
            max_minimal_sets=rng.randint(1, 4),
            max_set_size=4,
            cheaters_per_session=0,
            unauthorized_probes=2,
            seed=rng.randrange(2**32),
        )
        reports.append(run_simulation(config))
    elapsed = time.monotonic() - started
    return reports, elapsed


def test_round_trip_completeness(small_world_pass):
    """Every qualified set of every deployment recovers its exact secret and
    passes the tag check, inside the time budget."""
    reports, elapsed = small_world_pass
    assert len(reports) == 200
    sessions = sum(r["summary"]["sessions"] for r in reports)
    recovered = sum(r["summary"]["recovered"] for r in reports)
    tag_ok = sum(r["summary"]["tag_ok"] for r in reports)
    assert sessions > 0
    assert recovered == sessions, f"only {recovered}/{sessions} sessions recovered"
    assert tag_ok == sessions
    assert elapsed < SMALL_WORLD_BUDGET_SECONDS, f"took {elapsed:.2f}s"
    _announce(f"round-trip completeness (200 deployments, {sessions} sessions, {elapsed:.2f}s)")


def test_round_trip_completeness_512_bit():
    """Confirmation run at production-sized parameters."""
    rng = random.Random(512512)
    started = time.monotonic()
    sessions = 0
    for _ in range(10):
        config = SimulationConfig(
            participants=rng.randint(3, 5),
            secrets=rng.randint(1, 2),
            bits_per_prime=512,
            max_minimal_sets=2,
            max_set_size=3,
            unauthorized_probes=1,
            seed=rng.randrange(2**32),
        )
        report = run_simulation(config)
        summary = report["summary"]
        assert summary["recovered"] == summary["sessions"] == summary["tag_ok"]
        assert summary["unauthorized_accepted"] == 0
        assert report["params"]["n_bits"] in (1023, 1024)
        sessions += summary["sessions"]
    elapsed = time.monotonic() - started
    assert elapsed < BIG_WORLD_BUDGET_SECONDS, f"took {elapsed:.2f}s"
    _announce(f"round-trip completeness at 512-bit primes ({sessions} sessions, {elapsed:.1f}s)")


def test_worked_example_fixture():
    """The fixed toy deployment reproduces every published constant, each one
    recomputed here by brute force (repeated multiplication, exhaustive
    inverse and line search) before being compared."""
    # independent recomputation
    assert naive_mod_exp(15, 5, 143) == 45  # ps_A
    assert naive_mod_exp(15, 7, 143) == 115  # ps_B and ps0
    assert scan_inverse(7, 120) == 103  # h0
    assert (100 + 5 * 1) % 149 == 105  # f(1)
    assert (100 + 5 * 7) % 149 == 135  # f(7)
    assert naive_mod_exp(45, 7, 143) == 111  # A's mask, also x_A
    assert naive_mod_exp(115, 7, 143) == 80  # B's mask, also x_B
    assert 135 ^ 111 ^ 80 == 184  # masked value
    assert 184 ^ 111 ^ 80 == 135  # unmasking
    assert brute_line_search(1, 105, 7, 135, 149) == [(100, 5)]

    # the implementation against the same constants
    params, state = dealer.setup(4, ScriptedRandom(TOY_SETUP))
    assert (params.n, params.m, params.width) == (143, 149, 1)
    key_a = participant.keygen(params, "A", ScriptedRandom([5]))
    key_b = participant.keygen(params, "B", ScriptedRandom([7]))
    assert (key_a.ps, key_b.ps) == (45, 115)
    roster = {"A": key_a.ps, "B": key_b.ps}
    board = bulletin.Board(params, roster)
    package = dealer.share_secret(
        state, board, 100,
        accessstruct.validate_minimal([["A", "B"]]),
        ScriptedRandom(TOY_SHARE),
    )
    assert (package.ps0, package.h0, package.f1) == (115, 103, 105)
    assert (package.entry(1).d, package.entry(1).masked) == (7, 184)
    c_a = participant.contribute(params, key_a, package, 1)
    c_b = participant.contribute(params, key_b, package, 1)
    assert (c_a.x, c_b.x) == (111, 80)
    recovered = combiner.reconstruct(params, package, 1, [c_a, c_b], roster)
    assert recovered == 100
    assert combiner.verify_secret(package, 1, recovered, params.width)
    _announce("worked-example fixture (all constants brute-force checked)")


def test_cheater_detection_is_deterministic():
    """Every tampered unit contribution fails verification: zero misses over
     10,000 randomized tampers."""
    rng = random.Random(1337)
    params, state = dealer.setup(16, rng)
    pids = ["P1", "P2", "P3"]
    keys = {pid: participant.keygen(params, pid, rng) for pid in pids}
    roster = {pid: k.ps for pid, k in keys.items()}
    board = bulletin.Board(params, roster)
    package = dealer.share_secret(
        state, board, rng.randrange(params.m),
        accessstruct.validate_minimal([pids]), rng,
    )
    honest = {pid: participant.contribute(params, keys[pid], package, 1) for pid in pids}
    misses = 0
    for trial in range(CHEATER_TRIALS):
        pid = pids[trial % len(pids)]
        while True:
            forged_x = rng.randrange(1, params.n)
            if forged_x != honest[pid].x and math.gcd(forged_x, params.n) == 1:
                break
        forged = bulletin.Contribution(pid=pid, secret_id=package.secret_id, set_index=1, x=forged_x)
        if combiner.verify_contribution(params, package, roster[pid], forged):
            misses += 1
    assert misses == 0
    _announce(f"cheater detection ({CHEATER_TRIALS} tampers, 0 misses)")


def test_unauthorized_sets_never_pass_the_tag(small_world_pass):
    """Across the 200 deployments, every strict subset of a minimal set and
    every probed non-covering coalition fails the tag check."""
    reports, _ = small_world_pass
    probes = sum(r["summary"]["unauthorized_probes"] for r in reports)
    accepted = sum(r["summary"]["unauthorized_accepted"] for r in reports)
    strict_subsets = sum(
        p["kind"] == "strict-subset" for r in reports for p in r["unauthorized"]
    )
    assert probes > 0 and strict_subsets > 0
    assert accepted == 0, f"{accepted} unauthorized acceptances"
    _announce(f"unauthorized-set soundness ({probes} probes, 0 false acceptances)")


def test_multi_use_keys():
    """The same participant keys serve several secrets shared at different
    times, with no key regeneration."""
    rng = random.Random(404)
    params, state = dealer.setup(16, rng)
    pids = ["P1", "P2", "P3", "P4"]
    keys = {pid: participant.keygen(params, pid, rng) for pid in pids}
    frozen = dict(keys)  # the exact key objects reused throughout
    roster = {pid: k.ps for pid, k in keys.items()}
    board = bulletin.Board(params, roster)
    structure = accessstruct.validate_minimal([["P1", "P2"], ["P3", "P4"]])
    packages = []
    for _ in range(3):
        packages.append(dealer.share_secret(state, board, rng.randrange(params.m), structure, rng))
    for package in packages:
        for j in (1, 2):
            contribs = [
                participant.contribute(params, frozen[pid], package, j)
                for pid in sorted(package.entry(j).members)
            ]
            recovered = combiner.reconstruct(params, package, j, contribs, roster)
            assert combiner.verify_secret(package, j, recovered, params.width)
    assert keys == frozen
    _announce("multi-use keys (3 secrets, same keys throughout)")


def test_dynamic_updates_touch_nothing_else(tmp_path, capsys):
    """Renew, add-set, remove-set, and remove-participant leave participant
    key files byte-identical and unrelated packages byte-identical."""
    from msss.cli import main

    def run(*argv):
        code = main([str(a) for a in argv])
        capsys.readouterr()
        return code

    board = tmp_path / "board.json"
    state = tmp_path / "dealer.json"
    assert run("setup", "--bits", 16, "--board", board, "--dealer", state, "--seed", 1) == 0
    key_paths = {}
    for i, pid in enumerate(["A", "B", "C", "D"]):
        key_paths[pid] = tmp_path / f"{pid}.json"
        assert run("enroll", "--id", pid, "--board", board, "--key-out", key_paths[pid],
                   "--seed", 10 + i) == 0
    assert run("share", "--secret", 1234, "--sets", "A,B|C", "--board", board,
               "--dealer", state, "--seed", 20) == 0  # s1, the one we mutate
    assert run("share", "--secret", 777, "--sets", "A|B,C", "--board", board,
               "--dealer", state, "--seed", 21) == 0  # s2, must never change

    def key_hashes():
        return {pid: hashlib.sha256(path.read_bytes()).hexdigest()
                for pid, path in key_paths.items()}

    def package_bytes(sid):
        return json.dumps(bulletin.package_to_obj(bulletin.load(board).packages[sid]))

    keys_before = key_hashes()
    s2_before = package_bytes("s2")

    assert run("update", "renew", "--board", board, "--dealer", state,
               "--secret-id", "s1", "--secret", 999, "--seed", 30) == 0
    assert run("update", "add-set", "--board", board, "--dealer", state,
               "--secret-id", "s1", "--set", "A,D", "--seed", 31) == 0
    assert run("update", "remove-set", "--board", board, "--dealer", state,
               "--secret-id", "s1", "--index", 1) == 0
    assert run("update", "remove-participant", "--board", board, "--dealer", state,
               "--id", "D", "--seed", 32) == 0

    assert key_hashes() == keys_before, "an update touched a participant key file"
    assert package_bytes("s2") == s2_before, "an update changed an unrelated package"

    # the untouched secret still reconstructs with the original key files
    loaded = bulletin.load(board)
    pkg = loaded.packages["s2"]
    keys = {pid: bulletin.ParticipantKey(
        pid=pid,
        s=int(json.loads(key_paths[pid].read_text())["s"], 16),
        ps=int(json.loads(key_paths[pid].read_text())["ps"], 16),
    ) for pid in ("A", "B", "C")}
    contribs = [participant.contribute(loaded.params, keys[pid], pkg, 2) for pid in ("B", "C")]
    recovered = combiner.reconstruct(loaded.params, pkg, 2, contribs, loaded.roster)
    assert recovered == 777
    _announce("dynamic-update isolation (key files and unrelated packages untouched)")


def test_interpolation_matches_bruteforce_over_z149():
    """interpolate_line agrees exactly with an exhaustive linear-system
    search over Z_149: every (y1, y2) pair at the worked abscissa d = 7,
    plus every (d, y2) with d in [2, 148] against the worked public point
    (1, 105)."""
    m = 149
    cases = 0
    for y1 in range(m):
        for y2 in range(m):
            [(secret, _)] = brute_line_search(1, y1, 7, y2, m)
            assert interpolate_line(y1, 7, y2, m) == secret
            cases += 1
    for d in range(2, m):
        for y2 in range(m):
            [(secret, _)] = brute_line_search(1, 105, d, y2, m)
            assert interpolate_line(105, d, y2, m) == secret
            cases += 1
    assert cases == m * m + (m - 2) * m
    _announce(f"interpolation oracle equivalence ({cases} cases over Z_149)")


def test_share_size_claim(small_world_pass):
    """Private shares are no longer than min(n, 2^256), and n is no longer
    than m."""
    reports, _ = small_world_pass
    for report in reports:
        p = report["params"]
        assert p["max_share_bits"] <= min(p["n_bits"], 256)
        assert p["n_bits"] <= p["m_bits"]
    # where n is wider than 2^256, the 256-bit bound is the one that holds
    p = run_simulation(
        SimulationConfig(participants=4, secrets=1, bits_per_prime=192, seed=192)
    )["params"]
    assert p["max_share_bits"] <= 256 < p["n_bits"] <= p["m_bits"]
    # direct check on explicit keys as well
    rng = random.Random(8)
    params, _ = dealer.setup(16, rng)
    for pid in ("P1", "P2", "P3"):
        key = participant.keygen(params, pid, rng)
        assert key.s.bit_length() <= min(params.n.bit_length(), 256)
        assert params.n.bit_length() <= params.m.bit_length()
    _announce("share-size claim (bitlen(s) <= min(bitlen(n), 256), bitlen(n) <= bitlen(m))")
