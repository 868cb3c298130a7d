import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss import accessstruct, bulletin, codec, combiner, dealer, participant
from msss.errors import (
    BadParameter,
    DuplicateParticipant,
    InvariantViolation,
    SecretTooLarge,
    UnknownSecret,
)
from msss.numtheory import proves_prime
from msss.simulate import attack_entry

from conftest import FIVE_SETS, TEN_ROSTER, TOY_SETUP, make_toy_world
from oracles import miller_rabin, naive_mod_exp
from scripted import LimitedRandom, ScriptedRandom


def _enroll_three(params):
    keys = {
        pid: participant.keygen(params, pid, ScriptedRandom([s]))
        for pid, s in (("A", 5), ("B", 7), ("C", 9))
    }
    return keys, {pid: k.ps for pid, k in keys.items()}


_DEALER_64 = dealer.setup(64, random.Random(7))[1]


class TestCrtPow:
    """Every dealer pow mod n is split over p and q; it must be exactly
    pow(x, e, n), also where x is 0 mod p or mod q."""

    @pytest.mark.parametrize(
        "state", [bulletin.DealerState(p=11, q=13), _DEALER_64], ids=["toy", "64-bit"]
    )
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_pow_mod_n(self, state, data):
        p, q = state.p, state.q
        n = p * q
        x = data.draw(
            st.one_of(
                st.integers(0, 2 * n - 1),
                st.sampled_from([0, n - 1]),
                st.integers(0, 2 * q - 1).map(lambda k: k * p),
                st.integers(0, 2 * p - 1).map(lambda k: k * q),
            ),
            label="x",
        )
        e = data.draw(st.integers(1, 2 * n), label="e")
        assert dealer._pow_n(state, x, e) == pow(x, e, n)

    def test_garner_constant_is_derived_with_the_state(self):
        # q**-1 mod p is set when the state is made, not on each _pow_n call
        assert _DEALER_64.q_inv == pow(_DEALER_64.q, -1, _DEALER_64.p)
        assert bulletin.DealerState(11, 13).q_inv == 6


class TestSetup:
    def test_toy_parameters(self):
        params, state = dealer.setup(4, ScriptedRandom(TOY_SETUP))
        assert (state.p, state.q, state.phi) == (11, 13, 120)
        assert params.n == 143
        assert params.m == 149  # 144..148 are all composite
        assert params.width == 1
        assert params.g == 15

    def test_g_rejected_until_coprime(self):
        # the first g drawn is the factor 13 and must be resampled
        rng = ScriptedRandom([3, 5, 13, 15])
        params, _ = dealer.setup(4, rng)
        assert params.g == 15
        assert rng.values == []

    def test_deterministic_under_seed(self):
        a = dealer.setup(16, random.Random(42))
        b = dealer.setup(16, random.Random(42))
        assert a == b

    def test_generated_parameters_are_coherent(self):
        params, state = dealer.setup(16, random.Random(5))
        assert state.p != state.q
        assert state.p * state.q == params.n
        assert (state.p - 1) * (state.q - 1) == state.phi
        assert params.m > params.n
        oracle = random.Random(5)
        assert all(miller_rabin(x, oracle) for x in (state.p, state.q, params.m))
        assert math.gcd(params.g, params.n) == 1
        assert params.g * params.g >= params.n  # g >= sqrt(n)
        assert params.n.bit_length() in (31, 32)

    @given(bits=st.integers(min_value=8, max_value=128), seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_m_comes_with_a_chain_that_proves_it(self, bits, seed):
        params, _ = dealer.setup(bits, random.Random(seed))
        assert params.m > params.n
        assert params.width == codec.mask_width(params.m)
        assert proves_prime(params.m, params.m_chain)
        oracle = random.Random(seed)
        assert all(miller_rabin(link, oracle) for link in (params.m, *params.m_chain))

    def test_rejects_tiny_primes(self):
        with pytest.raises(BadParameter):
            dealer.setup(2)


class TestEnroll:
    def test_adds_a_member_or_refuses_changing_nothing(self, toy):
        ps_c = participant.keygen(toy.params, "C", ScriptedRandom([9])).ps
        dealer.enroll(toy.board, "C", ps_c)
        roster = {"A": toy.key_a.ps, "B": toy.key_b.ps, "C": ps_c}
        assert toy.roster == roster
        n = toy.params.n
        unit = "pseudo-share of D is not a reduced unit mod n"
        for pid, ps, error, message in [
            ("C", 2, DuplicateParticipant, "C is already enrolled"),
            ("D", toy.key_b.ps, DuplicateParticipant, "the pseudo-share drawn for D is B's"),
            # no set list names these ids, and the reader refuses each
            *[
                (pid, 2, BadParameter, f"participant id {pid!r} cannot be named in a set list")
                for pid in ["", " ", " C", "C,D", "C|D", 7]
            ],
            # not a reduced unit mod n = 11 * 13
            *[("D", ps, BadParameter, unit) for ps in [0, n, 11, n + ps_c]],
        ]:
            with pytest.raises(error) as raised:
                dealer.enroll(toy.board, pid, ps)
            assert str(raised.value) == message
            assert toy.roster == roster


def test_every_lookup_of_a_secret_refuses_with_one_message(toy):
    before = dict(toy.board.packages), dict(toy.state.secrets)
    for lookup in [
        lambda: toy.board.package("s9"),
        lambda: dealer.renew_secret(toy.state, toy.board, "s9", 1, random.Random(1)),
        lambda: dealer.add_qualified_set(toy.state, toy.board, "s9", ["A"], random.Random(1)),
        lambda: dealer.remove_qualified_set(toy.board, "s9", 1),
    ]:
        with pytest.raises(UnknownSecret, match=r"^no secret 's9' on the board$"):
            lookup()
    assert (toy.board.packages, toy.state.secrets) == before
    assert toy.board.package("s1") is toy.package


class TestShareSecret:
    def test_worked_example_package(self, toy):
        pkg = toy.package
        assert pkg.secret_id == "s1"
        assert pkg.ps0 == naive_mod_exp(15, 7, 143) == 115
        assert pkg.h0 == 103
        assert pkg.f1 == 105
        entry = pkg.entry(1)
        assert entry.d == 7
        assert entry.masked == 184
        assert entry.members == frozenset("AB")
        # mask components, recomputed by brute force
        assert naive_mod_exp(45, 7, 143) == 111
        assert naive_mod_exp(115, 7, 143) == 80
        assert 135 ^ 111 ^ 80 == 184

    def test_h0_whose_ps0_is_g_is_drawn_again(self):
        # h0 = 61 is its own inverse mod 120, and 15^61 = 15 mod 143 as g has
        # order 60: ps0 would be g and every mask ps^61 the roster value ps.
        # The board refuses such a package, so the dealer draws again
        params, state = dealer.setup(4, ScriptedRandom(TOY_SETUP))
        keys, roster = _enroll_three(params)
        board = bulletin.Board(params, roster)
        structure = accessstruct.validate_minimal([["A", "B"]])
        assert pow(params.g, pow(61, -1, state.phi), params.n) == params.g
        rng = ScriptedRandom([61, 103, 5, 7])
        pkg = dealer.share_secret(state, board, 100, structure, rng)
        assert rng.values == []
        assert (pkg.ps0, pkg.h0, pkg.f1) == (115, 103, 105)
        refused = bulletin.Board(params, dict(roster), {"s1": pkg._replace(ps0=params.g, h0=61)})
        with pytest.raises(InvariantViolation, match="s1: ps0 is g"):
            bulletin.from_document(bulletin.to_document(refused))
        # add-set reads back exactly the drawn s0 = 7
        pkg = dealer.add_qualified_set(state, board, "s1", ["C"], ScriptedRandom([9]))
        entry = pkg.entry(2)
        assert (entry.members, entry.d) == (frozenset("C"), 9)
        assert entry.masked == ((100 + 5 * 9) % 149) ^ naive_mod_exp(roster["C"], 7, 143)
        c = participant.contribute(params, keys["C"], pkg, 2)
        assert combiner.reconstruct(params, pkg, 2, [c], roster) == 100

    def test_h0_of_another_package_or_not_a_unit_is_drawn_again(self, toy):
        # 103 is s1's h0 (one h0 is one s0), 105 shares 15 with phi = 120
        structure = accessstruct.validate_minimal([["A"]])
        rng = ScriptedRandom([103, 105, 11, 5, 7])
        pkg = dealer.share_secret(toy.state, toy.board, 17, structure, rng)
        assert rng.values == []
        assert pkg.h0 == 11
        assert pkg.ps0 == naive_mod_exp(15, pow(11, -1, 120), 143)

    def test_toy_world_runs_out_of_h0_and_says_so(self, toy):
        # the 31 units in [3, 120) less h0 = 61, whose ps0 is g
        structure = accessstruct.validate_minimal([["A"]])
        rng = random.Random(1)
        for _ in range(29):
            dealer.share_secret(toy.state, toy.board, 5, structure, rng)
        assert len({pkg.h0 for pkg in toy.board.packages.values()}) == 30
        with pytest.raises(BadParameter, match="every h0 below phi"):
            dealer.share_secret(toy.state, toy.board, 5, structure, rng)
        assert len(toy.board.packages) == 30

    def test_toy_world_runs_out_of_d_and_says_so(self, toy):
        # 147 sets fit in [2, 148] and take every d; 148 are refused before a
        # d is drawn, where a draw loop would never end (the limited draws
        # make it fail fast)
        toy.roster.update(TEN_ROSTER)
        structure = accessstruct.validate_minimal(FIVE_SETS[:148])
        with pytest.raises(BadParameter, match=r"147 d left in \[2, m - 1\], 148 needed"):
            dealer.share_secret(toy.state, toy.board, 5, structure, LimitedRandom(1, draws=1000))
        assert list(toy.board.packages) == list(toy.state.secrets) == ["s1"]
        structure = accessstruct.validate_minimal(FIVE_SETS[:147])
        pkg = dealer.share_secret(toy.state, toy.board, 5, structure, random.Random(1))
        assert sorted(e.d for e in pkg.entries) == list(range(2, 149))

    def test_renew_never_keeps_its_h0(self, toy):
        # a renew under the old h0 would keep s0 and every mask
        rng = ScriptedRandom([103, 41, 5, 9])
        pkg = dealer.renew_secret(toy.state, toy.board, "s1", 100, rng)
        assert rng.values == []
        assert pkg.h0 == 41

    def test_secret_at_modulus_rejected(self, toy):
        structure = accessstruct.validate_minimal([["A"]])
        with pytest.raises(SecretTooLarge):
            dealer.share_secret(toy.state, toy.board, 149, structure, random.Random(1))
        # boundary: m - 1 is fine
        pkg = dealer.share_secret(toy.state, toy.board, 148, structure, random.Random(1))
        assert pkg.secret_id == "s2"

    def test_verification_identity_for_all_members(self):
        params, state = dealer.setup(16, random.Random(10))
        rng = random.Random(11)
        keys = {pid: participant.keygen(params, pid, rng) for pid in ("A", "B", "C")}
        roster = {pid: k.ps for pid, k in keys.items()}
        board = bulletin.Board(params, roster)
        structure = accessstruct.validate_minimal([["A", "B"], ["B", "C"], ["A", "C"]])
        pkg = dealer.share_secret(state, board, 1234 % params.m, structure, rng)
        s0 = pow(pkg.h0, -1, state.phi)
        for ps in roster.values():
            lifted = pow(ps, s0, params.n)
            assert pow(lifted, pkg.h0, params.n) == ps

    def test_one_mask_per_member(self, monkeypatch):
        params, state = dealer.setup(16, random.Random(10))
        rng = random.Random(11)
        keys = {pid: participant.keygen(params, pid, rng) for pid in ("A", "B", "C")}
        roster = {pid: k.ps for pid, k in keys.items()}
        board = bulletin.Board(params, roster)
        structure = accessstruct.validate_minimal([["A", "B"], ["B", "C"], ["A", "C"]])
        bases = []
        pow_n = dealer._pow_n

        def counting_pow_n(state, base, exp):
            bases.append(base)
            return pow_n(state, base, exp)

        monkeypatch.setattr(dealer, "_pow_n", counting_pow_n)
        pkg = dealer.share_secret(state, board, 99, structure, rng)
        # ps0 = g**s0, then one mask per member although each is in two sets
        assert sorted(bases) == sorted([params.g, *roster.values()])
        s0 = pow(pkg.h0, -1, state.phi)
        for j, e in enumerate(pkg.entries, 1):
            masks = [pow(roster[pid], s0, params.n) for pid in e.members]
            assert combiner.unmask(params, pkg, j, masks) == 99

    def test_d_values_distinct_and_not_one(self):
        params, state = dealer.setup(16, random.Random(3))
        rng = random.Random(4)
        keys = {pid: participant.keygen(params, pid, rng) for pid in "ABCDE"}
        roster = {pid: k.ps for pid, k in keys.items()}
        board = bulletin.Board(params, roster)
        structure = accessstruct.validate_minimal([["A"], ["B"], ["C"], ["D"], ["E"]])
        pkg = dealer.share_secret(state, board, 7, structure, rng)
        ds = [e.d for e in pkg.entries]
        assert len(set(ds)) == len(ds) == 5
        assert all(2 <= d < params.m for d in ds)


class TestAddQualifiedSet:
    def test_worked_addition(self, toy):
        pkg = dealer.add_qualified_set(toy.state, toy.board, "s1", ["B"], ScriptedRandom([9]))
        # {B} makes {A, B} redundant, so the structure collapses to {{B}}
        assert [sorted(e.members) for e in pkg.entries] == [["B"]]
        entry = pkg.entry(1)
        assert entry.d == 9
        expected = ((100 + 5 * 9) % 149) ^ naive_mod_exp(115, 7, 143)
        assert expected == 193
        assert entry.masked == expected
        c = participant.contribute(toy.params, toy.key_b, pkg, 1)
        recovered = combiner.reconstruct(toy.params, pkg, 1, [c], toy.roster)
        assert recovered == 100
        assert combiner.verify_secret(pkg, 1, recovered, toy.params.width)

class TestToySizeCoincidences:
    """Known properties of the toy group (g = 15 of order 60 mod 143, one-byte
    masks), pinned so that they show: a stale contribution may still pass
    or open a renewed package. At real sizes, ord(g) has only huge prime
    factors besides small ones shared by chance, and masks are as wide as m."""

    def _renew(self, toy, script):
        stale = [
            participant.contribute(toy.params, key, toy.package, 1)
            for key in (toy.key_a, toy.key_b)
        ]
        pkg = dealer.renew_secret(toy.state, toy.board, "s1", toy.secret, ScriptedRandom(script))
        return stale, pkg

    def test_stale_contribution_passes_when_its_order_divides_out(self, toy):
        # A's stale x = g^(7*5) has order 12, since s_A = 5 divides ord(g) = 60,
        # and with h0 = 19 (s0 = 19), x^19 = g^(5*133) = g^5 as 133 = 1 mod 12
        stale, pkg = self._renew(toy, [19, 5, 9])
        assert pow(19, -1, toy.state.phi) == 19 and 7 * 19 % 12 == 1
        verdicts = combiner.check_contributions(toy.params, pkg, 1, stale, toy.roster)
        assert verdicts == [True, False]

    def test_stale_values_can_xor_to_the_fresh_masks(self, toy):
        # h0 = 113 gives s0 = 17: fresh masks 67 and 124, stale values 111
        # and 80, and 67 ^ 124 = 111 ^ 80 = 63 in the one-byte width
        stale, pkg = self._renew(toy, [113, 5, 9])
        masks = [naive_mod_exp(toy.roster[pid], 17, 143) for pid in "AB"]
        assert masks == [67, 124] and [c.x for c in stale] == [111, 80]
        assert combiner.check_contributions(toy.params, pkg, 1, stale, toy.roster) == [
            False,
            False,
        ]
        assert attack_entry(toy.params, pkg, 1, [c.x for c in stale]) == (True, 100)


def test_toy_world_fixture_is_fresh_each_time():
    a = make_toy_world()
    b = make_toy_world()
    assert a.package == b.package  # fully scripted, so fully reproducible
