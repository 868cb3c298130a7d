import random

import pytest

from msss import accessstruct, dealer, participant
from msss.errors import IndexOutOfRange, NotAMember

from oracles import naive_mod_exp
from scripted import ScriptedRandom


class TestKeygen:
    def test_forced_values_match_brute_force(self, toy):
        assert toy.key_a.ps == naive_mod_exp(15, 5, 143) == 45
        assert toy.key_b.ps == naive_mod_exp(15, 7, 143) == 115

    def test_range_of_random_draws(self, toy):
        rng = random.Random(8)
        for _ in range(200):
            key = participant.keygen(toy.params, "X", rng)
            assert 2 <= key.s <= toy.params.n
            assert key.ps == pow(toy.params.g, key.s, toy.params.n)

    def test_draw_is_short_at_512_bit_primes(self):
        # n has 1023 or 1024 bits, so a draw on [2, n] would fall below
        # 2**256 with probability about 2**-767 per key
        rng = random.Random(6)
        params, _ = dealer.setup(512, rng)
        for i in range(50):
            key = participant.keygen(params, f"P{i}", rng)
            assert 2 <= key.s < 2**256
            assert key.ps == pow(params.g, key.s, params.n)

    def test_draw_below_256_bit_n_is_unchanged(self):
        # a 128-bit n: the draw is the one on [2, n], so small worlds keep their keys
        params, _ = dealer.setup(64, random.Random(64))
        rng = random.Random(6464)
        twin = random.Random()
        twin.setstate(rng.getstate())
        for pid in ("P", "Q", "R"):
            s = twin.randrange(2, params.n + 1)
            assert participant.keygen(params, pid, rng) == (pid, s, pow(params.g, s, params.n))

    def test_equal_shares_are_legitimate(self, toy):
        k1 = participant.keygen(toy.params, "P", ScriptedRandom([50]))
        k2 = participant.keygen(toy.params, "Q", ScriptedRandom([50]))
        assert k1.s == k2.s
        assert k1.ps == k2.ps


class TestContribute:
    def test_worked_values(self, toy):
        c_a = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        c_b = participant.contribute(toy.params, toy.key_b, toy.package, 1)
        assert c_a.x == naive_mod_exp(115, 5, 143) == 111
        assert c_b.x == naive_mod_exp(115, 7, 143) == 80

    def test_session_binding_metadata(self, toy):
        c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        assert c.pid == "A"
        assert c.secret_id == "s1"
        assert c.set_index == 1

    def test_not_a_member(self, toy):
        outsider = participant.keygen(toy.params, "C", ScriptedRandom([9]))
        with pytest.raises(NotAMember):
            participant.contribute(toy.params, outsider, toy.package, 1)

    def test_bad_set_index(self, toy):
        with pytest.raises(IndexOutOfRange):
            participant.contribute(toy.params, toy.key_a, toy.package, 2)

    def test_contribution_never_carries_s(self, toy):
        c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        fields = set(c._fields)
        assert fields == {"pid", "secret_id", "set_index", "x"}
        assert toy.key_a.s not in (c.x, c.set_index)

    def test_verification_identity(self, toy):
        for key in (toy.key_a, toy.key_b):
            c = participant.contribute(toy.params, key, toy.package, 1)
            assert pow(c.x, toy.package.h0, toy.params.n) == key.ps


def test_one_key_serves_many_secrets(toy):
    """The same key contributes to packages shared at different times."""
    rng = random.Random(31)
    structure = accessstruct.validate_minimal([["A", "B"]])
    packages = [toy.package]
    for value in (3, 77, 148):
        packages.append(
            dealer.share_secret(toy.state, toy.params, toy.roster, value, structure, rng)
        )
    for pkg in packages:
        for key in (toy.key_a, toy.key_b):
            c = participant.contribute(toy.params, key, pkg, 1)
            assert pow(c.x, pkg.h0, toy.params.n) == key.ps
