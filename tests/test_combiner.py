import math
import random

import pytest

from msss import accessstruct, bulletin, codec, combiner, dealer, participant
from msss.errors import (
    BadContribution,
    ExtraContribution,
    MissingContribution,
    UnmaskOutOfField,
)
from msss.simulate import attack_entry

from oracles import naive_mod_exp
from scripted import ScriptedRandom


def _toy_contributions(toy):
    return [
        participant.contribute(toy.params, toy.key_a, toy.package, 1),
        participant.contribute(toy.params, toy.key_b, toy.package, 1),
    ]


class TestVerifyContribution:
    def test_honest_value(self, toy):
        c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        assert naive_mod_exp(c.x, toy.package.h0, 143) == 45
        assert combiner.verify_contribution(toy.params, toy.package, toy.key_a.ps, c)

    def test_tampered_value(self, toy):
        c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        forged = c._replace(x=112)
        assert naive_mod_exp(112, 103, 143) == 96  # not 45
        assert not combiner.verify_contribution(toy.params, toy.package, toy.key_a.ps, forged)

    def test_wrong_binding(self, toy):
        c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        # honest value presented as B's
        assert not combiner.verify_contribution(toy.params, toy.package, toy.key_b.ps, c)

    def test_unreduced_value_rejected(self, toy):
        c = participant.contribute(toy.params, toy.key_a, toy.package, 1)
        # congruent mod n but not the canonical value: a forgery, and it must
        # not sneak past the exponent check into the fixed-width unmasking
        lifted = c._replace(x=c.x + toy.params.n)
        assert not combiner.verify_contribution(toy.params, toy.package, toy.key_a.ps, lifted)
        c_b = participant.contribute(toy.params, toy.key_b, toy.package, 1)
        with pytest.raises(BadContribution) as info:
            combiner.reconstruct(toy.params, toy.package, 1, [lifted, c_b], toy.roster)
        assert info.value.pids == ["A"]


class TestReconstruct:
    def test_worked_pipeline(self, toy):
        got = combiner.reconstruct(toy.params, toy.package, 1, _toy_contributions(toy), toy.roster)
        assert got == 100

    def test_missing_contribution(self, toy):
        only_a = [participant.contribute(toy.params, toy.key_a, toy.package, 1)]
        with pytest.raises(MissingContribution) as info:
            combiner.reconstruct(toy.params, toy.package, 1, only_a, toy.roster)
        assert "B" in str(info.value)

    def test_flipped_bit_names_the_cheater(self, toy):
        c_a, c_b = _toy_contributions(toy)
        forged = c_a._replace(x=c_a.x ^ 1)
        with pytest.raises(BadContribution) as info:
            combiner.reconstruct(toy.params, toy.package, 1, [forged, c_b], toy.roster)
        assert info.value.pids == ["A"]

    def test_cheating_unit_named_deterministically(self, toy):
        c_a, c_b = _toy_contributions(toy)
        rng = random.Random(17)
        for _ in range(50):
            x = rng.randrange(1, toy.params.n)
            if x == c_b.x or math.gcd(x, toy.params.n) != 1:
                continue
            forged = c_b._replace(x=x)
            with pytest.raises(BadContribution) as info:
                combiner.reconstruct(toy.params, toy.package, 1, [c_a, forged], toy.roster)
            assert info.value.pids == ["B"]

    def test_every_cheater_named_in_sorted_order(self, toy):
        c_a, c_b = _toy_contributions(toy)
        forged = [c_b._replace(x=c_b.x ^ 1), c_a._replace(x=c_a.x ^ 1)]
        with pytest.raises(BadContribution) as info:
            combiner.reconstruct(toy.params, toy.package, 1, forged, toy.roster)
        assert info.value.pids == ["A", "B"]

    def test_duplicate_contribution(self, toy):
        c_a, _ = _toy_contributions(toy)
        with pytest.raises(ExtraContribution):
            combiner.reconstruct(toy.params, toy.package, 1, [c_a, c_a], toy.roster)

    def test_outsider_contribution(self, toy):
        c_a, c_b = _toy_contributions(toy)
        outsider = bulletin.Contribution(pid="C", secret_id="s1", set_index=1, x=5)
        with pytest.raises(ExtraContribution):
            combiner.reconstruct(toy.params, toy.package, 1, [c_a, c_b, outsider], toy.roster)

    def test_contribution_bound_to_other_session(self, toy):
        c_a, c_b = _toy_contributions(toy)
        rebound = c_a._replace(secret_id="s9")
        with pytest.raises(BadContribution) as info:
            combiner.reconstruct(toy.params, toy.package, 1, [rebound, c_b], toy.roster)
        assert info.value.pids == ["A"]

    def test_unmask_out_of_field(self, toy):
        # flip a masked bit so the unmasked value lands at 151 >= m = 149
        entry = toy.package.entry(1)
        corrupt = entry._replace(masked=entry.masked ^ 16)
        pkg = toy.package._replace(entries=(corrupt,))
        with pytest.raises(UnmaskOutOfField):
            combiner.reconstruct(toy.params, pkg, 1, _toy_contributions(toy), toy.roster)


class TestVerifySecret:
    def test_true_secret(self, toy):
        assert combiner.verify_secret(toy.package, 1, 100, toy.params.width)

    def test_wrong_secret(self, toy):
        assert not combiner.verify_secret(toy.package, 1, 101, toy.params.width)

    def test_out_of_range_values(self, toy):
        assert not combiner.verify_secret(toy.package, 1, -1, toy.params.width)
        assert not combiner.verify_secret(toy.package, 1, 256, toy.params.width)

    def test_wrong_set_index(self, toy):
        pkg = dealer.add_qualified_set(toy.state, toy.board, "s1", ["B"], ScriptedRandom([9]))
        pkg = dealer.add_qualified_set(toy.state, toy.board, "s1", ["A"], ScriptedRandom([11]))
        # both entries share the secret but have different d, so the tags differ
        assert combiner.verify_secret(pkg, 1, 100, toy.params.width)
        assert combiner.verify_secret(pkg, 2, 100, toy.params.width)
        assert pkg.entry(1).tag != pkg.entry(2).tag


class TestSoundness:
    def test_unverified_corruption_is_caught_by_the_tag(self, toy):
        """If verification were skipped, the tag still rejects the result."""
        c_a, c_b = _toy_contributions(toy)
        rng = random.Random(23)
        for _ in range(200):
            x = rng.randrange(1, toy.params.n)
            if x == c_a.x:
                continue
            accepted, value = attack_entry(toy.params, toy.package, 1, [x, c_b.x])
            assert not accepted
            if value is not None:
                assert value != 100

    def test_strict_subsets_rejected(self):
        rng = random.Random(55)
        params, state = dealer.setup(16, rng)
        keys = {pid: participant.keygen(params, pid, rng) for pid in ("A", "B", "C")}
        roster = {pid: k.ps for pid, k in keys.items()}
        board = bulletin.Board(params, roster)
        structure = accessstruct.validate_minimal([["A", "B", "C"]])
        pkg = dealer.share_secret(state, board, 4242 % params.m, structure, rng)
        for subset in (("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C")):
            xs = [pow(pkg.ps0, keys[pid].s, params.n) for pid in subset]
            accepted, _ = attack_entry(params, pkg, 1, xs)
            assert not accepted

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: every entry masks a member with the same x = ps0^s, so"
        " XORing two entries cancels the masks of the members they share",
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_coalition_cancels_masks_across_entries(self, seed):
        # under {A, B} and {A, C}, {B, C} covers no qualified set, yet
        # H1 ^ H2 ^ x_B ^ x_C = f(d1) ^ f(d2) with f(d) = f1 + a*(d - 1) mod m;
        # a search over the slope a, checked against the tag, must not find
        # the secret f1 - a
        rng = random.Random(seed)
        params, state = dealer.setup(8, rng)
        keys = {pid: participant.keygen(params, pid, rng) for pid in ("A", "B", "C")}
        roster = {pid: k.ps for pid, k in keys.items()}
        board = bulletin.Board(params, roster)
        structure = accessstruct.validate_minimal([["A", "B"], ["A", "C"]])
        secret = rng.randrange(params.m)
        pkg = dealer.share_secret(state, board, secret, structure, rng)
        m, f1 = params.m, pkg.f1
        (d1, h1, tag1), (d2, h2, _) = ((e.d, e.masked, e.tag) for e in pkg.entries)
        x_b, x_c = (pow(pkg.ps0, keys[pid].s, params.n) for pid in ("B", "C"))
        c = h1 ^ h2 ^ x_b ^ x_c
        found = [
            (f1 - a) % m
            for a in range(1, m)
            if (f1 + a * (d1 - 1)) % m ^ (f1 + a * (d2 - 1)) % m == c
            and codec.tag((f1 - a) % m, d1, params.width) == tag1
        ]
        assert secret not in found
