import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss.errors import BadParameter
from msss.numtheory import (
    TRIAL_LIMIT,
    _proved_prime,
    gen_prime,
    pocklington_step,
    proved_prime_above,
    proves_prime,
)

from oracles import miller_rabin, naive_mod_exp, scan_inverse, trial_division_factor
from scripted import ScriptedRandom


class TestModExp:
    """The built-in pow the protocol computes with, against the oracle."""

    def test_worked_values(self):
        assert pow(15, 7, 143) == naive_mod_exp(15, 7, 143) == 115
        assert pow(15, 49, 143) == naive_mod_exp(15, 49, 143) == 80

    @given(
        base=st.integers(min_value=0, max_value=2**16),
        exp=st.integers(min_value=0, max_value=2**16),
        modulus=st.integers(min_value=2, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_repeated_multiplication(self, base, exp, modulus):
        assert pow(base, exp, modulus) == naive_mod_exp(base, exp, modulus)


class TestModInv:
    """The built-in inverse pow(a, -1, m) the dealer and the combiner invert
    with, against the oracle."""

    def test_worked_value(self):
        inv = pow(7, -1, 120)
        assert inv == 103
        assert 7 * inv % 120 == 1
        assert inv == scan_inverse(7, 120)

    def test_identity(self):
        assert pow(1, -1, 120) == 1
        assert pow(1, -1, 2) == 1

    def test_not_invertible(self):
        # load_dealer refuses an h0 that is not a unit mod phi(n) for this
        with pytest.raises(ValueError):
            pow(6, -1, 120)
        with pytest.raises(ValueError):
            pow(0, -1, 97)

    @given(a=st.integers(min_value=1, max_value=10**9), m=st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_inverse_multiplies_to_one(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(ValueError):
                pow(a, -1, m)
        else:
            inv = pow(a, -1, m)
            assert 1 <= inv < m
            assert a * inv % m == 1


class TestGenPrime:
    def test_eight_bit(self):
        p = gen_prime(8, random.Random(7))
        assert 128 <= p <= 255
        assert trial_division_factor(p, 256) is None

    def test_four_bit_hits_the_only_candidates(self):
        seen = {gen_prime(4, random.Random(seed)) for seed in range(30)}
        assert seen <= {11, 13}
        assert seen  # at least one draw

    def test_one_bit_is_refused(self):
        with pytest.raises(BadParameter, match=r"^bits must be >= 2, got 1$"):
            gen_prime(1, random.Random(1))

    def test_deterministic_under_seed(self):
        a = gen_prime(16, random.Random(1234))
        b = gen_prime(16, random.Random(1234))
        assert a == b
        assert a.bit_length() == 16

    def test_survives_trial_division(self):
        rng = random.Random(99)
        for _ in range(5):
            p = gen_prime(48, rng)
            assert p.bit_length() == 48
            for small in range(2, 1000):
                assert p % small != 0

    def test_every_width_across_the_start_of_the_chain(self):
        # up to 19 bits a prime is drawn whole; from 20 bits on it is 2*k*r + 1
        for bits in range(2, 65):
            chain = _proved_prime(bits, random.Random(bits))
            assert chain[0] == gen_prime(bits, random.Random(bits))
            assert chain[0].bit_length() == bits
            assert miller_rabin(chain[0], random.Random(bits))
            assert proves_prime(chain[0], chain[1:])
            if bits >= 20:
                # p - 1 = 2*k*r with r prime and about half as wide: no smooth p - 1
                assert chain[1].bit_length() == bits // 2 + 2
            else:
                assert chain[1:] == ()

    @given(bits=st.integers(min_value=20, max_value=512), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_40_round_reference(self, bits, seed):
        rng = random.Random(seed)
        p = gen_prime(bits, rng)
        assert p.bit_length() == bits
        assert miller_rabin(p, rng)


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    found, k = [], 2
    while k * k <= n:
        if n % k == 0:
            found.append(k)
            while n % k == 0:
                n //= k
        k += 1
    return found + [n] if n > 1 else found


class TestPocklingtonStep:
    def test_no_composite_below_20000_passes_and_every_prime_can(self):
        accepted = 0
        for n in range(3, 20000, 2):
            # a composite n has a proper divisor up to its square root
            prime = trial_division_factor(n, math.isqrt(n) + 1) is None
            rs = [r for r in _prime_factors(n - 1) if r * r >= n]
            for r in rs:
                if pocklington_step(n, r):
                    accepted += 1
                    assert prime, (n, r)
            # the largest r the step's shape rules allow proves every prime it can
            shaped = [r for r in rs if r.bit_length() <= n.bit_length() // 2 + 2]
            if prime and shaped and pow(2, (n - 1) // max(shaped), n) != 1:
                assert pocklington_step(n, max(shaped)), n
        assert accepted > 500

    def test_each_shape_rule(self):
        # 1019 = 2 * 509 + 1, and 509 is prime, but 509 has 9 bits, over 10 // 2 + 2
        assert not pocklington_step(1019, 509)
        # 1021 - 1 = 2**2 * 3 * 5 * 17: 17 * 17 < 1021
        assert not pocklington_step(1021, 17)
        # 37 * 37 >= 149 and 37 divides 148, but not 150 or 146
        assert pocklington_step(149, 37)
        assert not pocklington_step(151, 37)
        assert not pocklington_step(148, 37)
        assert not pocklington_step(149, 0)
        assert not pocklington_step(149, 1)


class TestProvedPrime:
    def test_small_n_gives_the_next_prime_with_no_chain_or_draw(self):
        assert proved_prime_above(143, ScriptedRandom([])) == (149, ())
        assert proved_prime_above(1, ScriptedRandom([])) == (2, ())
        assert proves_prime(149, ())
        assert not proves_prime(143, ())

    def test_empty_chain_only_below_the_trial_limit(self):
        assert not proves_prime(2**61 - 1, ())
        assert not proves_prime(TRIAL_LIMIT, ())

    def test_chain_above_the_trial_limit(self):
        m, chain = proved_prime_above(TRIAL_LIMIT, random.Random(3))
        assert m > TRIAL_LIMIT and chain
        assert proves_prime(m, chain)
        assert not proves_prime(m + 2, chain)
        assert not proves_prime(m, chain[:-1])

    @given(bits=st.integers(min_value=2, max_value=300), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_chain_is_short_and_every_link_is_prime(self, bits, seed):
        rng = random.Random(seed)
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        m, chain = proved_prime_above(n, rng)
        assert m > n
        assert m.bit_length() <= n.bit_length() + 1
        assert proves_prime(m, chain)
        assert len(chain) <= max(0, n.bit_length().bit_length() - 3)
        assert all(miller_rabin(link, rng) for link in (m, *chain))
