import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss.errors import BadParameter
from msss.numtheory import (
    TRIAL_LIMIT,
    _field_prime,
    _proved_prime,
    gen_prime,
    pocklington_step,
    proved_prime_above,
    proves_prime,
)

from oracles import miller_rabin, prime_factors, trial_division_factor


class TestGenPrime:
    def test_eight_bit(self):
        p, _ = gen_prime(8, random.Random(7))
        assert 128 <= p <= 255
        assert trial_division_factor(p, 256) is None

    def test_four_bit_hits_the_only_candidates(self):
        seen = {gen_prime(4, random.Random(seed)) for seed in range(30)}
        assert seen <= {(11, 5), (13, 3)}
        assert seen  # at least one draw

    def test_one_bit_is_refused(self):
        with pytest.raises(BadParameter, match=r"^bits must be >= 2, got 1$"):
            gen_prime(1, random.Random(1))

    def test_deterministic_under_seed(self):
        a = gen_prime(16, random.Random(1234))
        b = gen_prime(16, random.Random(1234))
        assert a == b
        assert a[0].bit_length() == 16

    def test_survives_trial_division(self):
        rng = random.Random(99)
        for _ in range(5):
            p, _ = gen_prime(48, rng)
            assert p.bit_length() == 48
            for small in range(2, 1000):
                assert p % small != 0

    def test_every_width_across_the_start_of_the_chain(self):
        # up to 19 bits a prime is drawn whole; from 20 bits on it is 2*k*r + 1
        for bits in range(2, 65):
            chain = _proved_prime(bits, random.Random(bits))
            p, r = gen_prime(bits, random.Random(bits))
            assert chain[0] == p
            # r is the largest prime factor of p - 1: the top link, or found by trial division
            assert (p - 1) % r == 0 and miller_rabin(r, random.Random(bits))
            assert all(f <= r for f in prime_factors((p - 1) // r))
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
        p, r = gen_prime(bits, rng)
        assert p.bit_length() == bits
        assert miller_rabin(p, rng)
        assert miller_rabin(r, rng) and (p - 1) % r == 0


class TestPocklingtonStep:
    def test_no_composite_below_20000_passes_and_every_prime_can(self):
        accepted = 0
        for n in range(3, 20000, 2):
            # a composite n has a proper divisor up to its square root
            prime = trial_division_factor(n, math.isqrt(n) + 1) is None
            rs = [r for r in prime_factors(n - 1) if r * r >= n]
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
        assert proved_prime_above(143, 8) == (149, ())
        assert proved_prime_above(1, 1) == (2, ())
        assert proves_prime(149, ())
        assert not proves_prime(143, ())

    def test_empty_chain_only_below_the_trial_limit(self):
        assert not proves_prime(2**61 - 1, ())
        assert not proves_prime(TRIAL_LIMIT, ())

    def test_chain_above_the_trial_limit(self):
        m, chain = proved_prime_above(TRIAL_LIMIT, 20)
        assert m > TRIAL_LIMIT and chain
        assert proves_prime(m, chain)
        assert not proves_prime(m + 2, chain)
        assert not proves_prime(m, chain[:-1])

    def test_n_must_be_below_two_to_the_bits(self):
        with pytest.raises(BadParameter, match=r"^n must be below 2\*\*8, got 9 bits$"):
            proved_prime_above(256, 8)
        assert proved_prime_above(255, 8) == (257, ())

    @given(bits=st.integers(min_value=2, max_value=300), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_chain_is_short_and_every_link_is_prime(self, bits, seed):
        rng = random.Random(seed)
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        m, chain = proved_prime_above(n, bits)
        assert m > n
        if chain:  # past trial division m is the width's constant, just above 2**bits
            assert m.bit_length() == bits + 1
        else:
            assert m.bit_length() <= bits + 1
        assert proves_prime(m, chain)
        assert len(chain) <= max(0, n.bit_length().bit_length() - 3)
        assert all(miller_rabin(link, rng) for link in (m, *chain))

    @pytest.mark.parametrize("bits", [20, 24, 33])
    def test_above_the_trial_limit_m_depends_on_the_width_alone(self, bits):
        # every n of the width gets one m: the least 2*k*N1 + 1 above 2**bits
        # that passes the step, over N1 grown from the seed "msss m <bits>"
        ns = {TRIAL_LIMIT, max(TRIAL_LIMIT, 1 << (bits - 1)) + 12345, (1 << bits) - 1}
        found = {proved_prime_above(n, bits) for n in ns}
        assert len(found) == 1
        m, chain = found.pop()
        assert chain == _proved_prime(bits // 2 + 2, random.Random(f"msss m {bits}"))
        step = 2 * chain[0]
        assert (m - 1) % step == 0
        assert not any(pocklington_step(k, chain[0]) for k in range(m - step, 1 << bits, -step))
        assert _field_prime(bits) == (m, chain)
