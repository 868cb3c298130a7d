import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msss.errors import NotInvertible
from msss.numtheory import (
    _strong_lucas,
    _strong_mr,
    gen_prime,
    is_probable_prime,
    mod_inv,
    next_prime,
)

from oracles import miller_rabin, naive_mod_exp, scan_inverse, trial_division_factor


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
    def test_worked_value(self):
        inv = mod_inv(7, 120)
        assert inv == 103
        assert 7 * inv % 120 == 1
        assert inv == scan_inverse(7, 120)

    def test_identity(self):
        assert mod_inv(1, 120) == 1
        assert mod_inv(1, 2) == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inv(6, 120)
        with pytest.raises(NotInvertible):
            mod_inv(0, 97)

    @given(a=st.integers(min_value=1, max_value=10**9), m=st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_inverse_multiplies_to_one(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(NotInvertible):
                mod_inv(a, m)
        else:
            inv = mod_inv(a, m)
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


class TestPrimalityHelpers:
    def test_known_values(self):
        assert is_probable_prime(149)
        assert not is_probable_prime(143)
        assert is_probable_prime(2)
        assert not is_probable_prime(1)
        # a 61-bit Mersenne prime, beyond the trial-division range
        assert is_probable_prime(2**61 - 1)
        assert not is_probable_prime((2**31 - 1) * (2**61 - 1))

    def test_next_prime(self):
        assert next_prime(143) == 149
        assert next_prime(2) == 3
        assert next_prime(13) == 17
        assert next_prime(1) == 2


class TestBailliePSW:
    """Each half of Baillie-PSW rejects the pseudoprimes of the other."""

    @pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 15841])  # OEIS A001262
    def test_lucas_rejects_strong_base_2_pseudoprimes(self, n):
        assert _strong_mr(n, 2)
        assert not _strong_lucas(n)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971])  # OEIS A217255
    def test_base_2_rejects_strong_lucas_pseudoprimes(self, n):
        assert _strong_lucas(n)
        assert not _strong_mr(n, 2)

    @pytest.mark.parametrize(
        "n",
        [
            1093**2,  # Wieferich squares: Lucas rejects them by its square guard
            3511**2,
            3825123056546413051,
            318665857834031151167461,
        ],
    )
    def test_composites_past_trial_division_and_base_2(self, n):
        assert trial_division_factor(n, 1000) is None
        assert _strong_mr(n, 2)
        assert not is_probable_prime(n, random.Random(0))

    def test_lucas_rejects_a_square_before_the_search(self):
        # (D/n) is never -1 on a square, and the first D with (D/n) = 0 has |D| = 2**61 - 1
        assert not _strong_lucas((2**61 - 1) ** 2)

    @given(
        bits=st.integers(min_value=20, max_value=512),
        kind=st.sampled_from(["odd", "prime", "two-primes"]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_40_round_reference(self, bits, kind, seed):
        rng = random.Random(seed)

        def reference_prime(k):
            n = rng.getrandbits(k) | (1 << (k - 1)) | 1
            # the gcd skips most composites before a pow: 223092870 = 2*3*...*23
            while math.gcd(n, 223092870) != 1 or not miller_rabin(n, rng):
                n += 2
            return n

        if kind == "odd":
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        elif kind == "prime":
            n = reference_prime(bits)
        else:
            n = reference_prime(bits // 2) * reference_prime(bits - bits // 2)
        assert is_probable_prime(n, rng) == miller_rabin(n, rng)
