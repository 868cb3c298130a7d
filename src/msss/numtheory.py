"""Number theory on plain Python integers: probable primes and modular
inverses. Modular exponentiation is the built-in three-argument ``pow``
and the gcd is ``math.gcd``.

Randomized routines take an optional ``rng`` (any ``random.Random``-alike);
the default is a cryptographically secure source. Passing a seeded
``random.Random`` makes them fully deterministic, Miller-Rabin bases
included.
"""

from __future__ import annotations

import math
import random

from .errors import NotInvertible

# A composite survives 40 Miller-Rabin rounds with probability < 4**-40 = 2**-80.
MR_ROUNDS = 40

_default_rng = random.SystemRandom()


def _sieve(bound: int) -> tuple[int, ...]:
    flags = bytearray(b"\x01") * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return tuple(i for i, f in enumerate(flags) if f)


SMALL_PRIMES = _sieve(1000)


def ceil_sqrt(n: int) -> int:
    """Smallest integer >= sqrt(n)."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a modulo modulus, in [1, modulus - 1].

    Raises NotInvertible when gcd(a, modulus) != 1.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        gcd = math.gcd(a, modulus)
        raise NotInvertible(f"{a} has no inverse modulo {modulus} (gcd is {gcd})") from None


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Trial division by the primes below 1000, then MR_ROUNDS rounds of
    Miller-Rabin."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < SMALL_PRIMES[-1] ** 2:
        return True  # trial division above was exhaustive
    rng = rng or _default_rng
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_prime(bits: int, rng: random.Random | None = None) -> int:
    """A probable prime of exactly ``bits`` bits (top bit set)."""
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    rng = rng or _default_rng
    while True:
        candidate = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def next_prime(n: int, rng: random.Random | None = None) -> int:
    """Smallest probable prime strictly greater than n."""
    if n < 2:
        return 2
    candidate = n + 1
    if candidate % 2 == 0:
        candidate += 1  # even values above 2 cannot be prime
    while not is_probable_prime(candidate, rng):
        candidate += 2
    return candidate
