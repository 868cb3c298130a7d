"""Number theory on plain Python integers: proved primes. Modular
exponentiation is ``modexp.powmod`` (OpenSSL's ``BN_mod_exp`` where the
interpreter's libcrypto can be reached, else the built-in ``pow``), a
modular inverse is ``pow(a, -1, m)`` and the gcd is ``math.gcd``.

Every prime the system uses, the dealer's secret p and q and the public
field prime m, comes with a proof: a chain of primes N0 > N1 > ... > Nk in
which each link proves the one above it prime by Pocklington's criterion
(Brillhart, Lehmer & Selfridge 1975) and the tail Nk is below TRIAL_LIMIT,
where trial division decides. ``_proved_prime`` grows such a chain upward,
each link about twice as wide as the one below, as in Maurer's method
(Maurer 1995, "Fast generation of prime numbers and secure public-key
cryptographic parameters") and Shawe-Taylor's construction (FIPS 186-4,
Appendix B.3.2). ``gen_prime`` keeps the head and its top link, the
largest prime factor of p - 1; ``proved_prime_above`` keeps the chain,
which the board carries for m, and ``proves_prime`` checks one
deterministically, with about one pow at the size of m and no random draw.
Every prime N above the tail has N - 1 = 2*k*r with r a prime of about half
its width, so Pollard's p - 1 method does not apply to p or q.

m is public and needs no secret randomness: above TRIAL_LIMIT it is a
constant of the width, grown once per process from a fixed seed
(``_field_prime``), as published protocols fix one group per size (RFC
7919). Randomized routines take an optional ``rng`` (any
``random.Random``-alike); the default is a cryptographically secure source.
Passing a seeded ``random.Random`` makes them fully deterministic.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Sequence

from .errors import BadParameter
from .modexp import powmod

_default_rng = random.SystemRandom()


def _sieve(bound: int) -> tuple[int, ...]:
    flags = bytearray(b"\x01") * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return tuple(i for i, f in enumerate(flags) if f)


SMALL_PRIMES = _sieve(1000)
# trial division by SMALL_PRIMES decides the primality of every n below this
TRIAL_LIMIT = SMALL_PRIMES[-1] ** 2
# every number of at most this many bits is below TRIAL_LIMIT
_TAIL_BITS = TRIAL_LIMIT.bit_length() - 1


def ceil_sqrt(n: int) -> int:
    """Smallest integer >= sqrt(n)."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _trial_division(n: int) -> bool | None:
    """Primality of n >= 2 by the primes below 1000: exact below TRIAL_LIMIT,
    None for a larger n that none of them divides."""
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return True if n < TRIAL_LIMIT else None


def pocklington_step(n: int, r: int) -> bool:
    """One link of a prime chain: if r is prime, does it prove n prime?

    n must be odd, r must divide n - 1 with r*r >= n and have at most
    n.bit_length() // 2 + 2 bits, and b = 2**((n-1)/r) mod n must have
    b**r = 1 and gcd(b - 1, n) = 1. Then every prime factor of n is 1 mod r
    (Pocklington), so above r >= sqrt(n), and n is prime. The bit bound
    halves the width at each link, so a chain is logarithmically long.
    """
    if not (
        1 < r
        and r * r >= n
        and n % 2
        and (n - 1) % r == 0
        and r.bit_length() <= n.bit_length() // 2 + 2
    ):
        return False
    b = powmod(2, (n - 1) // r, n)
    return powmod(b, r, n) == 1 and math.gcd(b - 1, n) == 1


def proves_prime(m: int, chain: Sequence[int]) -> bool:
    """Does ``chain`` = (N1, ..., Nk), largest first, prove m prime?

    Each link N of m, N1, ... passes ``pocklington_step`` with the next one,
    and the last, Nk (or m itself for an empty chain), is below TRIAL_LIMIT
    and prime by trial division. Deterministic: no random draw.
    """
    links = (m, *chain)
    tail = links[-1]
    return (
        2 <= tail < TRIAL_LIMIT
        and _trial_division(tail)
        and all(pocklington_step(n, r) for n, r in zip(links, links[1:]))
    )


def _proved_prime(bits: int, rng: random.Random) -> tuple[int, ...]:
    """A prime N0 of exactly ``bits`` >= 2 bits (top bit set) and its chain:
    (N0, N1, ..., Nk), with ``proves_prime(N0, (N1, ..., Nk))``.

    Up to _TAIL_BITS bits, N0 is the first odd draw of that width that
    trial division passes, and the chain is empty. Above, the chain for
    bits // 2 + 2 bits comes first, then N0 = 2*k*N1 + 1 with k drawn until
    N0 passes the step over N1.
    """
    if bits <= _TAIL_BITS:
        while True:
            candidate = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
            if _trial_division(candidate):
                return (candidate,)
    chain = _proved_prime(bits // 2 + 2, rng)
    r = chain[0]
    # every N = 2*k*r + 1 with k in [lo, hi] has exactly ``bits`` bits
    lo, hi = (1 << (bits - 2)) // r + 1, ((1 << (bits - 1)) - 1) // r
    while True:
        n = 2 * rng.randrange(lo, hi + 1) * r + 1
        if _passes_step(n, r):
            return (n, *chain)


def gen_prime(bits: int, rng: random.Random | None = None) -> tuple[int, int]:
    """A proved prime p of exactly ``bits`` bits (top bit set) and r, the
    largest prime factor of p - 1.

    Above _TAIL_BITS, r is the top link of p's chain: p = 2*k*r + 1 with
    2*k < r. Up to it, r comes from factoring p - 1 by trial division.
    """
    if bits < 2:
        raise BadParameter(f"bits must be >= 2, got {bits}")
    chain = _proved_prime(bits, rng or _default_rng)
    if len(chain) > 1:
        return chain[0], chain[1]
    rest, largest = chain[0] - 1, 1
    for r in SMALL_PRIMES:  # p - 1 < TRIAL_LIMIT: its cofactor past sqrt is prime
        if r * r > rest:
            break
        while rest % r == 0:
            rest //= r
            largest = r
    return chain[0], max(largest, rest)


def proved_prime_above(n: int, bits: int) -> tuple[int, tuple[int, ...]]:
    """A public prime m > n and the chain (N1, ..., Nk) that proves it, for
    ``proves_prime``; n must be below 2**bits. No random draw.

    Below TRIAL_LIMIT, m is the smallest prime above n, with an empty chain.
    Above it, m depends on ``bits`` alone (``_field_prime``), so every n of
    a width shares one m, computed once per process.
    """
    if n >= 1 << bits:
        raise BadParameter(f"n must be below 2**{bits}, got {n.bit_length()} bits")
    for m in range(max(n + 1, 2), TRIAL_LIMIT):
        if _trial_division(m):
            return m, ()
    return _field_prime(bits)


@functools.lru_cache(maxsize=16)
def _field_prime(bits: int) -> tuple[int, tuple[int, ...]]:
    """The smallest m = 2*k*N1 + 1 above 2**bits that passes the step over
    N1, and its chain, where N1 and its chain come from ``_proved_prime`` at
    bits // 2 + 2 bits, drawn from the fixed seed "msss m <bits>". So m has
    exactly bits + 1 bits."""
    chain = _proved_prime(bits // 2 + 2, random.Random(f"msss m {bits}"))
    step, n = 2 * chain[0], 1 << bits
    m = n + step - (n - 1) % step  # the smallest 2*k*N1 + 1 above n
    while not _passes_step(m, chain[0]):
        m += step
    return m, chain


def _passes_step(n: int, r: int) -> bool:
    """``pocklington_step(n, r)`` behind the cheaper filters of a candidate
    search: trial division, then a base-2 Fermat test. The full-width
    pow(2, n - 1, n) rejects a composite faster than the step's two pows,
    pow(2, (n-1)/r, n) and its r-th power, and a prime passes it anyway."""
    return _trial_division(n) is not False and powmod(2, n - 1, n) == 1 and pocklington_step(n, r)
