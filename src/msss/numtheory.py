"""Number theory on plain Python integers: probable primes and proved
primes. Modular exponentiation is ``modexp.powmod`` (OpenSSL's
``BN_mod_exp`` where the interpreter's libcrypto can be reached, else the
built-in ``pow``), a modular inverse is ``pow(a, -1, m)`` and the gcd is
``math.gcd``.

Probable primality is Baillie-PSW (a strong Miller-Rabin round to base 2
and a strong Lucas test) plus RANDOM_ROUNDS Miller-Rabin rounds with random
bases, after trial division by the primes below 1000; the dealer draws p
and q with it.

The field prime m comes with a proof instead: a chain of primes
m = N0 > N1 > ... > Nk in which each link proves the one above it prime by
Pocklington's criterion (Brillhart, Lehmer & Selfridge 1975) and the tail
Nk is below TRIAL_LIMIT, where trial division decides. ``proved_prime_above``
grows such a chain upward, as in Maurer's method (Maurer 1995), and
``proves_prime`` checks one deterministically, with about one pow at the
size of m and no random draw.

Randomized routines take an optional ``rng`` (any ``random.Random``-alike);
the default is a cryptographically secure source. Passing a seeded
``random.Random`` makes them fully deterministic, Miller-Rabin bases
included.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .modexp import powmod

# Random-base Miller-Rabin rounds after Baillie-PSW: a composite, even one
# chosen to fool Baillie-PSW, survives both with probability at most 4**-2.
RANDOM_ROUNDS = 2

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


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_mr(n: int, a: int) -> bool:
    """One strong Miller-Rabin round: is odd n > 3 a strong probable prime
    to base a, 2 <= a <= n - 2?"""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**r, d odd
    x = powmod(a, (n - 1) >> r, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 3 with Selfridge's
    parameters (method A): D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D) / 4."""
    if math.isqrt(n) ** 2 == n:
        return False  # (D/n) is never -1 for a square: the search would not end
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return n == abs(D)  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2**s, d odd
    d = (n + 1) >> s
    # U_k, V_k and Q**k mod n, from k = 1 up to k = d along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            # U_{k+1} = (U_k + V_k) / 2 and V_{k+1} = (D U_k + V_k) / 2, as P = 1
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U & 1 else U) >> 1
            V = (V + n if V & 1 else V) >> 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n  # V_{2k}
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def _trial_division(n: int) -> bool | None:
    """Primality of n >= 2 by the primes below 1000: exact below TRIAL_LIMIT,
    None for a larger n that none of them divides."""
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return True if n < TRIAL_LIMIT else None


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Trial division by the primes below 1000, then Baillie-PSW (a strong
    Miller-Rabin round to base 2 and a strong Lucas test), then
    RANDOM_ROUNDS Miller-Rabin rounds with bases drawn from ``rng``.

    No composite is known to pass Baillie-PSW, and none exists below 2**64;
    one built to pass it still fails a random-base round with probability
    at least 3/4 each. Only a number that passes Baillie-PSW draws bases.
    """
    if n < 2:
        return False
    verdict = _trial_division(n)
    if verdict is not None:
        return verdict
    if not (_strong_mr(n, 2) and _strong_lucas(n)):
        return False
    rng = rng or _default_rng
    return all(_strong_mr(n, rng.randrange(2, n - 1)) for _ in range(RANDOM_ROUNDS))


def gen_prime(bits: int, rng: random.Random | None = None) -> int:
    """A probable prime of exactly ``bits`` bits (top bit set)."""
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    rng = rng or _default_rng
    while True:
        candidate = (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1
        if is_probable_prime(candidate, rng):
            return candidate


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


def proved_prime_above(n: int, rng: random.Random | None = None) -> tuple[int, tuple[int, ...]]:
    """A prime m > n and the chain (N1, ..., Nk) that proves it, for
    ``proves_prime``.

    Below TRIAL_LIMIT, m is the smallest prime above n, with an empty chain
    and no draw. Above it, the chain grows upward: a tail from ``gen_prime``
    of at most _TAIL_BITS bits, then links N = 2*k*r + 1 over the link r
    below, each with a drawn k that gives N twice the bits of r less about
    four, until N1 has n.bit_length() // 2 + 2 bits. m is the smallest
    2*k*N1 + 1 above n that passes the step.
    """
    for m in range(max(n + 1, 2), TRIAL_LIMIT):
        if _trial_division(m):
            return m, ()
    rng = rng or _default_rng
    bits = [n.bit_length() // 2 + 2]
    while bits[-1] > _TAIL_BITS:
        bits.append(bits[-1] // 2 + 2)
    chain = [gen_prime(bits.pop(), rng)]
    for b in reversed(bits):
        r = chain[0]
        # every N = 2*k*r + 1 with k in [lo, hi] has exactly b bits
        lo, hi = (1 << (b - 2)) // r + 1, ((1 << (b - 1)) - 1) // r
        while True:
            link = 2 * rng.randrange(lo, hi + 1) * r + 1
            if _passes_step(link, r):
                break
        chain.insert(0, link)
    step = 2 * chain[0]
    m = n + step - (n - 1) % step  # the smallest 2*k*N1 + 1 above n
    while not _passes_step(m, chain[0]):
        m += step
    return m, tuple(chain)


def _passes_step(n: int, r: int) -> bool:
    """``pocklington_step(n, r)`` behind the cheaper filters of a candidate
    search: trial division, then a base-2 Fermat test. The full-width
    pow(2, n - 1, n) rejects a composite faster than the step's two pows,
    pow(2, (n-1)/r, n) and its r-th power, and a prime passes it anyway."""
    return _trial_division(n) is not False and powmod(2, n - 1, n) == 1 and pocklington_step(n, r)
