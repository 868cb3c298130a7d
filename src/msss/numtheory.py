"""Number theory on plain Python integers: probable primes and modular
inverses. Modular exponentiation is the built-in three-argument ``pow``
and the gcd is ``math.gcd``.

Primality is Baillie-PSW (a strong Miller-Rabin round to base 2 and a
strong Lucas test) plus RANDOM_ROUNDS Miller-Rabin rounds with random
bases, after trial division by the primes below 1000.

Randomized routines take an optional ``rng`` (any ``random.Random``-alike);
the default is a cryptographically secure source. Passing a seeded
``random.Random`` makes them fully deterministic, Miller-Rabin bases
included.
"""

from __future__ import annotations

import math
import random

from .errors import NotInvertible

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
    x = pow(a, (n - 1) >> r, n)
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
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < SMALL_PRIMES[-1] ** 2:
        return True  # trial division above was exhaustive
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
