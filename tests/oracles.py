"""Independent brute-force oracles. These never call into msss internals,
so every expected value they produce is an independent check on the
implementation path."""


def naive_mod_exp(base: int, exp: int, modulus: int) -> int:
    """Repeated multiplication, one step per exponent unit."""
    result = 1
    base %= modulus
    for _ in range(exp):
        result = (result * base) % modulus
    return result


def scan_inverse(a: int, modulus: int):
    """Exhaustive search for a multiplicative inverse; None if there is none."""
    a %= modulus
    for b in range(1, modulus):
        if (a * b) % modulus == 1:
            return b
    return None


def trial_division_factor(n: int, bound: int):
    """Smallest proper divisor of n below the bound, if any."""
    for k in range(2, bound):
        if k >= n:
            break
        if n % k == 0:
            return k
    return None


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by trial division."""
    found, k = [], 2
    while k * k <= n:
        if n % k == 0:
            found.append(k)
            while n % k == 0:
                n //= k
        k += 1
    return found + [n] if n > 1 else found


def multiplicative_order(g: int, p: int) -> int:
    """The order of g mod a prime p not dividing g: p - 1 with every prime
    factor divided out that g**(order / f) = 1 allows."""
    order = p - 1
    for f in prime_factors(p - 1):
        while order % f == 0 and pow(g, order // f, p) == 1:
            order //= f
    return order


def brute_line_search(x1: int, y1: int, x2: int, y2: int, m: int) -> list:
    """All lines (intercept, slope) through both points, by scanning every
    slope candidate and deriving the intercept from the first point."""
    found = []
    for slope in range(m):
        intercept = (y1 - slope * x1) % m
        if (intercept + slope * x2) % m == y2:
            found.append((intercept, slope))
    return found


def is_antichain_bruteforce(sets) -> bool:
    """Pairwise subset scan over a list of sets."""
    sets = [frozenset(s) for s in sets]
    for i in range(len(sets)):
        for j in range(len(sets)):
            if i != j and sets[i] <= sets[j]:
                return False
    return True


def bytewise_xor(value: int, masks, width: int) -> int:
    """XOR over the big-endian width-byte encodings, one byte at a time;
    to_bytes raises OverflowError for an operand that does not fit."""
    acc = bytearray(value.to_bytes(width, "big"))
    for mask in masks:
        for i, b in enumerate(mask.to_bytes(width, "big")):
            acc[i] ^= b
    return int.from_bytes(acc, "big")


def miller_rabin(n: int, rng, rounds: int = 40) -> bool:
    """Miller-Rabin with ``rounds`` bases drawn from ``rng``: a composite
    passes with probability below 4**-rounds."""
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True
