"""The sharing line f(x) = secret + slope * x over Z_m.

The secret sits at x = 0 and the public point at x = 1; each qualified set
opens f at its own d in [2, m-1]. The dealer evaluates the line with
``line_at`` and the combiner reads the secret back with ``interpolate_line``.
An entry's d and the board's m are public and fixed, so ``interpolate_line``
inverts d - 1 mod m once per (d - 1, m) pair and reuses it while the pair
stays in a small cache; nothing secret is cached.
"""

import functools


def line_at(secret: int, slope: int, x: int, m: int) -> int:
    """f(x) = secret + slope * x mod m."""
    return (secret + slope * x) % m


# One package's entries are the working set: the probes of a secret open
# its entries back to back, so the cache only needs to hold one package.
# Keyed on m too, so two boards that share a d never share an inverse.
@functools.lru_cache(maxsize=256)
def _inverse(a: int, m: int) -> int:
    return pow(a, -1, m)


def interpolate_line(f1: int, d: int, y: int, m: int) -> int:
    """The secret f(0) of the line through (1, f1) and (d, y).

    m must be prime and d in [2, m-1], so that d - 1 is a unit mod m. The
    inverse of d - 1 mod m is taken once per (d - 1, m) and cached; both
    are public.
    """
    return (f1 - (y - f1) * _inverse(d - 1, m)) % m
