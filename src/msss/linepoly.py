"""The sharing line f(x) = secret + slope * x over Z_m.

The secret sits at x = 0 and the public point at x = 1; each qualified set
opens f at its own d in [2, m-1]. The dealer evaluates the line with
``line_at`` and the combiner reads the secret back with ``interpolate_line``.
"""


def line_at(secret: int, slope: int, x: int, m: int) -> int:
    """f(x) = secret + slope * x mod m."""
    return (secret + slope * x) % m


def interpolate_line(f1: int, d: int, y: int, m: int) -> int:
    """The secret f(0) of the line through (1, f1) and (d, y).

    m must be prime and d in [2, m-1], so that d - 1 is a unit mod m.
    """
    return (f1 - (y - f1) * pow(d - 1, -1, m)) % m
