"""Lines over Z_m: the sharing polynomial y = intercept + slope * x.

Dealer-made sharing lines always carry slope >= 1; a flat line would give
the secret away through the published value at x = 1. Interpolating two
arbitrary points may legitimately produce slope 0, so the type allows it.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegeneratePoints
from .numtheory import mod_inv

Point = tuple[int, int]


class LinePoly(namedtuple("LinePoly", ("intercept", "slope", "modulus"))):
    __slots__ = ()

    def __new__(cls, intercept: int, slope: int, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        if not 0 <= intercept < modulus:
            raise ValueError(f"intercept {intercept} not reduced mod {modulus}")
        if not 0 <= slope < modulus:
            raise ValueError(f"slope {slope} not reduced mod {modulus}")
        return super().__new__(cls, intercept, slope, modulus)

    def eval(self, x: int) -> int:
        """Value at x, which must already be a field element."""
        if not 0 <= x < self.modulus:
            raise ValueError(f"x must lie in [0, {self.modulus - 1}], got {x}")
        return (self.intercept + self.slope * x) % self.modulus

    @property
    def secret(self) -> int:
        """The concealed value: the evaluation at x = 0."""
        return self.intercept


def interpolate_line(p1: Point, p2: Point, modulus: int) -> LinePoly:
    """The unique line through two points with distinct abscissas.

    ``modulus`` must be prime so the abscissa difference is invertible.
    Raises DegeneratePoints when x1 == x2.
    """
    x1, y1 = p1
    x2, y2 = p2
    for coord in (x1, y1, x2, y2):
        if not 0 <= coord < modulus:
            raise ValueError(f"coordinate {coord} not reduced mod {modulus}")
    if x1 == x2:
        raise DegeneratePoints(f"both points have abscissa {x1}")
    slope = (y2 - y1) * mod_inv((x2 - x1) % modulus, modulus) % modulus
    intercept = (y1 - slope * x1) % modulus
    return LinePoly(intercept=intercept, slope=slope, modulus=modulus)
