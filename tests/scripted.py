"""Stand-ins for random.Random that answer from a script or a fixed number of draws."""

import random


class ScriptedRandom:
    """Answers randrange and getrandbits with the next scripted value.

    Each value must lie in the range the caller asks for, and a draw past
    the end of the script fails, so a script pins exactly the draws an
    operation makes, in their order. It has no other draw, and no
    random.Random base, whose constructor on Python 3.10 hashes its
    argument as a seed and rejects a list.
    """

    def __init__(self, values):
        self.values = list(values)

    def _next(self, lo, hi):
        assert self.values, "script used up"
        value = self.values.pop(0)
        assert lo <= value < hi, f"scripted {value} outside [{lo}, {hi})"
        return value

    def randrange(self, start, stop=None, step=1):
        assert step == 1, "stepped ranges are not scripted"
        if stop is None:
            start, stop = 0, start
        return self._next(start, stop)

    def getrandbits(self, k):
        return self._next(0, 1 << k)


class LimitedRandom:
    """A seeded random.Random with a fixed number of draws: past ``draws``
    draws (randrange and getrandbits alike) it fails, so an operation that
    would draw forever fails fast instead."""

    def __init__(self, seed, draws):
        self.rng = random.Random(seed)
        self.left = draws

    def _spend(self):
        assert self.left > 0, "draws used up"
        self.left -= 1

    def randrange(self, *args):
        self._spend()
        return self.rng.randrange(*args)

    def getrandbits(self, k):
        self._spend()
        return self.rng.getrandbits(k)
