import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from msss import accessstruct, bulletin, dealer, participant
from scripted import ScriptedRandom

# The draws that build the toy world. setup: the low bits 3 and 5 that make
# the 4-bit primes 11 and 13, then g = 15. share: h0 = 103 (so s0 = 7), slope
# 5, d = 7.
TOY_SETUP = (3, 5, 15)
TOY_SHARE = (103, 5, 7)
# the least h0 = 103 + 60k of 129 bits: it opens the toy ps0 = 115 (of order
# 60) to g as 103 does, so on the toy board it breaks only the width rule
TOY_WIDE_H0 = 103 + 60 * -(-(2**128 - 103) // 60)
# ten members whose pseudo-shares are distinct units mod the toy n = 143, and
# their 252 five-member sets: more than the 147 abscissas d in [2, m - 1]
# that the toy m = 149 has
TEN_ROSTER = {f"P{i}": ps for i, ps in enumerate((2, 3, 4, 5, 6, 7, 8, 9, 10, 12))}
FIVE_SETS = [frozenset(c) for c in itertools.combinations(TEN_ROSTER, 5)]


@dataclass
class ToyWorld:
    """The fixed hand-checkable deployment: p=11, q=13, g=15, m=149,
    s_A=5, s_B=7, s0=7, slope=5, d=7, secret=100."""

    board: bulletin.Board
    state: bulletin.DealerState
    key_a: bulletin.ParticipantKey
    key_b: bulletin.ParticipantKey
    package: bulletin.SecretPackage
    secret: int = 100

    @property
    def params(self) -> bulletin.PublicParams:
        return self.board.params

    @property
    def roster(self) -> dict:
        return self.board.roster


def make_toy_world() -> ToyWorld:
    params, state = dealer.setup(4, ScriptedRandom(TOY_SETUP))
    key_a = participant.keygen(params, "A", ScriptedRandom([5]))
    key_b = participant.keygen(params, "B", ScriptedRandom([7]))
    board = bulletin.Board(params, {"A": key_a.ps, "B": key_b.ps})
    structure = accessstruct.validate_minimal([["A", "B"]])
    package = dealer.share_secret(state, board, 100, structure, ScriptedRandom(TOY_SHARE))
    return ToyWorld(board=board, state=state, key_a=key_a, key_b=key_b, package=package)


@pytest.fixture
def toy() -> ToyWorld:
    return make_toy_world()
