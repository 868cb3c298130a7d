"""``modexp.powmod`` is exactly ``pow``, on either backend.

The property runs on whichever backend this interpreter loaded (OpenSSL's
``BN_mod_exp`` through ``_hashlib`` where it resolves). The fallback runs
in a fresh interpreter in which ``import _hashlib`` fails, so ``powmod``
is the built-in ``pow`` there and ``hashlib`` uses its own SHA-256.
"""

import hashlib
import os
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from msss.modexp import powmod

from conftest import SRC
from test_cli import GOLDEN_REPORT_SHA256


def _up_to_bits(top: int):
    """Integers in [0, 2**bits) for a drawn width bits <= top, so that
    small and wide values are both drawn often."""
    return st.integers(0, top).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


@given(x=_up_to_bits(2048), e=_up_to_bits(2048), m=_up_to_bits(2048).map(lambda v: v + 1))
@settings(max_examples=300, deadline=None)
@example(x=0, e=5, m=143)
@example(x=7, e=0, m=143)
@example(x=0, e=0, m=143)
@example(x=5, e=3, m=1)
@example(x=0, e=0, m=1)
@example(x=1000, e=7, m=143)  # x >= m
@example(x=143 * 5, e=7, m=143)  # x a multiple of m
@example(x=-5, e=3, m=143)  # x < 0
@example(x=12345, e=65537, m=2**64)  # even m
@example(x=3, e=2**2048 - 1, m=2**2048 - 2)  # even m, 2048 bits
@example(x=2**2048 - 1, e=2**2047 + 1, m=2**2047 + 1)
def test_powmod_is_pow(x, e, m):
    assert powmod(x, e, m) == pow(x, e, m)


def test_negative_exponent_is_an_inverse_as_in_pow():
    assert powmod(3, -1, 143) == pow(3, -1, 143) == 48


FALLBACK = """\
import sys

sys.modules["_hashlib"] = None  # import _hashlib fails, as on a build without it

from msss import modexp
from msss.cli import main

assert modexp.BACKEND == "pow", modexp.BACKEND
sys.exit(main(["simulate", "--participants", "6", "--secrets", "4", "--cheaters", "1",
               "--bits", "64", "--seed", "7"]))
"""


def test_fallback_without_hashlib_gives_the_golden_report():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", FALLBACK], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == GOLDEN_REPORT_SHA256[7]
