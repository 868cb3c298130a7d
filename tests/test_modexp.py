"""``modexp.powmod`` is exactly ``pow``, on either backend.

The property runs on whichever backend this interpreter loaded (OpenSSL's
``BN_mod_exp`` through ``_hashlib`` where it resolves, for every m of at
least ``POW_BELOW``); its edge cases sit at moduli above that cutoff, with
one example on each side of it. With ``public=True`` it runs through the
thread's Montgomery slot as well, which the alternating moduli hit and
replace. The fallback runs in a fresh interpreter in which
``import _hashlib`` fails, so ``powmod`` is the built-in ``pow`` there and
``hashlib`` uses its own SHA-256.
"""

import ctypes
import hashlib
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msss import bulletin, combiner, dealer, modexp, numtheory, participant, simulate
from msss.accessstruct import validate_minimal
from msss.modexp import POW_BELOW, powmod
from msss.simulate import SimulationConfig, run_simulation

from conftest import SRC
from test_cli import GOLDEN_REPORT_SHA256

needs_bn = pytest.mark.skipif(modexp._lib is None, reason="OpenSSL's BN functions did not resolve")


def _up_to_bits(top: int):
    """Integers in [0, 2**bits) for a drawn width bits <= top, so that
    small and wide values are both drawn often."""
    return st.integers(0, top).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


ODD = 2**89 - 1  # above POW_BELOW, so BN_mod_exp computes these examples


@given(x=_up_to_bits(2048), e=_up_to_bits(2048), m=_up_to_bits(2048).map(lambda v: v + 1))
@settings(max_examples=300, deadline=None)
@example(x=0, e=5, m=ODD)
@example(x=7, e=0, m=ODD)
@example(x=0, e=0, m=ODD)
@example(x=5, e=3, m=1)
@example(x=0, e=0, m=1)
@example(x=ODD + 1000, e=7, m=ODD)  # x >= m
@example(x=ODD * 5, e=7, m=ODD)  # x a multiple of m
@example(x=-5, e=3, m=ODD)  # x < 0
@example(x=12345, e=65537, m=2**80)  # even m
@example(x=3, e=2**64 - 1, m=POW_BELOW - 1)  # the widest m left to pow
@example(x=3, e=2**64 - 1, m=POW_BELOW)  # the narrowest m for BN_mod_exp
@example(x=3, e=2**2048 - 1, m=2**2048 - 2)  # even m, 2048 bits
@example(x=2**2048 - 1, e=2**2047 + 1, m=2**2047 + 1)
def test_powmod_is_pow(x, e, m):
    assert powmod(x, e, m) == pow(x, e, m)


@given(
    x=_up_to_bits(1024),
    e=_up_to_bits(1024),
    m=_up_to_bits(1024).map(lambda v: v + 1),
    other=_up_to_bits(1024).map(lambda v: v + 1),
)
@settings(max_examples=150, deadline=None)
@example(x=3, e=2**100 + 1, m=ODD, other=ODD + 2)  # two odd moduli: replace, replace, hit
@example(x=3, e=2**100 + 1, m=ODD, other=2**90)  # an even m passes the slot by
@example(x=ODD + 5, e=0, m=ODD, other=ODD)  # x >= m, e = 0, one modulus throughout
def test_public_powmod_is_pow(x, e, m, other):
    want = {m: pow(x, e, m), other: pow(x, e, other)}
    for modulus in (m, other, m, m):
        assert powmod(x, e, modulus, public=True) == want[modulus]
    if modexp._lib is not None and m >= POW_BELOW and m & 1:
        assert modexp._local.scratch.mont_m == m


def test_four_threads_interleaving_two_public_moduli_match_pow():
    moduli = (2**521 - 1, 2**607 - 1)
    matched = [[] for _ in range(4)]

    def work(t):
        for k in range(25):
            m, x, e = moduli[(t + k) % 2], 3 + t + k, 2**200 + 17 * k + t
            matched[t].append(powmod(x, e, m, public=True) == pow(x, e, m))
            matched[t].append(powmod(x, e, m - 2) == pow(x, e, m - 2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between nearly every pair of calls
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert matched == [[True] * 50] * 4


if modexp._lib is not None:
    _num_bits = modexp._lib["BN_num_bits"]  # a fresh pointer, not the module's
    _num_bits.restype, _num_bits.argtypes = ctypes.c_int, (ctypes.c_void_p,)


def _scratch_bits() -> list[int]:
    """BN_num_bits of each of this thread's scratch BIGNUMs."""
    return [_num_bits(bn) for bn in modexp._local.scratch.bns]


@needs_bn
@pytest.mark.parametrize("public", [False, True])
def test_scratch_bignums_read_zero_bits_after_a_return(public):
    assert powmod(5, 2**127 + 1, ODD, public=public) == pow(5, 2**127 + 1, ODD)
    assert _scratch_bits() == [0, 0, 0, 0]


@needs_bn
@pytest.mark.parametrize("public", [False, True])
def test_scratch_bignums_read_zero_bits_after_a_raised_error(public, monkeypatch):
    real, loaded = modexp._lib, []

    class _FailingExp:
        """libcrypto whose exponentiations fail once their inputs are loaded."""

        def __getattr__(self, name):
            if not name.startswith("BN_mod_exp"):
                return getattr(real, name)

            def fail(*args):
                loaded.append(_scratch_bits())
                return 0

            return fail

    monkeypatch.setattr(modexp, "_lib", _FailingExp())
    with pytest.raises(MemoryError):
        powmod(5, 2**127 + 1, ODD, public=public)
    monkeypatch.undo()
    [(r, x, e, m)] = loaded
    assert (x, e, m) == (3, 128, 89)
    assert _scratch_bits() == [0, 0, 0, 0]


def test_only_the_public_n_is_passed_as_public(monkeypatch):
    calls, setups = [], []

    def recording_powmod(x, e, m, public=False):
        calls.append((m, public))
        return powmod(x, e, m, public=public)

    for module in (bulletin, combiner, dealer, numtheory, participant, simulate):
        monkeypatch.setattr(module, "powmod", recording_powmod)
    setup = dealer.setup

    def recording_setup(bits, rng):
        params, state = setup(bits, rng)
        setups.append((params.n, state.p, state.q))
        return params, state

    monkeypatch.setattr(dealer, "setup", recording_setup)

    rng = random.Random(5)
    params, state = dealer.setup(80, rng)
    keys = [participant.keygen(params, pid, rng) for pid in "ABC"]
    roster = {key.pid: key.ps for key in keys}
    board = bulletin.Board(params, roster)
    structure = validate_minimal(["AB", "BC"])
    dealer.share_secret(state, board, 12345, structure, rng)
    assert bulletin.from_document(bulletin.to_document(board)) == board
    run_simulation(SimulationConfig(participants=6, secrets=3, bits_per_prime=80, seed=3))

    ns = {n for n, _, _ in setups}
    assert len(ns) == 2
    assert {m for m, public in calls if public} == ns
    # the dealer's CRT half-pows ran, with p and q never passed as public
    assert {m for _, p, q in setups for m in (p, q)} <= {m for m, public in calls if not public}


class _Reached(Exception):
    pass


class _Tripwire:
    """Stands in for libcrypto: any BN function looked up raises _Reached."""

    def __getattr__(self, name):
        raise _Reached(name)


def test_pow_below_the_cutoff_and_bn_mod_exp_from_it(monkeypatch):
    monkeypatch.setattr(modexp, "_lib", _Tripwire())
    assert powmod(3, 5, POW_BELOW - 1) == pow(3, 5, POW_BELOW - 1)
    with pytest.raises(_Reached):
        powmod(3, 5, POW_BELOW)


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


TEARDOWN = """\
import sys
import threading

from msss import modexp
from msss.modexp import powmod

# outlives sys.modules, as a test runner's references do, so the exit
# clears modexp's globals before it frees the main thread's state
sys.keep_modexp = modexp
N = 2**521 - 1


def work(t):
    for k in range(10):
        assert powmod(3 + t, 2**100 + k, N - 2 * (k % 2), public=True) == pow(3 + t, 2**100 + k, N - 2 * (k % 2))
        assert powmod(5, 2**90 + k, N - 4) == pow(5, 2**90 + k, N - 4)


threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
work(4)
"""


def test_threads_end_and_the_interpreter_exits_cleanly():
    # each thread's BN_CTX, BIGNUMs and Montgomery slot are freed when the
    # thread ends, the main thread's at exit; a free that raised or ran
    # after libcrypto was gone would show on stderr or in the exit status
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", TEARDOWN],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
