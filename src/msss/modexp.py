"""Modular exponentiation by OpenSSL's ``BN_mod_exp``.

``powmod(x, e, m)`` returns exactly ``pow(x, e, m)``. The interpreter
already loads OpenSSL's libcrypto for ``hashlib``; ctypes opens the
``_hashlib`` extension and finds the BN functions among its dependencies,
so no library is searched for or installed. ``BN_mod_exp`` multiplies in
Montgomery form (Montgomery 1985, "Modular multiplication without trial
division") with assembly kernels, where ``pow`` divides by the modulus at
every step. Up to a 64-bit modulus the built-in ``pow`` is faster, since
a call's fixed cost outweighs the saving, so ``powmod`` uses ``pow``
there. Where ``_hashlib`` or a symbol is missing, as on a build without a
shared OpenSSL, ``powmod`` uses the built-in ``pow`` throughout.
``BACKEND`` names the one in use.

Each thread keeps one BN_CTX and four scratch BIGNUMs, made on its first
call and freed when the thread ends, so threads share no OpenSSL state
and take no lock. Every scratch BIGNUM is cleared (``BN_clear``) before
``powmod`` returns, on error too, since exponents and the moduli ``p``
and ``q`` can be secret; the BN_CTX clears its own temporaries when it is
freed. A caller passes ``public=True`` only for a public modulus (the
board's ``n``). For an odd one, the thread keeps that modulus's
Montgomery context (``BN_MONT_CTX``) in a single slot and hands it to
``BN_mod_exp_mont``, so repeated pows mod ``n`` skip rebuilding it; a
different public modulus frees the slot's context and takes its place.
Every other modulus gets a fresh Montgomery context inside
``BN_mod_exp``, as it would without the slot.
"""

from __future__ import annotations

import _thread

try:
    import ctypes

    import _hashlib

    _lib = ctypes.PyDLL(_hashlib.__file__)
    _ptr, _int = ctypes.c_void_p, ctypes.c_int
    # a pointer result must be declared: the default c_int truncates it
    for _name, _restype, _argtypes in (
        ("BN_bin2bn", _ptr, (ctypes.c_char_p, _int, _ptr)),
        ("BN_bn2binpad", _int, (_ptr, ctypes.c_char_p, _int)),
        ("BN_new", _ptr, ()),
        ("BN_clear", None, (_ptr,)),
        ("BN_clear_free", None, (_ptr,)),
        ("BN_CTX_new", _ptr, ()),
        ("BN_CTX_free", None, (_ptr,)),
        ("BN_MONT_CTX_new", _ptr, ()),
        ("BN_MONT_CTX_set", _int, (_ptr, _ptr, _ptr)),
        ("BN_MONT_CTX_free", None, (_ptr,)),
        ("BN_mod_exp", _int, (_ptr, _ptr, _ptr, _ptr, _ptr)),
        ("BN_mod_exp_mont", _int, (_ptr, _ptr, _ptr, _ptr, _ptr, _ptr)),
    ):
        _fn = getattr(_lib, _name)
        _fn.restype, _fn.argtypes = _restype, _argtypes
    _buffer = ctypes.create_string_buffer
except (ImportError, OSError, AttributeError):
    _lib = None

BACKEND = "pow" if _lib is None else f"BN_mod_exp via {_hashlib.__file__}"

# Median CPU time of one call on a 2-vCPU Intel Xeon (Python 3.11.7,
# OpenSSL 3.0.19), with the thread's BN_CTX and scratch BIGNUMs: at a
# 64-bit m the built-in pow took 10, 22 and 37 us for 32-, 64- and 128-bit
# exponents against 24, 32 and 43 us by BN_mod_exp (29, 38 and 49 us with
# a BN_CTX and BIGNUMs made for each call); at a 72-bit m with a 72-bit
# exponent BN_mod_exp wins, 21 us against 24. The crossover is still just
# above 64 bits, so the cutoff stays 2^64.
POW_BELOW = 1 << 64


class _Scratch:
    """One thread's BN_CTX, its scratch BIGNUMs r, x, e and m, and its
    Montgomery slot: ``mont`` is the context of the public modulus
    ``mont_m``, or NULL."""

    def __init__(self):
        # __del__ may run once this module's globals are cleared at exit
        self._free = (_lib.BN_clear_free, _lib.BN_CTX_free, _lib.BN_MONT_CTX_free)
        self.ctx = _lib.BN_CTX_new()
        self.bns = [_lib.BN_new() for _ in range(4)]
        self.mont, self.mont_m = None, None
        if not (self.ctx and all(self.bns)):
            raise MemoryError("BN_CTX_new or BN_new failed")

    def keep_mont(self, bm, m: int) -> None:
        """Put the Montgomery context of m, loaded in bm, in the slot."""
        mont = _lib.BN_MONT_CTX_new()
        if not (mont and _lib.BN_MONT_CTX_set(mont, bm, self.ctx)):
            _lib.BN_MONT_CTX_free(mont)
            raise MemoryError("BN_MONT_CTX_set failed")
        _lib.BN_MONT_CTX_free(self.mont)
        self.mont, self.mont_m = mont, m

    def __del__(self):
        clear_free, ctx_free, mont_free = self._free
        for bn in self.bns:
            clear_free(bn)
        ctx_free(self.ctx)
        mont_free(self.mont)


class _PerThread(_thread._local):
    """``threading.local`` without importing ``threading``: ``scratch``
    reads None in a thread until its first call sets it, and is freed
    when the thread ends."""

    scratch = None


_local = _PerThread()


def _set(bn, v: int):
    """Load v >= 0 into the BIGNUM bn; bn, or NULL on failure."""
    raw = v.to_bytes((v.bit_length() + 7) // 8, byteorder="big")
    return _lib.BN_bin2bn(raw, len(raw), bn)


def powmod(x: int, e: int, m: int, public: bool = False) -> int:
    """pow(x, e, m): by OpenSSL for e >= 0 and m >= POW_BELOW, else by pow.

    ``public=True`` says m is public, so this thread may keep its
    Montgomery context between calls.
    """
    if _lib is None or e < 0 or m < POW_BELOW:
        return pow(x, e, m)
    s = _local.scratch
    if s is None:
        s = _local.scratch = _Scratch()
    r, bx, be, bm = s.bns
    size = (m.bit_length() + 7) // 8
    try:
        if not (_set(bx, x % m) and _set(be, e) and _set(bm, m)):
            raise MemoryError("BN_bin2bn failed")
        if public and m & 1:
            if m != s.mont_m:
                s.keep_mont(bm, m)
            ok = _lib.BN_mod_exp_mont(r, bx, be, bm, s.ctx, s.mont)
        else:
            ok = _lib.BN_mod_exp(r, bx, be, bm, s.ctx)
        if not ok:
            raise MemoryError("BN_mod_exp failed")
        out = _buffer(size)
        _lib.BN_bn2binpad(r, out, size)
        return int.from_bytes(out.raw, byteorder="big")
    finally:
        for bn in s.bns:
            _lib.BN_clear(bn)
