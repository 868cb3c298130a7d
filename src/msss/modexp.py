"""Modular exponentiation by OpenSSL's ``BN_mod_exp``.

``powmod(x, e, m)`` returns exactly ``pow(x, e, m)``. The interpreter
already loads OpenSSL's libcrypto for ``hashlib``; ctypes opens the
``_hashlib`` extension and finds the BN functions among its dependencies,
so no library is searched for or installed. ``BN_mod_exp`` multiplies in
Montgomery form (Montgomery 1985, "Modular multiplication without trial
division") with assembly kernels, where ``pow`` divides by the modulus at
every step. Where ``_hashlib`` or a symbol is missing, as on a build
without a shared OpenSSL, ``powmod`` uses the built-in ``pow``.
``BACKEND`` names the one in use.

Each call makes its own BIGNUMs and BN_CTX and frees them before it
returns, the BIGNUMs with ``BN_clear_free`` since exponents can be
secret, so threads share no OpenSSL state.
"""

from __future__ import annotations

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
        ("BN_clear_free", None, (_ptr,)),
        ("BN_CTX_new", _ptr, ()),
        ("BN_CTX_free", None, (_ptr,)),
        ("BN_mod_exp", _int, (_ptr, _ptr, _ptr, _ptr, _ptr)),
    ):
        _fn = getattr(_lib, _name)
        _fn.restype, _fn.argtypes = _restype, _argtypes
    _buffer = ctypes.create_string_buffer
except (ImportError, OSError, AttributeError):
    _lib = None

BACKEND = "pow" if _lib is None else f"BN_mod_exp via {_hashlib.__file__}"


def _set(bn, v: int):
    """Load v >= 0 into the BIGNUM bn; bn, or NULL on failure."""
    raw = v.to_bytes((v.bit_length() + 7) // 8, byteorder="big")
    return _lib.BN_bin2bn(raw, len(raw), bn)


def powmod(x: int, e: int, m: int) -> int:
    """pow(x, e, m): by BN_mod_exp for e >= 0 and m >= 2, else by pow."""
    if _lib is None or e < 0 or m < 2:
        return pow(x, e, m)
    size = (m.bit_length() + 7) // 8
    ctx, bns = None, []
    try:
        ctx, bns = _lib.BN_CTX_new(), [_lib.BN_new() for _ in range(4)]
        r, bx, be, bm = bns
        if not (
            ctx
            and all(bns)
            and _set(bx, x % m)
            and _set(be, e)
            and _set(bm, m)
            and _lib.BN_mod_exp(r, bx, be, bm, ctx)
        ):
            raise MemoryError("BN_mod_exp failed")
        out = _buffer(size)
        _lib.BN_bn2binpad(r, out, size)
        return int.from_bytes(out.raw, byteorder="big")
    finally:
        for bn in bns:
            _lib.BN_clear_free(bn)
        _lib.BN_CTX_free(ctx)
