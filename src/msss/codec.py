"""Byte-level plumbing: fixed-width integer encodings, XOR masking, and the
published verification tag.

The byte layouts here are normative for everything that goes on the
bulletin: big-endian, zero-padded to the board's mask width. The tag is
SHA-256 over ``b"MSSS-v1" || encode(secret) || encode(d)``; the constant
prefix keeps the digests from colliding with any other protocol's use of
the same hash.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

TAG_DOMAIN = b"MSSS-v1"
TAG_BYTES = 32


def mask_width(m: int) -> int:
    """Bytes needed for any value in [0, m - 1]; masks mod n fit too since m > n."""
    return (m.bit_length() + 7) // 8


def encode_fixed(value: int, width: int) -> bytes:
    """Big-endian, zero-padded to exactly ``width`` bytes.

    Raises OverflowError when the value is negative or needs more bytes.
    """
    return value.to_bytes(width, "big")


def xor_combine(value: int, masks: Iterable[int], width: int) -> int:
    """XOR ``value`` with every mask, each a ``width``-byte integer.

    Self-inverse in ``value``; the order of the masks is irrelevant. Raises
    OverflowError, as encode_fixed does, for an operand that does not fit.
    """
    acc = 0
    for x in (value, *masks):
        if x < 0 or x.bit_length() > 8 * width:
            raise OverflowError(f"{x} does not fit in {width} bytes")
        acc ^= x
    return acc


def tag(secret: int, d: int, width: int) -> bytes:
    """One-way digest binding a secret to a qualified set's abscissa.

    Published next to each masked value so anyone can check a recovered
    secret without learning anything before recovery.
    """
    msg = TAG_DOMAIN + encode_fixed(secret, width) + encode_fixed(d, width)
    return hashlib.sha256(msg).digest()
