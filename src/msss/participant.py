"""Participant side: key generation and reconstruction contributions.

A participant picks a private exponent s and hands only the pseudo-share
ps = g**s mod n to the dealer; recovering s from ps is a discrete-log
instance. During reconstruction the participant releases x = ps0**s mod n,
which again keeps s hidden. One key serves any number of secrets.

s is short: at most S_BITS bits, as Diffie-Hellman draws short exponents
(van Oorschot & Wiener 1996), so keygen's g**s and every contribution's
ps0**s cost a short pow. The best known attack on such an s is Pollard's
lambda method, about 2**(S_BITS/2) steps. A key with a wider s, drawn
before s was short, works as before.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .dealer import PublicParams, SecretPackage
from .errors import NotAMember
from .modexp import powmod

_default_rng = random.SystemRandom()

# the widest private exponent s that keygen draws
S_BITS = 256


class ParticipantKey(NamedTuple):
    pid: str
    s: int  # private exponent; never leaves the participant
    ps: int  # public pseudo-share g**s mod n


class Contribution(NamedTuple):
    """One member's public reconstruction value, bound to its session."""

    pid: str
    secret_id: str
    set_index: int
    x: int  # ps0**s mod n


def keygen(params: PublicParams, pid: str, rng: random.Random | None = None) -> ParticipantKey:
    """Draw a private share and derive the pseudo-share to enroll with.

    s is uniform on [2, min(n + 1, 2**S_BITS)): below 2**S_BITS once n has
    S_BITS bits or more, and on [2, n] for a smaller n. A draw may repeat a
    pseudo-share already on the roster (at real sizes it never does):
    ``msss enroll`` and ``Board.validate`` refuse it, as equal masks cancel.
    """
    rng = rng or _default_rng
    s = rng.randrange(2, min(params.n + 1, 1 << S_BITS))
    return ParticipantKey(pid=pid, s=s, ps=powmod(params.g, s, params.n))


def contribute(
    params: PublicParams, key: ParticipantKey, package: SecretPackage, set_index: int
) -> Contribution:
    """This member's x = ps0**s mod n for one qualified set of one package."""
    entry = package.entry(set_index)
    if key.pid not in entry.members:
        raise NotAMember(
            f"{key.pid} is not a member of set {set_index} of {package.secret_id}"
        )
    return Contribution(
        pid=key.pid,
        secret_id=package.secret_id,
        set_index=set_index,
        x=powmod(package.ps0, key.s, params.n),
    )
