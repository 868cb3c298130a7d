"""Participant side: key generation and reconstruction contributions.

A participant picks a private exponent s and hands only the pseudo-share
ps = g**s mod n to the dealer; recovering s from ps is a discrete-log
instance. During reconstruction the participant releases x = ps0**s mod n,
which again keeps s hidden. One key serves any number of secrets.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .dealer import PublicParams, SecretPackage
from .errors import NotAMember

_default_rng = random.SystemRandom()


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

    s is uniform on [2, n]; two participants drawing the same value is
    allowed (and at real sizes never happens).
    """
    rng = rng or _default_rng
    s = rng.randrange(2, params.n + 1)
    return ParticipantKey(pid=pid, s=s, ps=pow(params.g, s, params.n))


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
        x=pow(package.ps0, key.s, params.n),
    )
