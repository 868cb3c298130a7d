"""Combiner side: verify contributions, unmask, interpolate, and check the
recovered secret against the published tag.

``check_contributions`` is the one place that decides whether a
contribution is honest; ``reconstruct`` and the CLI's ``verify`` both read
its verdict. Contribution checking runs before any unmasking, so a bad
value surfaces as BadContribution naming the offending participants
instead of as garbage output. The check is exact, not statistical: raising
to h0 is injective on units mod n, so any tampered unit value fails it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import codec
from .bulletin import Contribution, PublicParams, SecretPackage
from .errors import (
    BadContribution,
    ExtraContribution,
    MissingContribution,
    UnknownParticipant,
    UnmaskOutOfField,
)
from .linepoly import interpolate_line
from .modexp import powmod


def verify_contribution(
    params: PublicParams, package: SecretPackage, ps: int, contribution: Contribution
) -> bool:
    """Public check that x was honestly derived from the share behind ps.

    An honest x = ps0**s satisfies x**h0 = g**(s0*h0*s) = g**s = ps mod n.
    Values outside [0, n) are rejected outright: the honest value is reduced,
    so an unreduced congruent one is a forgery, not an equivalent encoding.
    """
    if not 0 <= contribution.x < params.n:
        return False
    return powmod(contribution.x, package.h0, params.n, public=True) == ps


def check_contributions(
    params: PublicParams,
    package: SecretPackage,
    set_index: int,
    contributions: Sequence[Contribution],
    roster: Mapping[str, int],
) -> list[bool]:
    """The verdict on each contribution, in input order: True when honest.

    A contribution is honest when it is bound to this package and set
    index, comes from a member of that set, and passes verify_contribution
    against the member's pseudo-share. Every id must be on the roster;
    otherwise UnknownParticipant is raised before any verdict is given.
    """
    for c in contributions:
        if c.pid not in roster:
            raise UnknownParticipant(f"{c.pid} has no pseudo-share on the board")
    members = package.entry(set_index).members
    return [
        c.secret_id == package.secret_id
        and c.set_index == set_index
        and c.pid in members
        and verify_contribution(params, package, roster[c.pid], c)
        for c in contributions
    ]


def unmask(params: PublicParams, package: SecretPackage, set_index: int, xs: Iterable[int]) -> int:
    """Strip the masks xs from one entry and read the secret off the line.

    XORs xs into the entry's masked value, then interpolates through (1, f1)
    and (d, f(d)). UnmaskOutOfField means the unmasked value is not a field
    element, which with verified inputs certifies corrupted public data or
    a wrong coalition.
    """
    entry = package.entry(set_index)
    unmasked = codec.xor_combine(entry.masked, xs, params.width)
    if unmasked >= params.m:
        raise UnmaskOutOfField(
            f"unmasked value {unmasked} is not in Z_{params.m}: "
            "public data corrupt or wrong coalition"
        )
    return interpolate_line(package.f1, entry.d, unmasked, params.m)


def reconstruct(
    params: PublicParams,
    package: SecretPackage,
    set_index: int,
    contributions: Iterable[Contribution],
    roster: Mapping[str, int],
) -> int:
    """Recover the secret for one qualified set from its members' values.

    Needs exactly one contribution from each member of the designated set;
    anything else raises MissingContribution or ExtraContribution. Then
    check_contributions gives its verdict before any unmasking, and
    BadContribution names every cheater, including a member whose
    contribution is bound to another secret or set.

    The caller should still confirm the result with verify_secret.
    """
    contributions = list(contributions)
    entry = package.entry(set_index)
    seen: set[str] = set()
    for c in contributions:
        if c.pid not in entry.members:
            raise ExtraContribution(f"{c.pid} is not a member of set {set_index}")
        if c.pid in seen:
            raise ExtraContribution(f"duplicate contribution from {c.pid}")
        seen.add(c.pid)
    missing = entry.members - seen
    if missing:
        raise MissingContribution("missing contributions from: " + ", ".join(sorted(missing)))
    verdicts = check_contributions(params, package, set_index, contributions, roster)
    cheaters = [c.pid for c, honest in zip(contributions, verdicts) if not honest]
    if cheaters:
        raise BadContribution(cheaters)
    return unmask(params, package, set_index, [c.x for c in contributions])


def verify_secret(package: SecretPackage, set_index: int, recovered: int, width: int) -> bool:
    """Check a recovered value against the published tag for that set."""
    entry = package.entry(set_index)
    if recovered < 0 or recovered.bit_length() > 8 * width:
        return False
    return codec.tag(recovered, entry.d, width) == entry.tag
