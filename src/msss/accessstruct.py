"""Monotone access structures, represented by their minimal qualified sets.

A structure is the tuple of its minimal sets, each a frozenset of
participant ids, in publishing order: the members of a package's entries.
A valid one is an antichain, no minimal set containing another.
``validate_minimal`` is the one check of that rule: the dealer runs it on
every structure it publishes or extends, ``Board.validate`` on every
package it reads. A coalition is authorized exactly when it contains at
least one minimal set (monotone closure). Reconstruction always acts as
one *named* minimal set, because the published masking data is per-set; a
larger coalition must designate which minimal set it is acting as.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptySet, EmptyStructure, NotAntichain

ParticipantId = str


def _fmt(members: frozenset) -> str:
    return "{" + ", ".join(sorted(members)) + "}"


def validate_minimal(
    sets: Iterable[Iterable[ParticipantId]],
) -> tuple[frozenset[ParticipantId], ...]:
    """Check and freeze a list of minimal qualified sets.

    Each set is normalized to a frozenset (members de-duplicated); the list
    order is preserved. Raises EmptyStructure for an empty list, EmptySet
    for an empty member set, and NotAntichain naming the offending pair
    (duplicate sets included).
    """
    normalized = [frozenset(s) for s in sets]
    if not normalized:
        raise EmptyStructure("an access structure needs at least one qualified set")
    for pos, members in enumerate(normalized, start=1):
        if not members:
            raise EmptySet(f"qualified set {pos} is empty")
        for pid in members:
            if not isinstance(pid, str) or not pid:
                raise ValueError(f"participant ids must be non-empty strings, got {pid!r}")
    for i, a in enumerate(normalized):
        for j, b in enumerate(normalized):
            if i != j and a <= b:
                raise NotAntichain(
                    f"set {i + 1} {_fmt(a)} is contained in set {j + 1} {_fmt(b)}"
                )
    return tuple(normalized)


def is_authorized(
    structure: tuple[frozenset[ParticipantId], ...], coalition: Iterable[ParticipantId]
) -> bool:
    """True iff the coalition contains some minimal qualified set."""
    members = frozenset(coalition)
    return any(minimal <= members for minimal in structure)


def matching_set_index(
    structure: tuple[frozenset[ParticipantId], ...], coalition: Iterable[ParticipantId]
) -> int | None:
    """The 1-based index of the minimal set equal to ``coalition``, if any.

    Exact match only: a coalition that merely contains a minimal set has to
    name the set it acts as, since each set has its own published values.
    """
    members = frozenset(coalition)
    for j, minimal in enumerate(structure, start=1):
        if minimal == members:
            return j
    return None
