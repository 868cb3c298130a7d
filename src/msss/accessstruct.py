"""Monotone access structures, represented by their minimal qualified sets.

A structure is the tuple of its minimal sets, each a frozenset of
participant ids, in publishing order: the members of a package's entries.
An id is a str that a set list such as ``'A,B|B,C'`` (``parse_sets``) reads
back as itself: ``check_id``, the one id rule. A valid structure is an
antichain, no minimal set containing another.
``validate_minimal`` is the one check of that rule: the dealer runs it on
every structure it publishes or extends, ``Board.validate`` on every
package it reads. A coalition is authorized exactly when it contains at
least one minimal set (monotone closure). Reconstruction always acts as
one *named* minimal set, because the published masking data is per-set; a
larger coalition must designate which minimal set it is acting as.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BadParameter, EmptySet, EmptyStructure, NotAntichain


def parse_set(text: str) -> frozenset[str]:
    """'A, B' -> {A, B}: the members of one set."""
    return frozenset(pid.strip() for pid in text.split(",") if pid.strip())


def parse_sets(text: str) -> list[frozenset[str]]:
    """'A,B|B,C' -> [{A, B}, {B, C}], not yet validated."""
    return [parse_set(group) for group in text.split("|")]


def check_id(pid, error: type[Exception] = BadParameter) -> None:
    """Raise ``error`` unless ``pid`` is a str that a set list reads back as itself."""
    if not (isinstance(pid, str) and parse_sets(pid) == [{pid}]):
        raise error(f"participant id {pid!r} cannot be named in a set list")


def _fmt(members: frozenset) -> str:
    return "{" + ", ".join(sorted(members)) + "}"


def validate_minimal(sets: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    """Check and freeze a list of minimal qualified sets.

    Each set is normalized to a frozenset (members de-duplicated); the list
    order is preserved. Raises EmptyStructure for an empty list, EmptySet
    for an empty member set, BadParameter for a member that is not a
    participant id (``check_id``), and NotAntichain naming the offending
    pair (duplicate sets included).
    """
    normalized = [frozenset(s) for s in sets]
    if not normalized:
        raise EmptyStructure("an access structure needs at least one qualified set")
    for pos, members in enumerate(normalized, start=1):
        if not members:
            raise EmptySet(f"qualified set {pos} is empty")
        for pid in members:
            check_id(pid)
    for i, a in enumerate(normalized):
        for j, b in enumerate(normalized):
            if i != j and a <= b:
                raise NotAntichain(
                    f"set {i + 1} {_fmt(a)} is contained in set {j + 1} {_fmt(b)}"
                )
    return tuple(normalized)


def is_authorized(structure: tuple[frozenset[str], ...], coalition: Iterable[str]) -> bool:
    """True iff the coalition contains some minimal qualified set."""
    members = frozenset(coalition)
    return any(minimal <= members for minimal in structure)


def matching_set_index(
    structure: tuple[frozenset[str], ...], coalition: Iterable[str]
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
