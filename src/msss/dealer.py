"""Dealer side of the protocol: one-time setup, enrollment, per-secret
publication, and the dynamic updates (renew a secret, add or remove a
qualified set, remove a participant).

The dealer owns the factorization of n and each shared secret; every
package lives on the board (``bulletin.Board``) that each dealer operation
is given, reads its params and roster from, and changes in place. That is
all it needs to extend a package with a new qualified set: the exponent s0
is h0**-1 mod phi(n) and the line slope is f1 - secret mod m, both read off
the package. phi(n) and the next secret id are derived too, never stored.
Nothing private ever appears in a SecretPackage.

Each package's public exponent h0 is drawn first and short (at most
``bulletin.H0_BITS`` bits, as RSA draws its public exponent), and
s0 = h0**-1 mod phi(n) is derived from it: s0 stays full width and secret,
while every public check x**h0 costs a short pow. Forging a contribution is
still taking an h0-th root mod n.

Only the dealer knows p and q, so only the dealer can split a pow mod n by
the Chinese remainder theorem (Quisquater & Couvreur 1982): every dealer
pow mod n (ps0 and each mask) is one pow mod p and one mod q, each with its
exponent reduced mod p-1 or q-1, recombined by Garner's formula with
q**-1 mod p from the DealerState. That gives exactly pow(x, e, n) in under
half the time of one full-width ``modexp.powmod`` at a 1024-bit n; at a
smaller n the fixed cost of each call narrows the gain. Participants,
combiners and verifiers, who know only n, pay the full pow.

Randomized operations draw from an optional ``rng`` (any
``random.Random``-alike, a secure source by default) in a fixed order, so
a seeded or scripted generator pins every drawn value.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping, Sequence

from . import codec
from .accessstruct import validate_minimal
from .bulletin import H0_BITS, Board, DealerState, PackageEntry, PublicParams, SecretPackage
from .errors import (
    BadParameter,
    DuplicateParticipant,
    LastEntry,
    SecretTooLarge,
    StructureBecameEmpty,
    UnknownParticipant,
)
from .linepoly import line_at
from .modexp import powmod
from .numtheory import ceil_sqrt, gen_prime, proved_prime_above

_default_rng = random.SystemRandom()


def setup(
    bits_per_prime: int, rng: random.Random | None = None
) -> tuple[PublicParams, DealerState]:
    """Generate system parameters and fresh private dealer state.

    Every prime is proved, each grown with its Pocklington chain as in
    Maurer 1995 and FIPS 186-4, Appendix B.3.2 (``numtheory``). n = p*q for
    two distinct proved primes of ``bits_per_prime`` bits each
    (``numtheory.gen_prime``), whose chains are discarded; g is drawn from
    [ceil(sqrt(n)), n] and resampled until it shares no factor with n (which
    in particular rules out p and q). After them, m > n comes with the chain
    the board carries for it (``numtheory.proved_prime_above``): the smallest
    prime above n while n is below ``numtheory.TRIAL_LIMIT``, otherwise the
    first prime above n of the form 2*k*N1 + 1 over the chain's top link N1,
    about half as wide as n; either way the mask width stays
    ``codec.mask_width(m)``.
    """
    if bits_per_prime < 4:
        raise BadParameter(f"bits_per_prime must be >= 4, got {bits_per_prime}")
    rng = rng or _default_rng
    p = gen_prime(bits_per_prime, rng)
    q = gen_prime(bits_per_prime, rng)
    while q == p:
        q = gen_prime(bits_per_prime, rng)
    n = p * q
    lo = ceil_sqrt(n)
    while True:
        g = rng.randrange(lo, n + 1)
        if math.gcd(g, n) == 1:
            break
    m, m_chain = proved_prime_above(n, rng)
    params = PublicParams(g=g, n=n, m=m, width=codec.mask_width(m), m_chain=m_chain)
    return params, DealerState(p=p, q=q)


def enroll(board: Board, pid: str, ps: int) -> None:
    """Publish ``pid``'s pseudo-share ``ps`` on the board's roster, the one way
    onto a roster. Changing nothing, it raises BadParameter unless the entry
    keeps the reader's rule (``Board.check_entry``), and DuplicateParticipant
    if ``pid`` is enrolled or ``ps`` is another member's: equal masks cancel."""
    board.check_entry(pid, ps, BadParameter)
    if pid in board.roster:
        raise DuplicateParticipant(f"{pid} is already enrolled")
    for other, held in board.roster.items():
        if held == ps:
            raise DuplicateParticipant(f"the pseudo-share drawn for {pid} is {other}'s")
    board.roster[pid] = ps


def _pow_n(dealer: DealerState, x: int, e: int) -> int:
    """pow(x, e, n) for any x >= 0 and e >= 1, computed mod p and mod q.

    Reducing e mod p-1 is Fermat's little theorem for x prime to p; the
    reduced exponent is taken in 1..p-1, never 0, so x = 0 mod p still
    gives 0. Garner's formula lifts the two residues to the one value
    below n = p*q.
    """
    p, q = dealer.p, dealer.q
    xp = powmod(x % p, (e - 1) % (p - 1) + 1, p)
    xq = powmod(x % q, (e - 1) % (q - 1) + 1, q)
    return xq + q * ((xp - xq) * dealer.q_inv % p)


def _draw_h0(dealer: DealerState, board: Board, rng) -> tuple[int, int, int]:
    """Draw the short public exponent h0 and derive s0 = h0**-1 mod phi(n).

    h0 is drawn from [3, min(2**H0_BITS, phi(n))) until it is a unit mod
    phi(n) (so odd), differs from the h0 of every package on the board
    (a shared h0 is a shared s0, and a renew that kept its h0 would keep
    every mask), and gives ps0 = g**s0 other than g (else s0 = 1 modulo the
    order of g, and every mask ps_k**s0 would be the roster value ps_k).
    Returns (h0, s0, ps0); s0 stays full width and secret.
    """
    phi, g = dealer.phi, board.params.g
    bound = min(1 << H0_BITS, phi)
    taken = {pkg.h0 for pkg in board.packages.values()}

    def s0_ps0_of(h0: int) -> tuple[int, int] | None:
        if h0 in taken or math.gcd(h0, phi) != 1:
            return None
        s0 = pow(h0, -1, phi)
        ps0 = _pow_n(dealer, g, s0)
        return None if ps0 == g else (s0, ps0)

    # a toy phi(n) has few units: refuse once all are used, not draw forever
    if bound <= 1 << 16 and all(s0_ps0_of(h0) is None for h0 in range(3, bound)):
        raise BadParameter(f"every h0 below phi(n) = {phi} is used; n is too small for more")
    while True:
        h0 = rng.randrange(3, bound)
        drawn = s0_ps0_of(h0)
        if drawn is not None:
            return (h0, *drawn)


def _sample_d(count: int, m: int, rng, exclude: Iterable[int] = ()) -> list[int]:
    taken = set(exclude)
    left = m - 2 - len(taken)
    if count > left:  # a toy m has few abscissas: refuse, not draw forever
        raise BadParameter(f"m = {m} is too small: {left} d left in [2, m - 1], {count} needed")
    out: list[int] = []
    while len(out) < count:
        d = rng.randrange(2, m)
        if d not in taken:
            taken.add(d)
            out.append(d)
    return out


def _check_enrolled(members: Iterable[str], roster: Mapping[str, int]) -> None:
    for pid in sorted(members):
        if pid not in roster:
            raise UnknownParticipant(f"{pid} is not enrolled")


def _entries(
    dealer: DealerState,
    board: Board,
    s0: int,
    secret: int,
    slope: int,
    sets,
    ds: Sequence[int],
) -> tuple[PackageEntry, ...]:
    """The public entry of each qualified set at its abscissa d: f(d) XORed
    with every member's mask ps_k**s0 mod n, and the tag binding (secret, d).

    Each member's mask is computed once, however many of the sets hold them.
    """
    params, roster = board.params, board.roster
    masks = {pid: _pow_n(dealer, roster[pid], s0) for pid in frozenset().union(*sets)}
    return tuple(
        PackageEntry(
            members=members,
            d=d,
            masked=codec.xor_combine(
                line_at(secret, slope, d, params.m), [masks[pid] for pid in members], params.width
            ),
            tag=codec.tag(secret, d, params.width),
        )
        for members, d in zip(sets, ds)
    )


def _publish(
    dealer: DealerState,
    board: Board,
    secret_id: str,
    secret: int,
    sets: Iterable[Iterable[str]],
    rng,
) -> SecretPackage:
    """Build a complete package under fresh randomness and store it and
    the secret under ``secret_id``. Shared by share_secret, renew_secret,
    and remove_participant; ``validate_minimal`` checks the sets first."""
    m = board.params.m
    structure = validate_minimal(sets)
    if secret < 0:
        raise BadParameter(f"secret must be non-negative, got {secret}")
    if secret >= m:
        raise SecretTooLarge(f"secret must be below m = {m}, got {secret}")
    for members in structure:
        _check_enrolled(members, board.roster)
    h0, s0, ps0 = _draw_h0(dealer, board, rng)
    slope = rng.randrange(1, m)
    ds = _sample_d(len(structure), m, rng)
    entries = _entries(dealer, board, s0, secret, slope, structure, ds)
    f1 = line_at(secret, slope, 1, m)
    package = SecretPackage(secret_id=secret_id, ps0=ps0, h0=h0, f1=f1, entries=entries)
    dealer.secrets[secret_id] = secret
    board.packages[secret_id] = package
    return package


def share_secret(
    dealer: DealerState,
    board: Board,
    secret: int,
    structure: Iterable[Iterable[str]],
    rng: random.Random | None = None,
) -> SecretPackage:
    """Publish a new secret under the access structure given by its minimal
    qualified sets, which must form an antichain (``validate_minimal``).

    Draws a fresh short exponent h0 (see ``_draw_h0``) and derives s0 =
    h0**-1 mod phi(n) from it, then a fresh slope and one fresh abscissa per
    qualified set; every member's mask is ps_k**s0 mod n.
    The returned package carries the next secret id, s<k+1> after k
    published secrets.
    """
    rng = rng or _default_rng
    return _publish(dealer, board, f"s{len(board.packages) + 1}", secret, structure, rng)


def renew_secret(
    dealer: DealerState,
    board: Board,
    secret_id: str,
    new_secret: int,
    rng: random.Random | None = None,
) -> SecretPackage:
    """Re-share an existing secret id under its current structure.

    A full re-publication: fresh h0 (never the old one) and so fresh s0,
    slope, abscissas, masks and tags, even when the new secret equals the
    old one. Other packages are untouched.
    """
    rng = rng or _default_rng
    structure = board.package(secret_id).structure()
    return _publish(dealer, board, secret_id, new_secret, structure, rng)


def add_qualified_set(
    dealer: DealerState,
    board: Board,
    secret_id: str,
    new_set: Iterable[str],
    rng: random.Random | None = None,
) -> SecretPackage:
    """Grant one more qualified set access to an already-shared secret.

    Reuses the secret and the line and exponent read off the package, so
    existing entries stay valid: the slope is f1 - secret mod m, and
    h0**-1 mod phi(n) is exactly the s0 the dealer derived when it drew h0,
    so every mask ps_k**s0 comes out the same.
    Keeps the published structure a minimal antichain: a new set that
    contains an existing one is rejected as pointless, while existing sets
    that strictly contain the new one stop being minimal and are dropped.
    """
    rng = rng or _default_rng
    package = board.package(secret_id)
    members = frozenset(new_set)
    _check_enrolled(members, board.roster)
    entries = package.entries
    kept = tuple(e for e in entries if not members < e.members)
    validate_minimal([*(e.members for e in kept), members])
    m = board.params.m
    ds = _sample_d(1, m, rng, exclude={e.d for e in entries})
    secret = dealer.secrets[secret_id]
    slope = (package.f1 - secret) % m
    s0 = pow(package.h0, -1, dealer.phi)
    added = _entries(dealer, board, s0, secret, slope, [members], ds)
    board.packages[secret_id] = package._replace(entries=kept + added)
    return board.packages[secret_id]


def remove_qualified_set(board: Board, secret_id: str, set_index: int) -> SecretPackage:
    """Revoke one qualified set by deleting its public entry (1-based index)."""
    package = board.package(secret_id)
    package.entry(set_index)  # IndexOutOfRange unless 1 <= set_index <= t
    entries = package.entries
    if len(entries) == 1:
        raise LastEntry(f"{secret_id} must keep at least one qualified set")
    board.packages[secret_id] = package._replace(
        entries=entries[: set_index - 1] + entries[set_index:]
    )
    return board.packages[secret_id]


def remove_participant(
    dealer: DealerState,
    board: Board,
    pid: str,
    rng: random.Random | None = None,
) -> list[SecretPackage]:
    """Drop a participant entirely.

    Every qualified set naming them is deleted, every secret whose structure
    mentioned them is renewed with fresh randomness (the old masks would
    still be strippable by the leaver), and the board's roster shrinks in
    place.
    Returns the renewed packages; secrets that never mentioned the
    participant are left bit-identical.

    Raises StructureBecameEmpty, changing nothing, if some secret would
    lose its last qualified set; remove those secrets first.
    """
    rng = rng or _default_rng
    _check_enrolled([pid], board.roster)
    plans: dict[str, tuple[frozenset[str], ...]] = {}
    for sid, package in board.packages.items():
        sets = package.structure()
        if any(pid in members for members in sets):
            plans[sid] = tuple(members for members in sets if pid not in members)
    emptied = [sid for sid, kept in plans.items() if not kept]
    if emptied:
        raise StructureBecameEmpty(emptied)
    del board.roster[pid]
    return [
        _publish(dealer, board, sid, dealer.secrets[sid], structure, rng)
        for sid, structure in plans.items()
    ]
