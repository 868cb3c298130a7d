"""The public bulletin board, and the one strict file codec of the system.

The board is one canonical JSON document holding the system parameters,
the roster of pseudo-shares, and every secret package.

Document layout (fixed key order; maps keep insertion order; big integers
are lowercase hex with no leading zeros; tags are 64 hex chars):

    {
      "revision": 3,
      "params": {"g": "f", "n": "8f", "m": "95", "width": 1, "m_chain": []},
      "roster": {"A": "2d", "B": "73"},
      "packages": {
        "s1": {
          "ps0": "73", "h0": "67", "f1": "69",
          "entries": [
            {"members": ["A", "B"], "d": "7", "masked": "b8", "tag": "9266..."}
          ]
        }
      }
    }

``m_chain`` is the chain of primes, largest first, that proves m prime
(``numtheory.proves_prime``); an m below ``numtheory.TRIAL_LIMIT``, like the
toy 149 here, has an empty one. A board without the key predates the chain
and cannot be converted, as its m - 1 cannot be factored in general: run
``msss setup`` again.

Every h0 is odd, at least 3 and at most ``H0_BITS`` bits wide, and no two
packages share one; a board from before h0 was short fails the width bound
and cannot be converted either, as a new h0 means a new s0 and new masks:
run ``msss setup`` again.

Identical boards serialize byte-identically. ``load`` checks every public
invariant, so a tampered or hand-edited document either fails loudly here
or is caught later by the tag check; saving only serializes, as the system
writes no board that breaks one (see ``Board.validate``).

The private dealer state, participant key files and contribution files go
through the same codec, and every file is written atomically. Each record
(the document and its params, each package and entry, a dealer, key or
contribution file) is one type declared here beside one table of named
fields, which both reads and writes it: ``_obj`` writes the keys in table
order, and ``_fields`` reads exactly those keys, lowercase hex integers with
no leading zeros and exact JSON types, as the type's fields. A malformed
record raises MalformedDocument naming the field by its path, as in
``board.json packages s1 entries 1 d`` or ``dealer.json p``. Each package
lives on the board alone: the dealer file holds p, q, the secrets and one
SHA-256 per package (``_digest``), and ``load_dealer`` accepts it only for
the board it serves. The protocol roles (``dealer``, ``participant``,
``combiner``) import these records; this module imports none of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import codec
from .accessstruct import check_id, validate_minimal
from .errors import (
    BoardIOError, IndexOutOfRange, InvariantViolation, MalformedDocument, NotAntichain,
    UnknownSecret,
)
from .modexp import powmod
from .numtheory import ceil_sqrt, proves_prime

_HEX = re.compile(r"0|[1-9a-f][0-9a-f]*")
_TAG_HEX = re.compile(r"[0-9a-f]{64}")

# the widest public exponent h0 the dealer draws and a board may carry
H0_BITS = 128


def int_to_hex(value: int) -> str:
    return format(value, "x")


def hex_to_int(value, where: str) -> int:
    if not isinstance(value, str) or not _HEX.fullmatch(value):
        raise MalformedDocument(
            f"{where}: expected lowercase hex with no leading zeros, got {value!r}"
        )
    return int(value, 16)


class _Field(NamedTuple):
    """One key of a file record, both ways: ``read(value, where)`` turns its
    JSON value into the record's attribute ``attr`` (the key itself if empty)
    or raises MalformedDocument naming ``where``; ``write`` turns the
    attribute back (the identity by default). A record that lacks the key
    fails with the ``missing`` note, if any: its file predates the key."""

    read: Callable
    write: Callable = lambda value: value
    attr: str = ""
    missing: str = ""


def _fields(obj, where: str, table: dict[str, _Field]) -> dict:
    """The attributes of one file record: ``obj`` must have exactly the keys
    of ``table``, and each value is read as ``read(value, f"{where} {key}")``."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where}: expected an object")
    if obj.keys() != table.keys():
        missing = [k for k in table if k not in obj]
        for key in missing:
            if table[key].missing:
                raise MalformedDocument(f"{where}: no {key}, {table[key].missing}")
        extra = [k for k in obj if k not in table]
        raise MalformedDocument(f"{where}: missing keys {missing}, unexpected keys {extra}")
    return {f.attr or key: f.read(obj[key], f"{where} {key}") for key, f in table.items()}


def _obj(table: dict[str, _Field], value) -> dict:
    """The JSON object of one record, keys in ``table`` order: the reverse of ``_fields``."""
    return {key: f.write(getattr(value, f.attr or key)) for key, f in table.items()}


def _require_int(value, where: str) -> int:
    # exact type: JSON true and 1.9 are not integers here
    if type(value) is not int:
        raise MalformedDocument(f"{where} must be an integer")
    return value


def _require_id(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise MalformedDocument(f"{where} must be a non-empty string")
    return value


def _require_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedDocument(f"{where} must be an object")
    return value


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise MalformedDocument(f"{where} must be a list")
    return value


def _members(value, where: str) -> frozenset[str]:
    if not (
        isinstance(value, list) and value and all(isinstance(pid, str) and pid for pid in value)
    ):
        raise MalformedDocument(f"{where} must be a non-empty list of ids")
    if len(set(value)) != len(value):
        raise MalformedDocument(f"{where}: duplicate member ids")
    return frozenset(value)


def _tag(value, where: str) -> bytes:
    if not isinstance(value, str) or not _TAG_HEX.fullmatch(value):
        raise MalformedDocument(f"{where} must be 64 lowercase hex chars")
    return bytes.fromhex(value)


def _chain(value, where: str) -> tuple[int, ...]:
    links = _require_list(value, where)
    return tuple(hex_to_int(link, f"{where} link {i}") for i, link in enumerate(links, 1))


def _map_of(field: _Field, **options) -> _Field:
    """An object of ``field`` values: the roster, or the dealer's secrets or digests."""

    def read(value, where: str) -> dict:
        return {k: field.read(raw, f"{where} {k}") for k, raw in _require_map(value, where).items()}

    return _Field(read, lambda values: {k: field.write(v) for k, v in values.items()}, **options)


# The seven records, each type declared beside its table, keys in file order:
# the params, each entry and package, the document (a board), and the dealer,
# key and contribution files.
_BIG = _Field(hex_to_int, int_to_hex)
_INT = _Field(_require_int)
_ID = _Field(_require_id)
_TAG = _Field(_tag, bytes.hex)
_HEX_MAP = _map_of(_BIG)
_CHAIN = _Field(
    _chain, lambda links: [int_to_hex(link) for link in links],
    missing="the chain that proves m prime: the board predates it and cannot be converted;"
    " run `msss setup` again",
)


class PublicParams(NamedTuple):
    """The published triple (g, n, m) plus the derived byte width for masks
    and the chain (N1, ..., Nk), largest first, that proves m prime (see
    ``numtheory.proves_prime``)."""

    g: int
    n: int
    m: int
    width: int
    m_chain: tuple[int, ...]

    def is_unit(self, value: int) -> bool:
        return 0 <= value < self.n and math.gcd(value, self.n) == 1


_PARAMS = {"g": _BIG, "n": _BIG, "m": _BIG, "width": _INT, "m_chain": _CHAIN}


def _params(value, where: str) -> PublicParams:
    return PublicParams(**_fields(value, where, _PARAMS))


class PackageEntry(NamedTuple):
    """Public data letting one qualified set recover the secret.

    ``masked`` is f(d) XORed with every member's mask ps_k**s0 mod n; only
    the members can strip those masks. ``tag`` binds (secret, d) so the
    recovered value can be checked by anyone.
    """

    members: frozenset[str]
    d: int
    masked: int
    tag: bytes


_ENTRY = {"members": _Field(_members, sorted), "d": _BIG, "masked": _BIG, "tag": _TAG}


def _entries(value, where: str) -> tuple[PackageEntry, ...]:
    return tuple(
        PackageEntry(**_fields(raw, f"{where} {k}", _ENTRY))
        for k, raw in enumerate(_require_list(value, where), 1)
    )


class SecretPackage(NamedTuple):
    """Everything the bulletin publishes for one shared secret."""

    secret_id: str
    ps0: int  # g**s0 mod n
    h0: int  # short, odd, 3 <= h0 < 2**H0_BITS; the exponent for contribution checks
    f1: int  # f(1), the public point of the sharing line
    entries: tuple[PackageEntry, ...]

    def entry(self, set_index: int) -> PackageEntry:
        """1-based accessor, matching the published numbering of the sets."""
        if not 1 <= set_index <= len(self.entries):
            raise IndexOutOfRange(
                f"set index {set_index} outside 1..{len(self.entries)} for {self.secret_id}"
            )
        return self.entries[set_index - 1]

    def structure(self) -> tuple[frozenset[str], ...]:
        return tuple(e.members for e in self.entries)


# the secret id is the package's key in the document, not one of its fields
_PACKAGE = {
    "ps0": _BIG, "h0": _BIG, "f1": _BIG,
    "entries": _Field(_entries, lambda entries: [_obj(_ENTRY, e) for e in entries]),
}


def _packages(value, where: str) -> dict[str, SecretPackage]:
    return {
        sid: SecretPackage(sid, **_fields(obj, f"{where} {sid}", _PACKAGE))
        for sid, obj in _require_map(value, where).items()
    }


def package_to_obj(pkg: SecretPackage) -> dict:
    return _obj(_PACKAGE, pkg)


def _digest(pkg: SecretPackage) -> bytes:
    """SHA-256 of the package's record as the board writes it, serialized
    on its own: the dealer file's one check on each package of the board."""
    return hashlib.sha256(_dump(package_to_obj(pkg)).encode()).digest()


class Board:
    """In-memory image of the bulletin. The dealer, through ``dealer.enroll``
    and its other operations, is the only writer; the revision counter goes
    up by one on every published change."""

    def __init__(
        self,
        params: PublicParams,
        roster: dict[str, int] | None = None,
        packages: dict[str, SecretPackage] | None = None,
        revision: int = 0,
    ):
        self.params = params
        self.roster = {} if roster is None else roster
        self.packages = {} if packages is None else packages
        self.revision = revision

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def package(self, secret_id: str) -> SecretPackage:
        """The package of ``secret_id``: the one lookup of a secret."""
        try:
            return self.packages[secret_id]
        except KeyError:
            raise UnknownSecret(f"no secret {secret_id!r} on the board") from None

    def check_entry(self, pid, ps: int, error: type[Exception]) -> None:
        """The one rule for a roster entry: raise ``error`` unless ``pid`` is a
        participant id (``accessstruct.check_id``) and ``ps`` a reduced unit mod n."""
        check_id(pid, error)
        if not self.params.is_unit(ps):
            raise error(f"pseudo-share of {pid} is not a reduced unit mod n")

    def validate(self) -> None:
        """Check a board read from outside; raises InvariantViolation. A board
        that ``dealer.setup`` built or a dealer operation changed keeps every
        invariant, so only ``load`` and ``from_document`` call this."""
        p = self.params
        # h0 first, before any pow: a wide h0 would make the ps0^h0 check
        # slow, and two packages with one h0 share s0, so the x values
        # released for one would strip the masks of the other
        owner = {}
        for sid, pkg in self.packages.items():
            if pkg.h0.bit_length() > H0_BITS:
                raise InvariantViolation(
                    f"{sid}: h0 has {pkg.h0.bit_length()} bits, over {H0_BITS}: a board"
                    " with full-width h0 predates short exponents; run `msss setup` again"
                )
            if pkg.h0 < 3 or pkg.h0 % 2 == 0:
                raise InvariantViolation(f"{sid}: h0 is not odd and at least 3")
            if pkg.h0 in owner:
                raise InvariantViolation(f"{sid}: h0 is also the h0 of {owner[pkg.h0]}")
            owner[pkg.h0] = sid
        if p.n < 4:
            raise InvariantViolation("n too small to be a product of two primes")
        if p.m <= p.n:
            raise InvariantViolation("m not larger than n")
        if not proves_prime(p.m, p.m_chain):
            raise InvariantViolation("m not proved prime by its chain")
        if p.width != codec.mask_width(p.m):
            raise InvariantViolation("width does not match m")
        if not ceil_sqrt(p.n) <= p.g <= p.n:
            raise InvariantViolation("g outside [sqrt(n), n]")
        if math.gcd(p.g, p.n) != 1:
            raise InvariantViolation("g shares a factor with n")
        if self.revision < 0:
            raise InvariantViolation("negative revision")
        # two members with one pseudo-share have equal masks, which cancel in
        # the XOR of any set that holds both
        holder = {}
        for pid, ps in self.roster.items():
            self.check_entry(pid, ps, InvariantViolation)
            if ps in holder:
                raise InvariantViolation(f"{pid} holds the pseudo-share of {holder[ps]}")
            holder[ps] = pid
        for sid, pkg in self.packages.items():
            if not pkg.entries:
                raise InvariantViolation(f"{sid}: no qualified sets")
            if not p.is_unit(pkg.ps0):
                raise InvariantViolation(f"{sid}: ps0 is not a reduced unit mod n")
            if pkg.ps0 == p.g:
                # s0 = 1 modulo the order of g: every mask would be a roster value
                raise InvariantViolation(f"{sid}: ps0 is g, so every mask is public")
            # ps0 = g^s0 and h0 = s0^-1 mod phi(n): this identity is what lets an
            # honest contribution x = ps0^s pass x^h0 == g^s
            if powmod(pkg.ps0, pkg.h0, p.n, public=True) != p.g:
                raise InvariantViolation(f"{sid}: ps0^h0 is not g mod n")
            if not 0 <= pkg.f1 < p.m:
                raise InvariantViolation(f"{sid}: f1 not a field element")
            ds = [e.d for e in pkg.entries]
            if len(set(ds)) != len(ds):
                raise InvariantViolation(f"{sid}: duplicate d")
            for e in pkg.entries:
                if not 2 <= e.d < p.m:
                    raise InvariantViolation(f"{sid}: d {e.d} outside [2, m - 1]")
                if not 0 <= e.masked < 256**p.width:
                    raise InvariantViolation(f"{sid}: masked value wider than {p.width} bytes")
                for pid in e.members:
                    if pid not in self.roster:
                        raise InvariantViolation(f"{sid}: member {pid} is not on the roster")
            try:
                validate_minimal([e.members for e in pkg.entries])
            except NotAntichain as exc:
                raise InvariantViolation(f"{sid}: {exc}") from exc


_DOCUMENT = {
    "revision": _INT, "params": _Field(_params, lambda params: _obj(_PARAMS, params)),
    "roster": _HEX_MAP,
    "packages": _Field(
        _packages, lambda packages: {sid: package_to_obj(p) for sid, p in packages.items()}
    ),
}


class DealerState:
    """Private dealer state, never published: the factors of n and, by
    secret id s1, s2, ... in publishing order, each secret. Its packages
    live on the board alone. phi(n), s0 and the slope are derived, never
    stored. ``q_inv`` = q**-1 mod p, Garner's constant for ``dealer._pow_n``,
    is derived once here and never written to the dealer file."""

    def __init__(self, p: int, q: int, secrets: dict[str, int] | None = None):
        self.p = p
        self.q = q
        self.q_inv = pow(q, -1, p)
        self.secrets = {} if secrets is None else secrets

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    @property
    def phi(self) -> int:
        return (self.p - 1) * (self.q - 1)


_DEALER = {
    "p": _BIG, "q": _BIG, "secrets": _HEX_MAP,
    "digests": _map_of(
        _TAG, missing="the SHA-256 of each package: the file predates them and holds whole"
        " packages; replace them by their digests as the README says",
    ),
}


class ParticipantKey(NamedTuple):
    pid: str
    s: int  # private exponent; never leaves the participant
    ps: int  # public pseudo-share g**s mod n


_KEY = {"id": _ID._replace(attr="pid"), "s": _BIG, "ps": _BIG}


class Contribution(NamedTuple):
    """One member's public reconstruction value, bound to its session."""

    pid: str
    secret_id: str
    set_index: int
    x: int  # ps0**s mod n


_CONTRIBUTION = {"pid": _ID, "secret_id": _ID, "set_index": _INT, "x": _BIG}


def to_document(board: Board) -> str:
    """Canonical serialization, no checks; identical boards give identical bytes."""
    return _dump(_obj(_DOCUMENT, board))


def from_document(text: str) -> Board:
    """Parse a bulletin document and check all its invariants.

    Raises MalformedDocument for syntax or shape problems and
    InvariantViolation (naming the rule) for semantic ones. Its errors name
    the text ``document``; ``load`` names the file's path instead.
    """
    return _board(text, "document")


def _board(text: str, where: str) -> Board:
    board = Board(**_parse(text, where, _DOCUMENT))
    board.validate()
    return board


def save(board: Board, path) -> str:
    """Write the canonical document atomically, with no checks; returns it."""
    doc = to_document(board)
    _write(doc, path, 0o666)
    return doc


def load(path) -> Board:
    return _board(_read(path), os.fspath(path))


def save_dealer(state: DealerState, board: Board, path) -> None:
    """Write the private dealer state: n's factors, each secret, and the
    SHA-256 of each package of ``board`` as it writes it (``_digest``)."""
    digests = {sid: _digest(pkg) for sid, pkg in board.packages.items()}
    record = SimpleNamespace(p=state.p, q=state.q, secrets=state.secrets, digests=digests)
    _write(_dump(_obj(_DEALER, record)), path, 0o600)


def load_dealer(path, board: Board) -> DealerState:
    """The private dealer state of ``board``; the one reader of a dealer file.

    MalformedDocument unless the secrets and the digests are both named
    exactly s1 ... sk, then InvariantViolation unless p, q > 1 with p*q the
    board's n and gcd(p, q) = 1, every h0 is a unit mod phi(n), the board's
    packages are exactly those the digests name and hash to them, and each
    secret is below m and matches every tag of its package: publishing
    from any other file would sign under a wrong phi(n), derive no
    s0 = h0**-1 mod phi(n) for add-set, overwrite a package or build on a
    rolled-back one, or add an entry that no qualified set can open.
    """
    where = os.fspath(path)
    p, q, secrets, digests = _parse(_read(path), where, _DEALER).values()
    # share_secret numbers secrets s1, s2, ... and no operation drops one
    if not list(secrets) == list(digests) == [f"s{i}" for i in range(1, len(secrets) + 1)]:
        ids = f"secrets [{', '.join(secrets)}] and digests [{', '.join(digests)}]"
        raise MalformedDocument(f"{where} {ids} are not both s1 ... s<k>")
    if not (p > 1 and q > 1 and p * q == board.params.n):
        raise InvariantViolation(f"{where} is not the dealer file of this board: p*q is not n")
    if math.gcd(p, q) != 1:
        # n = p*p has phi(n) = p*(p-1), not (p-1)**2; a shared factor leaves no CRT split
        raise InvariantViolation(f"{where} has p = q or a factor common to p and q:"
                                 " n must have two distinct prime factors")
    state = DealerState(p, q, secrets)
    packages = board.packages
    for sid, pkg in packages.items():
        # ps0^h0 = g on the board does not make h0 the inverse of an s0
        if math.gcd(pkg.h0, state.phi) != 1:
            raise InvariantViolation(f"{where} {sid}: h0 is not a unit mod phi(n)")
    m, width = board.params.m, board.params.width
    diverged = [
        sid
        for sid in {**packages, **digests}
        if sid not in packages
        or digests.get(sid) != _digest(packages[sid])
        or secrets[sid] >= m
        or any(e.tag != codec.tag(secrets[sid], e.d, width) for e in packages[sid].entries)
    ]
    if diverged:
        raise InvariantViolation("dealer state and board disagree on " + ", ".join(diverged))
    return state


def save_key(key: ParticipantKey, path) -> None:
    _write(_dump(_obj(_KEY, key)), path, 0o600)


def load_key(path) -> ParticipantKey:
    return ParticipantKey(**_parse(_read(path), os.fspath(path), _KEY))


def save_contribution(c: Contribution, path) -> None:
    _write(_dump(_obj(_CONTRIBUTION, c)), path, 0o666)


def load_contribution(path) -> Contribution:
    return Contribution(**_parse(_read(path), os.fspath(path), _CONTRIBUTION))


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse(text: str, where: str, table: dict[str, _Field]) -> dict:
    """The attributes of a whole file (see ``_fields``)."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, an int past its digit limit, a repeated key
        raise MalformedDocument(f"{where}: not valid JSON: {exc}") from exc
    return _fields(obj, where, table)


def _unique_keys(pairs: list) -> dict:
    """One JSON object, whose keys must differ: ``json.loads`` alone keeps
    the last of two equal keys, so two readers could disagree on a file."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _write(text: str, path, mode: int) -> None:
    """Write durably and atomically: a new file of a random name beside ``path``
    is written, synced and renamed over it, then the directory is synced, so
    readers always see a complete file. The temp file goes on any failure.

    The new file is created with ``mode`` under the umask, and the rename
    gives ``path`` that mode: 0o600 for the private dealer and key files,
    whatever mode the file they replace had, and 0o666 for the public board
    and contribution files. Nothing changes a file's mode once it exists."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fd)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        raise BoardIOError(f"cannot write {path}: {exc}") from exc


def _read(path) -> str:
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise BoardIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: not UTF-8: {exc}") from exc
