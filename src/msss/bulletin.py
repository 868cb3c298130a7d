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

Every h0 is odd, at least 3 and at most ``dealer.H0_BITS`` bits wide, and
no two packages share one; a board from before h0 was short fails the
width bound and cannot be converted either, as a new h0 means a new s0 and
new masks: run ``msss setup`` again.

Identical boards serialize byte-identically. ``load`` checks every public
invariant, so a tampered or hand-edited document either fails loudly here
or is caught later by the tag check; saving only serializes, as the system
writes no board that breaks one (see ``Board.validate``).

The private dealer state, participant key files and contribution files go
through the same writer and reader, in the same JSON style: every file is
written atomically, and every file read is checked for its exact key set,
lowercase hex integers with no leading zeros and exact JSON types, so a
malformed one raises MalformedDocument. ``load_dealer`` accepts a dealer file only for the board
it serves.
"""

from __future__ import annotations

import json
import math
import os
import re

from . import codec
from .accessstruct import validate_minimal
from .dealer import H0_BITS, DealerState, PackageEntry, PublicParams, SecretPackage
from .errors import (
    BoardIOError,
    EmptySet,
    EmptyStructure,
    InvariantViolation,
    MalformedDocument,
    NotAntichain,
)
from .modexp import powmod
from .numtheory import ceil_sqrt, proves_prime
from .participant import Contribution, ParticipantKey

_HEX = re.compile(r"0|[1-9a-f][0-9a-f]*")
_TAG_HEX = re.compile(r"[0-9a-f]{64}")


def int_to_hex(value: int) -> str:
    return format(value, "x")


def hex_to_int(value, where: str) -> int:
    if not isinstance(value, str) or not _HEX.fullmatch(value):
        raise MalformedDocument(
            f"{where}: expected lowercase hex with no leading zeros, got {value!r}"
        )
    return int(value, 16)


class Board:
    """In-memory image of the bulletin. The dealer is the only writer; the
    revision counter goes up by one on every published change."""

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

    def validate(self) -> None:
        """Check a board read from outside; raises InvariantViolation. A board
        built by ``dealer.setup``, ``enroll`` or a dealer operation on a loaded
        board keeps every invariant, so only ``from_document`` calls this."""
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
            if not isinstance(pid, str) or not pid:
                raise InvariantViolation("empty participant id on the roster")
            if not 0 <= ps < p.n or math.gcd(ps, p.n) != 1:
                raise InvariantViolation(f"pseudo-share of {pid} is not a reduced unit mod n")
            if ps in holder:
                raise InvariantViolation(f"{pid} holds the pseudo-share of {holder[ps]}")
            holder[ps] = pid
        for sid, pkg in self.packages.items():
            if pkg.secret_id != sid:
                raise InvariantViolation(f"package keyed {sid} carries id {pkg.secret_id}")
            if not pkg.entries:
                raise InvariantViolation(f"{sid}: no qualified sets")
            if not 0 <= pkg.ps0 < p.n or math.gcd(pkg.ps0, p.n) != 1:
                raise InvariantViolation(f"{sid}: ps0 is not a reduced unit mod n")
            if pkg.ps0 == p.g:
                # s0 = 1 modulo the order of g: every mask would be a roster value
                raise InvariantViolation(f"{sid}: ps0 is g, so every mask is public")
            # ps0 = g^s0 and h0 = s0^-1 mod phi(n): this identity is what lets an
            # honest contribution x = ps0^s pass x^h0 == g^s
            if powmod(pkg.ps0, pkg.h0, p.n) != p.g:
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
                if len(e.tag) != codec.TAG_BYTES:
                    raise InvariantViolation(f"{sid}: tag must be {codec.TAG_BYTES} bytes")
                for pid in e.members:
                    if pid not in self.roster:
                        raise InvariantViolation(f"{sid}: member {pid} is not on the roster")
            try:
                validate_minimal([e.members for e in pkg.entries])
            except (NotAntichain, EmptySet, EmptyStructure) as exc:
                raise InvariantViolation(f"{sid}: {exc}") from exc


def package_to_obj(pkg: SecretPackage) -> dict:
    return {
        "ps0": int_to_hex(pkg.ps0),
        "h0": int_to_hex(pkg.h0),
        "f1": int_to_hex(pkg.f1),
        "entries": [
            {
                "members": sorted(e.members),
                "d": int_to_hex(e.d),
                "masked": int_to_hex(e.masked),
                "tag": e.tag.hex(),
            }
            for e in pkg.entries
        ],
    }


def _require_keys(obj, keys, where: str) -> None:
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where}: expected an object")
    missing = [k for k in keys if k not in obj]
    extra = [k for k in obj if k not in keys]
    if missing or extra:
        raise MalformedDocument(f"{where}: missing keys {missing}, unexpected keys {extra}")


def _require_map(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedDocument(f"{where} must be an object")
    return value


def _require_int(value, where: str) -> int:
    # exact type: JSON true and 1.9 are not integers here
    if type(value) is not int:
        raise MalformedDocument(f"{where} must be an integer")
    return value


def _require_id(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise MalformedDocument(f"{where} must be a non-empty string")
    return value


def package_from_obj(secret_id: str, obj, where: str) -> SecretPackage:
    _require_keys(obj, ("ps0", "h0", "f1", "entries"), where)
    if not isinstance(obj["entries"], list):
        raise MalformedDocument(f"{where}: entries must be a list")
    entries = []
    for k, raw in enumerate(obj["entries"]):
        ewhere = f"{where} entry {k + 1}"
        _require_keys(raw, ("members", "d", "masked", "tag"), ewhere)
        members = raw["members"]
        if (
            not isinstance(members, list)
            or not members
            or not all(isinstance(pid, str) and pid for pid in members)
        ):
            raise MalformedDocument(f"{ewhere}: members must be a non-empty list of ids")
        if len(set(members)) != len(members):
            raise MalformedDocument(f"{ewhere}: duplicate member ids")
        tag_hex = raw["tag"]
        if not isinstance(tag_hex, str) or not _TAG_HEX.fullmatch(tag_hex):
            raise MalformedDocument(f"{ewhere}: tag must be 64 lowercase hex chars")
        entries.append(
            PackageEntry(
                members=frozenset(members),
                d=hex_to_int(raw["d"], f"{ewhere} d"),
                masked=hex_to_int(raw["masked"], f"{ewhere} masked"),
                tag=bytes.fromhex(tag_hex),
            )
        )
    return SecretPackage(
        secret_id=secret_id,
        ps0=hex_to_int(obj["ps0"], f"{where} ps0"),
        h0=hex_to_int(obj["h0"], f"{where} h0"),
        f1=hex_to_int(obj["f1"], f"{where} f1"),
        entries=tuple(entries),
    )


def packages_from_obj(value, prefix: str = "") -> dict[str, SecretPackage]:
    """The ``packages`` of a board or dealer file; ``prefix`` names the file."""
    return {
        sid: package_from_obj(sid, obj, f"{prefix}package {sid}")
        for sid, obj in _require_map(value, f"{prefix}packages").items()
    }


def to_document(board: Board) -> str:
    """Canonical serialization, no checks; identical boards give identical bytes."""
    obj = {
        "revision": board.revision,
        "params": {
            "g": int_to_hex(board.params.g),
            "n": int_to_hex(board.params.n),
            "m": int_to_hex(board.params.m),
            "width": board.params.width,
            "m_chain": [int_to_hex(link) for link in board.params.m_chain],
        },
        "roster": {pid: int_to_hex(ps) for pid, ps in board.roster.items()},
        "packages": {sid: package_to_obj(pkg) for sid, pkg in board.packages.items()},
    }
    return _dump(obj)


def from_document(text: str) -> Board:
    """Parse a bulletin document and check all its invariants.

    Raises MalformedDocument for syntax or shape problems and
    InvariantViolation (naming the rule) for semantic ones.
    """
    obj = _parse(text, ("revision", "params", "roster", "packages"), "document")
    revision = _require_int(obj["revision"], "revision")
    praw = obj["params"]
    if isinstance(praw, dict) and "m_chain" not in praw:
        raise MalformedDocument(
            "params: no m_chain, the chain that proves m prime: the board predates it"
            " and cannot be converted; run `msss setup` again"
        )
    _require_keys(praw, ("g", "n", "m", "width", "m_chain"), "params")
    if not isinstance(praw["m_chain"], list):
        raise MalformedDocument("params m_chain must be a list")
    params = PublicParams(
        g=hex_to_int(praw["g"], "params g"),
        n=hex_to_int(praw["n"], "params n"),
        m=hex_to_int(praw["m"], "params m"),
        width=_require_int(praw["width"], "params width"),
        m_chain=tuple(
            hex_to_int(link, f"params m_chain link {i}")
            for i, link in enumerate(praw["m_chain"], 1)
        ),
    )
    roster = {}
    for pid, raw in _require_map(obj["roster"], "roster").items():
        roster[pid] = hex_to_int(raw, f"roster {pid}")
    packages = packages_from_obj(obj["packages"])
    board = Board(params=params, roster=roster, packages=packages, revision=revision)
    board.validate()
    return board


def save(board: Board, path) -> str:
    """Write the canonical document atomically, with no checks; returns it."""
    doc = to_document(board)
    _write(doc, path)
    return doc


def load(path) -> Board:
    return from_document(_read(path))


def save_dealer(state: DealerState, path) -> None:
    """Write the private dealer state: the factors of n, each secret, and
    each package as the board publishes it."""
    obj = {
        "p": int_to_hex(state.p),
        "q": int_to_hex(state.q),
        "secrets": {sid: int_to_hex(secret) for sid, secret in state.secrets.items()},
        "packages": {sid: package_to_obj(pkg) for sid, pkg in state.packages.items()},
    }
    _write(_dump(obj), path)


def load_dealer(path, board: Board) -> DealerState:
    """The private dealer state of ``board``; the one reader of a dealer file.

    MalformedDocument unless the secrets and the packages are both named
    exactly s1 ... sk, then InvariantViolation unless p, q > 1 with p*q the
    board's n and p != q, every h0 is a unit mod phi(n), the packages are
    the board's, and each secret is below m and matches every tag of its
    package: publishing from any other file would sign under a wrong
    phi(n), derive no s0 = h0**-1 mod phi(n) for add-set, overwrite or roll
    back a package, or add an entry that no qualified set can open.
    """
    where = os.fspath(path)
    obj = _parse(_read(path), ("p", "q", "secrets", "packages"), where)
    secrets = {
        sid: hex_to_int(raw, f"{where} secret {sid}")
        for sid, raw in _require_map(obj["secrets"], f"{where} secrets").items()
    }
    packages = packages_from_obj(obj["packages"], f"{where} ")
    # share_secret numbers secrets s1, s2, ... and no operation drops one
    if not list(secrets) == list(packages) == [f"s{i}" for i in range(1, len(secrets) + 1)]:
        ids = f"secrets [{', '.join(secrets)}] and packages [{', '.join(packages)}]"
        raise MalformedDocument(f"{where} {ids} are not both s1 ... s<k>")
    p, q = hex_to_int(obj["p"], f"{where} p"), hex_to_int(obj["q"], f"{where} q")
    if not (p > 1 and q > 1 and p * q == board.params.n):
        raise InvariantViolation(f"{where} is not the dealer file of this board: p*q is not n")
    if p == q:
        # n = p*p has phi(n) = p*(p-1), not (p-1)**2, and no CRT split
        raise InvariantViolation(f"{where} has p = q: n must have two distinct prime factors")
    phi = (p - 1) * (q - 1)
    for sid, pkg in packages.items():
        # ps0^h0 = g on the board does not make h0 the inverse of an s0
        if math.gcd(pkg.h0, phi) != 1:
            raise InvariantViolation(f"{where} {sid}: h0 is not a unit mod phi(n)")
    m, width = board.params.m, board.params.width
    diverged = [
        sid
        for sid in {**board.packages, **packages}
        if board.packages.get(sid) != packages.get(sid)
        or secrets[sid] >= m
        or any(e.tag != codec.tag(secrets[sid], e.d, width) for e in packages[sid].entries)
    ]
    if diverged:
        raise InvariantViolation("dealer state and board disagree on " + ", ".join(diverged))
    return DealerState(p, q, secrets, packages)


def save_key(key: ParticipantKey, path) -> None:
    _write(_dump({"id": key.pid, "s": int_to_hex(key.s), "ps": int_to_hex(key.ps)}), path)


def load_key(path) -> ParticipantKey:
    where = os.fspath(path)
    obj = _parse(_read(path), ("id", "s", "ps"), where)
    return ParticipantKey(
        pid=_require_id(obj["id"], f"{where} id"),
        s=hex_to_int(obj["s"], f"{where} s"),
        ps=hex_to_int(obj["ps"], f"{where} ps"),
    )


def save_contribution(c: Contribution, path) -> None:
    obj = {"pid": c.pid, "secret_id": c.secret_id, "set_index": c.set_index, "x": int_to_hex(c.x)}
    _write(_dump(obj), path)


def load_contribution(path) -> Contribution:
    where = os.fspath(path)
    obj = _parse(_read(path), ("pid", "secret_id", "set_index", "x"), where)
    return Contribution(
        pid=_require_id(obj["pid"], f"{where} pid"),
        secret_id=_require_id(obj["secret_id"], f"{where} secret_id"),
        set_index=_require_int(obj["set_index"], f"{where} set_index"),
        x=hex_to_int(obj["x"], f"{where} x"),
    )


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _parse(text: str, keys, where: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{where}: not valid JSON: {exc}") from exc
    _require_keys(obj, keys, where)
    return obj


def _write(text: str, path) -> None:
    """Write atomically (temp file plus rename), so concurrent readers
    always see a complete file."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise BoardIOError(f"cannot write {path}: {exc}") from exc


def _read(path) -> str:
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise BoardIOError(f"cannot read {path}: {exc}") from exc
