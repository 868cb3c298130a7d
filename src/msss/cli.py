"""Operator command line: dealer operations, participant key handling, and
reconstruction sessions against a file-backed bulletin board.

Every failure mode maps to its own exit code (success is 0, argparse usage
errors are 2): each error class in ``errors`` carries its ``exit_code``.
Reports and protocol verdicts go to stdout, diagnostics to stderr.
Every file is read and written through the strict codec in ``bulletin``;
the dealer commands write both of theirs through ``_dealer_write``.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import random
import sys
import time

from . import bulletin, combiner, dealer, participant
from .accessstruct import matching_set_index
from .bulletin import Board, int_to_hex
from .errors import (
    BadContribution,
    BadParameter,
    BoardIOError,
    DuplicateParticipant,
    InvariantViolation,
    MsssError,
    NoSuchSet,
    OutputExists,
    TagMismatch,
    UnknownSecret,
)


def _parse_int(text: str) -> int:
    t = text.strip().lower().replace("_", "")
    try:
        return int(t[2:], 16) if t.startswith("0x") else int(t, 10)
    except ValueError:
        raise BadParameter(f"not an integer: {text!r}") from None


def _parse_members(text: str) -> frozenset[str]:
    """'A, B' -> {A, B}: the one member-list parser of --sets and --set."""
    return frozenset(pid.strip() for pid in text.split(",") if pid.strip())


def _parse_sets(text: str) -> list[frozenset[str]]:
    """'A,B|B,C' -> [{A, B}, {B, C}], not yet validated."""
    return [_parse_members(group) for group in text.split("|")]


def _rng(args):
    seed = getattr(args, "seed", None)
    return random.Random(seed) if seed is not None else random.SystemRandom()


def _refuse_existing(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise OutputExists(f"{path} already exists (use --force to replace it)")


@contextlib.contextmanager
def _board_lock(path: str):
    """Advisory exclusive lock serializing dealer writes to one board."""
    lock_path = os.fspath(path) + ".lock"
    try:
        fh = open(lock_path, "w")
    except OSError as exc:
        raise BoardIOError(f"cannot lock {lock_path}: {exc}") from exc
    with fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


@contextlib.contextmanager
def _dealer_write(args):
    """The one write path of the dealer commands.

    Under the board lock, loads the board and its dealer file (which
    ``bulletin.load_dealer`` refuses unless it serves this board, holds the
    digest of exactly its packages and secrets that match their tags) and
    yields (board, state) to the command, whose dealer operations change
    the board in place; once it returns, saves the board as the next
    revision, then the dealer file with the new digests. A command that
    raises writes nothing.
    """
    with _board_lock(args.board):
        board = bulletin.load(args.board)
        state = bulletin.load_dealer(args.dealer, board)
        yield board, state
        board.revision += 1
        bulletin.save(board, args.board)
        bulletin.save_dealer(state, board, args.dealer)


def _secret_value(args) -> int:
    if getattr(args, "secret_text", None) is not None:
        try:
            return int.from_bytes(args.secret_text.encode("utf-8"), "big")
        except UnicodeEncodeError:
            # an argv byte that is not UTF-8 arrives as a lone surrogate
            raise BadParameter("--secret-text is not valid UTF-8") from None
    return _parse_int(args.secret)


def _session(args) -> tuple[Board, dealer.SecretPackage, int]:
    """The board, the package of --secret-id and the index of --set."""
    board = bulletin.load(args.board)
    if args.secret_id not in board.packages:
        raise UnknownSecret(f"no secret {args.secret_id!r} on the board")
    package = board.packages[args.secret_id]
    members = _parse_members(args.set)
    j = matching_set_index(package.structure(), members)
    if j is None:
        raise NoSuchSet(
            f"no qualified set of {package.secret_id} is exactly "
            f"{{{', '.join(sorted(members))}}}"
        )
    return board, package, j


def cmd_setup(args) -> int:
    _refuse_existing(args.board, args.force)
    _refuse_existing(args.dealer, args.force)
    params, state = dealer.setup(args.bits, _rng(args))
    board = Board(params)
    with _board_lock(args.board):
        bulletin.save(board, args.board)
        bulletin.save_dealer(state, board, args.dealer)
    print(f"n = {params.n} ({params.n.bit_length()} bits)")
    print(f"m = {params.m} ({params.m.bit_length()} bits)")
    print(f"width = {params.width}")
    return 0


def cmd_enroll(args) -> int:
    if _parse_sets(args.id) != [{args.id}]:
        raise BadParameter(f"participant id {args.id!r} cannot be named in --sets")
    _refuse_existing(args.key_out, args.force)
    with _board_lock(args.board):
        board = bulletin.load(args.board)
        if args.id in board.roster:
            raise DuplicateParticipant(f"{args.id} is already enrolled")
        key = participant.keygen(board.params, args.id, _rng(args))
        # a repeated pseudo-share cancels its holders' masks (Board.validate)
        for pid, ps in board.roster.items():
            if ps == key.ps:
                raise DuplicateParticipant(f"the pseudo-share drawn for {args.id} is {pid}'s")
        bulletin.save_key(key, args.key_out)
        board.roster[key.pid] = key.ps
        board.revision += 1
        bulletin.save(board, args.board)
    print(f"enrolled {key.pid}: ps = {int_to_hex(key.ps)}")
    return 0


def cmd_share(args) -> int:
    secret = _secret_value(args)
    with _dealer_write(args) as (board, state):
        pkg = dealer.share_secret(state, board, secret, _parse_sets(args.sets), _rng(args))
    print(pkg.secret_id)
    return 0


def cmd_contribute(args) -> int:
    _refuse_existing(args.out, args.force)
    board, pkg, j = _session(args)
    key = bulletin.load_key(args.key)
    c = participant.contribute(board.params, key, pkg, j)
    # a roster value that is not this key's would get its holder blamed; the
    # board guarantees ps0^h0 = g, so x passing the public check is g^s = ps
    if not (
        board.roster[key.pid] == key.ps
        and combiner.verify_contribution(board.params, pkg, key.ps, c)
    ):
        raise InvariantViolation(f"the board's pseudo-share of {key.pid} is not this key's")
    bulletin.save_contribution(c, args.out)
    print(c.x)
    return 0


def cmd_reconstruct(args) -> int:
    board, pkg, j = _session(args)
    contributions = [bulletin.load_contribution(path) for path in args.contribution]
    recovered = combiner.reconstruct(board.params, pkg, j, contributions, board.roster)
    print(recovered)
    if combiner.verify_secret(pkg, j, recovered, board.params.width):
        print("tag: ok")
        return 0
    print("tag: mismatch")
    return TagMismatch.exit_code


def cmd_verify(args) -> int:
    board, pkg, j = _session(args)
    contributions = [bulletin.load_contribution(path) for path in args.contribution]
    verdicts = combiner.check_contributions(board.params, pkg, j, contributions, board.roster)
    for c, honest in zip(contributions, verdicts):
        print(f"{'ok' if honest else 'cheater'}: {c.pid}")
    return 0 if all(verdicts) else BadContribution.exit_code


def cmd_update(args) -> int:
    with _dealer_write(args) as (board, state):
        rng = _rng(args)
        if args.action == "renew":
            secret = _secret_value(args)
            renewed = [dealer.renew_secret(state, board, args.secret_id, secret, rng)]
        elif args.action == "add-set":
            members = _parse_members(args.set)
            dealer.add_qualified_set(state, board, args.secret_id, members, rng)
        elif args.action == "remove-set":
            dealer.remove_qualified_set(board, args.secret_id, args.index)
        else:  # remove-participant
            renewed = dealer.remove_participant(state, board, args.id, rng)
    if args.action in ("renew", "remove-participant"):
        print("renewed: " + (", ".join(pkg.secret_id for pkg in renewed) or "(none)"))
    else:
        print(f"updated: {args.secret_id}")
    return 0


def cmd_simulate(args) -> int:
    from .simulate import SimulationConfig, run_simulation

    config = SimulationConfig(**{name: getattr(args, name) for name in SimulationConfig._fields})
    started = time.monotonic()
    report = run_simulation(config)
    elapsed = time.monotonic() - started
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(
        f"{report['summary']['sessions']} sessions, "
        f"{report['summary']['unauthorized_probes']} probes in {elapsed * 1000:.0f} ms",
        file=sys.stderr,
    )
    return 0


# Every option that more than one command takes, declared once with its help.
_SHARED = {
    "--board": {"required": True, "help": "path of the public board file"},
    "--dealer": {"required": True, "help": "path of the private dealer state file"},
    "--seed": {"type": int, "help": "deterministic randomness (testing)"},
    "--force": {"action": "store_true", "help": "replace existing output files"},
    "--id": {"required": True, "help": "participant id"},
    "--secret-id": {"required": True, "help": "id of a secret on the board, e.g. s1"},
    "--set": {"required": True, "help": "members of one qualified set, e.g. 'A,B'"},
    "--contribution": {
        "action": "append", "required": True, "help": "contribution file, once per member"
    },
    "--secret": {"help": "secret value, decimal or 0x-hex"},
    "--secret-text": {"help": "secret as text, encoded big-endian"},
}


def _shared(parser, *flags) -> None:
    """Add the named ``_SHARED`` options; "--secret" adds the group of
    --secret and --secret-text, exactly one of which is required."""
    for flag in flags:
        if flag == "--secret":
            group = parser.add_mutually_exclusive_group(required=True)
            for name in ("--secret", "--secret-text"):
                group.add_argument(name, **_SHARED[name])
        else:
            parser.add_argument(flag, **_SHARED[flag])


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The msss parser. It names every command, but given a command only
    that command gets its options, which is all it takes to parse a
    command line that starts with it."""
    parser = argparse.ArgumentParser(
        prog="msss",
        description="Multi-secret sharing over generalized access structures "
        "with a file-backed public bulletin board.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func):
        """The subparser of name, or None if only another command is built."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p if command in (None, name) else None

    if p := add("setup", "generate parameters and an empty board", cmd_setup):
        p.add_argument("--bits", type=int, default=512, help="bits per prime factor of n")
        _shared(p, "--board", "--dealer", "--seed", "--force")

    if p := add("enroll", "create a participant key and register it", cmd_enroll):
        _shared(p, "--id", "--board")
        p.add_argument("--key-out", required=True, help="path for the private key file")
        _shared(p, "--seed", "--force")

    if p := add("share", "publish a new secret", cmd_share):
        _shared(p, "--secret")
        p.add_argument("--sets", required=True, help="qualified sets, e.g. 'A,B|B,C'")
        _shared(p, "--board", "--dealer", "--seed")

    if p := add("contribute", "compute one member's reconstruction value", cmd_contribute):
        _shared(p, "--board")
        p.add_argument("--key", required=True, help="participant key file")
        _shared(p, "--secret-id", "--set")
        p.add_argument("--out", required=True, help="path for the contribution file")
        _shared(p, "--force")

    if p := add("reconstruct", "recover a secret from contribution files", cmd_reconstruct):
        _shared(p, "--board", "--secret-id", "--set", "--contribution")

    if p := add("verify", "check contribution files without reconstructing", cmd_verify):
        _shared(p, "--board", "--secret-id", "--set", "--contribution")

    if p := add("update", "dynamic updates to published secrets", cmd_update):
        usub = p.add_subparsers(dest="action", required=True)

        u = usub.add_parser("renew", help="re-share a secret id with a fresh value")
        _shared(u, "--board", "--dealer", "--secret-id", "--secret", "--seed")

        u = usub.add_parser("add-set", help="grant access to one more qualified set")
        _shared(u, "--board", "--dealer", "--secret-id", "--set", "--seed")

        u = usub.add_parser("remove-set", help="revoke one qualified set")
        _shared(u, "--board", "--dealer", "--secret-id")
        u.add_argument("--index", type=int, required=True, help="1-based set index")

        u = usub.add_parser("remove-participant",
                            help="drop a participant and renew their secrets")
        _shared(u, "--board", "--dealer", "--id", "--seed")

    # dest names are the SimulationConfig fields that cmd_simulate fills
    if p := add("simulate", "run an in-memory deployment and print a JSON report", cmd_simulate):
        p.add_argument("--participants", type=int, required=True)
        p.add_argument("--secrets", type=int, required=True)
        p.add_argument("--bits", type=int, default=16, dest="bits_per_prime", metavar="BITS",
                       help="bits per prime factor")
        p.add_argument("--max-sets", type=int, default=4, dest="max_minimal_sets",
                       metavar="MAX_SETS")
        p.add_argument("--max-set-size", type=int, default=4)
        p.add_argument("--cheaters", type=int, default=0, dest="cheaters_per_session",
                       metavar="CHEATERS", help="cheaters injected per session")
        p.add_argument("--probes", type=int, default=2, dest="unauthorized_probes",
                       metavar="PROBES", help="non-covering coalitions per secret")
        _shared(p, "--seed")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first word; the top-level parser, which names
    # every command, answers a first word that is none of them by itself
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except BadContribution as exc:
        for pid in exc.pids:
            print(f"cheater: {pid}")
        return exc.exit_code
    except MsssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
