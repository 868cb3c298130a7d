"""Exception hierarchy.

Everything raised on purpose derives from MsssError so callers can catch
protocol failures without masking bugs. Each class carries the exit code
the CLI returns for it; success is 0, argparse usage errors are 2, and the
CLI's own 16 and 25 live in ``cli``. Codes 22 and 23 are retired and
not reused.
"""


class MsssError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class OutputExists(MsssError):
    """An output file already exists and --force was not given."""
    exit_code = 3


class EmptyStructure(MsssError):
    """An access structure needs at least one qualified set."""
    exit_code = 20


class EmptySet(MsssError):
    """Qualified sets must contain at least one participant."""
    exit_code = 21


class NotAntichain(MsssError):
    """One qualified set contains another, so the minimal-set form is invalid."""
    exit_code = 6


class SecretTooLarge(MsssError):
    """The secret does not fit in the field Z_m."""
    exit_code = 5


class UnknownParticipant(MsssError):
    """A referenced participant is not enrolled."""
    exit_code = 7


class DuplicateParticipant(MsssError):
    """Participant id already present on the roster."""
    exit_code = 4


class UnknownSecret(MsssError):
    """No published package under that secret id."""
    exit_code = 8


class NoSuchSet(MsssError):
    """No qualified set of the package matches the named members exactly."""
    exit_code = 26


class IndexOutOfRange(MsssError):
    """Set index outside 1..t for the package."""
    exit_code = 10


class LastEntry(MsssError):
    """A package must keep at least one qualified set."""
    exit_code = 11


class StructureBecameEmpty(MsssError):
    """Removing the participant would leave secrets with no qualified set."""
    exit_code = 12

    def __init__(self, secret_ids):
        self.secret_ids = list(secret_ids)
        super().__init__(
            "removal would leave no qualified set for: " + ", ".join(self.secret_ids)
        )


class NotAMember(MsssError):
    """The key holder is not a member of the designated qualified set."""
    exit_code = 9


class MissingContribution(MsssError):
    """Reconstruction needs one contribution from every member of the set."""
    exit_code = 13


class ExtraContribution(MsssError):
    """A contribution from outside the designated set, or a duplicate."""
    exit_code = 14


class BadContribution(MsssError):
    """Contributions failed the public check; names every cheater, sorted."""
    exit_code = 15

    def __init__(self, pids):
        self.pids = sorted(pids)
        super().__init__(f"contribution from {', '.join(self.pids)} failed verification")


class UnmaskOutOfField(MsssError):
    """Unmasked value is not a field element: corrupt public data or a wrong coalition."""
    exit_code = 17


class MalformedDocument(MsssError):
    """A protocol file failed to parse, or a dealer file's secrets and
    digests are not both named s1 ... sk."""
    exit_code = 18


class InvariantViolation(MsssError):
    """A board violates a protocol invariant, a dealer file is not this
    board's (p*q is not n, p = q, an h0 has no inverse mod phi(n), or its
    package digests or secrets do not match the board), or a key file's
    pseudo-share is not the board's."""
    exit_code = 19


class BoardIOError(MsssError):
    """Reading or writing a protocol file failed."""
    exit_code = 24
