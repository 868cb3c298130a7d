"""Exception hierarchy.

Everything raised on purpose derives from MsssError so callers (and the
CLI exit-code table) can catch protocol failures without masking bugs.
"""


class MsssError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertible(MsssError):
    """Modular inverse requested for a value not coprime to the modulus."""


class EmptyStructure(MsssError):
    """An access structure needs at least one qualified set."""


class EmptySet(MsssError):
    """Qualified sets must contain at least one participant."""


class NotAntichain(MsssError):
    """One qualified set contains another, so the minimal-set form is invalid."""


class DegeneratePoints(MsssError):
    """Both interpolation points share an abscissa."""


class SecretTooLarge(MsssError):
    """The secret does not fit in the field Z_m."""


class UnknownParticipant(MsssError):
    """A referenced participant is not enrolled."""


class DuplicateParticipant(MsssError):
    """Participant id already present on the roster."""


class UnknownSecret(MsssError):
    """No published package under that secret id."""


class NoSuchSet(MsssError):
    """No qualified set of the package matches the named members exactly."""


class IndexOutOfRange(MsssError):
    """Set index outside 1..t for the package."""


class LastEntry(MsssError):
    """A package must keep at least one qualified set."""


class StructureBecameEmpty(MsssError):
    """Removing the participant would leave secrets with no qualified set."""

    def __init__(self, secret_ids):
        self.secret_ids = list(secret_ids)
        super().__init__(
            "removal would leave no qualified set for: " + ", ".join(self.secret_ids)
        )


class NotAMember(MsssError):
    """The key holder is not a member of the designated qualified set."""


class MissingContribution(MsssError):
    """Reconstruction needs one contribution from every member of the set."""


class ExtraContribution(MsssError):
    """A contribution from outside the designated set, or a duplicate."""


class BadContribution(MsssError):
    """Contributions failed the public check; names every cheater, sorted.

    ``pid`` is the first name, for callers that report one cheater.
    """

    def __init__(self, pids):
        self.pids = sorted(pids)
        self.pid = self.pids[0]
        super().__init__(f"contribution from {', '.join(self.pids)} failed verification")


class UnmaskOutOfField(MsssError):
    """Unmasked value is not a field element: corrupt public data or a wrong coalition."""


class MalformedDocument(MsssError):
    """Bulletin document failed to parse."""


class InvariantViolation(MsssError):
    """Bulletin document parsed but violates a protocol invariant."""

    def __init__(self, rule):
        self.rule = rule
        super().__init__(rule)


class BoardIOError(MsssError):
    """Reading or writing a protocol file failed."""
