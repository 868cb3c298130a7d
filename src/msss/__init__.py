"""msss: multi-secret sharing over generalized monotone access structures.

Several secrets, each with its own family of qualified participant sets,
are shared through a public bulletin board. Participants pick their own
private exponents and publish only discrete-log pseudo-shares, so no
secure channel is needed, shares are reusable across secrets, every
contribution is publicly checkable during reconstruction, and the dealer
can renew secrets or reshape access structures without touching anyone's
private share.
"""

from .accessstruct import (
    ParticipantId,
    is_authorized,
    matching_set_index,
    validate_minimal,
)
from .bulletin import Board, from_document, load, save, to_document
from .codec import mask_width, tag, xor_combine
from .combiner import check_contributions, reconstruct, verify_contribution, verify_secret
from .dealer import (
    DealerState,
    PackageEntry,
    PublicParams,
    SecretPackage,
    add_qualified_set,
    remove_participant,
    remove_qualified_set,
    renew_secret,
    setup,
    share_secret,
)
from .errors import MsssError
from .participant import Contribution, ParticipantKey, contribute, keygen

__version__ = "0.1.0"

__all__ = [
    "Board",
    "Contribution",
    "DealerState",
    "MsssError",
    "PackageEntry",
    "ParticipantId",
    "ParticipantKey",
    "PublicParams",
    "SecretPackage",
    "SimulationConfig",
    "add_qualified_set",
    "check_contributions",
    "contribute",
    "from_document",
    "is_authorized",
    "keygen",
    "load",
    "mask_width",
    "matching_set_index",
    "reconstruct",
    "remove_participant",
    "remove_qualified_set",
    "renew_secret",
    "run_simulation",
    "save",
    "setup",
    "share_secret",
    "tag",
    "to_document",
    "validate_minimal",
    "verify_contribution",
    "verify_secret",
    "xor_combine",
]


def __getattr__(name):
    # only the simulate command and library users need msss.simulate, so no
    # other process pays for importing it
    if name in ("SimulationConfig", "run_simulation"):
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
