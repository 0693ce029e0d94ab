"""Exception hierarchy.

Split by who is at fault: ``InputError`` covers bad user input and unmet
mathematical hypotheses (CLI exit code 2), ``InternalConsistencyError``
covers broken internal invariants that indicate a bug (exit code 1).
"""


class BpxError(Exception):
    pass


class InputError(BpxError):
    """Invalid input or an unmet hypothesis of a theorem; not a bug."""


class NotADiscriminantError(InputError):
    pass


class IneligiblePairError(InputError):
    """The class polynomial does not divide the supersingular polynomial."""


class CapabilityError(InputError):
    """A supported-range limit was exceeded (documented capability)."""


class ResourceLimitError(InputError):
    """The request would exceed the configured memory budget."""


class TruncationError(InputError):
    """A series was not supplied to sufficient order."""


class InternalConsistencyError(BpxError):
    """An internal invariant failed; indicates a bug, not bad input."""


class PrecisionError(InternalConsistencyError):
    """Floating-point verification failed at the precision chosen from the bound."""
