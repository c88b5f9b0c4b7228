"""Exception hierarchy shared across the package.

Every domain error derives from ThresholdWalkError so callers (and the CLI)
can distinguish bad input from genuine bugs.  The class name is the stable,
machine-readable error identifier.
"""


class ThresholdWalkError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyInput(ThresholdWalkError):
    """A construction code was requested from empty or blank text."""


class IllegalCharacter(ThresholdWalkError):
    """Code text contains something other than 0/1 runs."""


class LeadingOne(ThresholdWalkError):
    """The first code symbol must be 0; codes starting with 1 are rejected, not rewritten."""


class OrderTooSmall(ThresholdWalkError):
    """The operation needs more vertices than the given order provides."""


class OrderOutOfRange(ThresholdWalkError):
    """An order outside a supported range."""


class ParameterOutOfRange(ThresholdWalkError):
    """A numeric parameter violates its documented bounds."""


class LengthMismatch(ThresholdWalkError):
    """Two codes that must share a length do not."""


class Disconnected(ThresholdWalkError):
    """The operation is only defined for connected graphs (code ending in 1)."""


class IndexOutOfRange(ThresholdWalkError):
    """A vertex or enumeration index is outside 1..n (or 0..count-1)."""


class CheckpointMismatch(ThresholdWalkError, ValueError):
    """A search checkpoint belongs to another search (order or range size) or holds a malformed record."""


class NonIntegralEntry(ThresholdWalkError):
    """An entry that must be an exact integer is not; signals an internal inconsistency."""


class TooLarge(ThresholdWalkError):
    """Exhaustive enumeration was requested beyond its combinatorial cap."""


class SameVertex(ThresholdWalkError):
    """Two vertex arguments that must differ are equal."""


class EigensolveFailure(ThresholdWalkError):
    """The numeric eigensolver did not converge."""


class SingularSolve(ThresholdWalkError):
    """A linear solve failed or left an unacceptable residual."""
