"""Typed errors shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, defects found
in computed data exit 1, precondition/resource problems exit 3.
"""


class CosetLabError(Exception):
    """Base class for all structured errors raised by this package."""


class GroupMismatchError(CosetLabError):
    """Operands live in different groups (or have different degrees)."""


class UnsupportedGroupError(CosetLabError):
    """Operation is defined only for one family of groups."""


class CapExceededError(CosetLabError):
    """An enumeration or tensor-dimension cap would be exceeded."""


class ZeroRankError(CosetLabError):
    """A conditional distribution was requested on a rank-zero projector."""


class RepresentationDefectError(CosetLabError):
    """Matrices failed a homomorphism / unitarity / projector sanity check."""


class NonCharacterError(CosetLabError):
    """A claimed class function produced a non-integer inner product."""


class OutcomeMismatchError(CosetLabError):
    """Two distributions do not share the same outcome set."""


class BoundUndefinedError(CosetLabError):
    """A bound's hypothesis fails (e.g. the character gap lambda is >= 1)."""
