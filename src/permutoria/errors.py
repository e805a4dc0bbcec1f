"""Exception types shared across the package."""


class PermutoriaError(Exception):
    """Base class for all package-specific errors."""


class LimitExceeded(PermutoriaError):
    """A requested size is beyond the configured enumeration caps."""


class UnknownSuite(PermutoriaError):
    """No verification suite has the requested name."""


class ZeroObject(PermutoriaError):
    """The zero partial permutation has no parent."""


class InvalidWalk(PermutoriaError):
    """A walk does not describe a path in the given generating graph."""


class NonUnitDivisor(PermutoriaError):
    """Series division attempted by a series with zero constant term."""


class NotATableau(PermutoriaError):
    """A filling violates the row/column conditions."""


class NotDominant(PermutoriaError):
    """No companion of the requested shape exists."""


class NotInnerCorner(PermutoriaError):
    """The chosen cell is not a removable corner of the inner shape."""


class ShapeMismatch(PermutoriaError):
    """Two tableaux do not fit together as required."""


class NotPartitionShaped(PermutoriaError):
    """The operation is only defined for partition-shaped tableaux."""


class NotLR(PermutoriaError):
    """The tableau orientation flag does not match its content."""


class CanonicalAssertFailed(PermutoriaError):
    """An internal switching step did not produce the expected canonical tableau."""


class NotAlternating(PermutoriaError):
    """The tableau or word is not alternating."""


class TooManyColumns(PermutoriaError):
    """The tableau has more than three columns."""


class NotYamanouchi(PermutoriaError):
    """The word is not a Yamanouchi word."""


class NotAvoider(PermutoriaError):
    """The permutation does not avoid the required pattern."""


class NotInDomain(PermutoriaError):
    """The input is outside the domain of the bijection."""


class NoPlacement(PermutoriaError):
    """No monotone rook placement exists for the requested rows and columns."""
