"""Exception types shared across the package."""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(AlgebraError):
    """A structure failed an axiom check at construction time.

    ``witness`` holds the first offending index tuple in scan order.
    """

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class NotAbelianGroup(ValidationError):
    """Addition table is not a commutative group."""


class NotAssociative(ValidationError):
    """An operation table fails associativity."""


class NoIdentity(ValidationError):
    """The claimed identity element does not act as one."""


class NotDistributive(ValidationError):
    """Multiplication fails distributivity over addition."""


class NoInverse(ValidationError):
    """Some element has no inverse for the group operation."""


class UnknownName(AlgebraError):
    """Lookup of a built-in ring or group by an unregistered name."""


class ContextMismatch(AlgebraError):
    """Mixed elements from two different group-ring contexts."""


class InvalidExponent(AlgebraError, ValueError):
    """A search degree that is not an integer of at least 2."""


class InvalidElement(AlgebraError, ValueError):
    """Group-ring coefficients of the wrong count, or indices not integers in range."""


class EmptySequence(AlgebraError):
    """Left-normed product of no factors."""


class TooLarge(AlgebraError):
    """The requested exhaustive enumeration exceeds the hard cap."""


class ParseError(AlgebraError):
    """A ring/group text file is malformed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
