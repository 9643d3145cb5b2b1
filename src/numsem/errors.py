"""Exception types shared across the package."""


class SemigroupError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGenerators(SemigroupError):
    """No generators were supplied."""


class InvalidGenerator(SemigroupError):
    """A generator is not a positive integer."""


class GcdNotOne(SemigroupError):
    """The generators have a common divisor greater than one."""


class NonMinimal(SemigroupError):
    """Some generator is a sum of the others, so the set is not minimal."""


class NotMember(SemigroupError):
    """The element does not belong to the semigroup."""


class BadLevel(SemigroupError):
    """A filtration level is outside its allowed range."""


class BadConfig(SemigroupError):
    """A combinatorial configuration violates its invariants."""


class BadRange(SemigroupError):
    """A numeric argument is outside its allowed range."""


class ResourceLimit(SemigroupError):
    """The generators would need a window larger than the fixed budget."""


class HypothesisFailed(SemigroupError):
    """The semigroup does not satisfy the precondition of a detector."""


class ConstraintViolation(SemigroupError):
    """Family parameters violate their defining constraints, or a
    MaximalRepresentation built by hand breaks the record rule; a record is
    checked once, when it is made, not when it is read."""


class InternalInconsistency(SemigroupError):
    """Two computations that must agree did not; this is a bug, never data."""


class UsageError(SemigroupError):
    """The command line could not be parsed."""
