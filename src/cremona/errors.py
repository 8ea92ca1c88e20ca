"""Exception taxonomy shared by every module of the package.

Each failure mode gets its own class so callers can match precisely
instead of parsing messages.  Constructors are the plain Exception
ones; messages carry the offending data when that helps debugging.
"""


class CremonaError(Exception):
    """Base class for all errors raised by this package."""


class InvariantViolation(CremonaError):
    """A result failed an internal consistency check; this is a bug, not bad input."""


def require(condition: bool, message: str) -> None:
    """Raise InvariantViolation unless ``condition`` holds.

    Used instead of ``assert``, which ``python -O`` strips.
    """
    if not condition:
        raise InvariantViolation(message)


class IntegerTooLong(CremonaError):
    """A JSON integer has more digits than the interpreter converts to or from text."""


# exact projective geometry ------------------------------------------------

class TooManyPoints(CremonaError):
    """More points than canonical forms and stabilizers accept
    (``square_class.MAX_CANONICAL_POINTS``)."""


class DuplicatePoint(CremonaError):
    """A point list that must consist of distinct points repeats one."""


class SamePoint(CremonaError):
    """Two arguments that must be distinct points coincide."""


class DegenerateTriple(CremonaError):
    """A triple meant to pin down a Moebius map contains a repeat."""


class NonRationalIntersection(CremonaError):
    """An intersection exists over an extension field but not over Q."""


class LineInConic(CremonaError):
    """The line is a component of the conic, so the intersection is not finite."""


# Picard lattices -----------------------------------------------------------

class DimensionMismatch(CremonaError):
    """A vector, matrix or index does not fit the lattice, map or range it is for."""


class NonIntegralGenus(CremonaError):
    """Adjunction gives a half-integer, i.e. the class is not honest."""


class UnsupportedRank(CremonaError):
    """The requested computation is only available for a bounded rank."""


class NotIsometry(CremonaError):
    """A proposed action matrix does not preserve the intersection form."""


class MovesCanonicalClass(CremonaError):
    """A proposed action matrix does not fix the canonical class."""


class NotInvolution(CremonaError):
    """A matrix that must be an involution does not square to the identity."""


class NotClosedUnderAction(CremonaError):
    """An orbit computation escaped the supplied set of classes."""


# square classes and ramification data --------------------------------------

class OddCardinality(CremonaError):
    """A point set that must have even size has odd size."""


class CoverageViolation(CremonaError):
    """Some point of the union is covered once or three times, not 0 or 2."""


class TooSmall(CremonaError):
    """A branch set has fewer than two points."""


class TooFewPoints(CremonaError):
    """A canonical form or stabilizer needs at least three support points."""


# bundle constructions -------------------------------------------------------

class OddDelta(CremonaError):
    """An exceptional-bundle branch set has odd cardinality."""


class TooFew(CremonaError):
    """An exceptional-bundle branch set has fewer than two points."""


class DegenerateConfiguration(CremonaError):
    """Input geometry is degenerate: all-zero coordinates, a singular Moebius
    matrix, or curves that violate the transversality a construction needs."""


class QOnConfiguration(CremonaError):
    """The projection center sits on one of the configuration curves."""


class AlignmentViolation(CremonaError):
    """Two blown-up points project to the same fiber, or to the reference fiber."""


# classifier -----------------------------------------------------------------

class InvalidDescriptor(CremonaError):
    """A surface descriptor is malformed or uses an unknown label."""


class InvalidCertificate(InvalidDescriptor):
    """A realization certificate does not fit the model it is attached to."""


class NotAMoriFibration(CremonaError):
    """Link feasibility is only defined on maximal (group, fibration) pairs."""
