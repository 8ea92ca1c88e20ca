"""Exception taxonomy shared by every module of the package.

Each input rule is checked in one place and raises one class; the class
docstrings below name the rules.  Points that must differ raise
DuplicatePoint, a branch set too small or of odd size TooSmall or
OddCardinality, and degenerate plane input DegenerateConfiguration.
Messages carry the offending data; a string, array or object read from the
input is quoted through ``excerpt``, so it cannot make a message long or split it.
"""


class CremonaError(Exception):
    """Base class for all errors raised by this package."""


_EXCERPT_CHARS = 200


def excerpt(value, render=repr) -> str:
    """``render(value)``, or its repr if that is not printable, cut to 200 characters."""
    text = render(value)
    if not text.isprintable():  # a line break would split the logged line
        text = repr(text)
    return text if len(text) <= _EXCERPT_CHARS else f"{text[:_EXCERPT_CHARS]}... ({len(text)} characters)"


class InvariantViolation(CremonaError):
    """A result failed an internal consistency check; this is a bug, not bad input."""


def require(condition: bool, message: str) -> None:
    """Raise InvariantViolation unless ``condition`` holds.

    Used instead of ``assert``, which ``python -O`` strips.  A check stays
    only if an input, or a non-trivial algorithm elsewhere (the fiberwise-
    involution formula, the line-conic intersection, the canonical-form
    kernel), can break it; a fact that a few lines of algebra prove from its
    own function and the checks before it is proved in its docstring.
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
    """Points that must be distinct coincide, in a list or as two arguments."""


class NonRationalIntersection(CremonaError):
    """An intersection exists over an extension field but not over Q."""


class LineInConic(CremonaError):
    """The line is a component of the conic, so the intersection is not finite."""


# Picard lattices -----------------------------------------------------------

class DimensionMismatch(CremonaError):
    """A vector, matrix or index does not fit the lattice, map or range it is for."""


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
    """A branch set has fewer than two points, or a profile a half-size below one."""


class TooFewPoints(CremonaError):
    """A canonical form or stabilizer needs at least three support points."""


# bundle constructions -------------------------------------------------------

class DegenerateConfiguration(CremonaError):
    """Input geometry is degenerate: all-zero coordinates, a singular Moebius
    matrix, curves that violate the transversality a construction needs, or
    two blown-up points in one fiber."""


class QOnConfiguration(CremonaError):
    """The projection center sits on one of the configuration curves."""


# classifier -----------------------------------------------------------------

class InvalidDescriptor(CremonaError):
    """A surface descriptor is malformed or uses an unknown label, or a triplet has not three sets."""


class InvalidCertificate(InvalidDescriptor):
    """A realization certificate does not fit the model it is attached to."""


class NotAMoriFibration(CremonaError):
    """Link feasibility is only defined on maximal (group, fibration) pairs."""
