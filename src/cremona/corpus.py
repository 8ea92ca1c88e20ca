"""Worked instances used by the verification suites and the test corpus.

Everything here is a concrete rational configuration: a quadrilateral and
a three-lines-plus-conic arrangement realizing the two certified branch
profiles, a branch set for an exceptional bundle, the Halphen triplet,
and lattice actions on the cubic-surface lattice built from root
reflections.  The golden descriptor set covers each maximal family once
and the six standard reduction cases.
"""

from __future__ import annotations

from fractions import Fraction

from . import intlinalg as la
from .bundles import (
    ExceptionalBundleModel,
    Z22BundleModel,
    build_from_four_lines,
    build_from_three_lines_conic,
    exceptional_from_delta,
)
from .classifier import (
    ALL_ON_EXCEPTIONAL,
    OFF_EXCEPTIONAL,
    CUBIC_EXTRA_FIXED_POINT,
    CUBIC_TRIPLE_COVER,
    DelPezzoDescriptor,
    ExceptionalDescriptor,
    GSurfaceDescriptor,
    HirzebruchDescriptor,
    Z22Descriptor,
)
from .geometry import Conic, Line, P1Point, P2Point
from .picard import BlowupLattice, DivisorClass, LatticeAction, reflection_matrix
from .square_class import RamificationTriplet, triplet_from_profile


def p1(value) -> P1Point:
    """Shorthand: a rational value, or None for the point at infinity."""
    if value is None:
        return P1Point.infinity()
    return P1Point.from_value(Fraction(value))


# certified conic bundle instances --------------------------------------------

#: a quadrilateral with no point on any line and all six double points
#: distinct; realizes the branch profile (2, 2, 2)
FOUR_LINES = (Line(1, 0, -1), Line(0, 1, -1), Line(1, 1, -3), Line(1, -1, -2))
FOUR_LINES_CENTER = P2Point(0, 0, 1)


def four_lines_model() -> Z22BundleModel:
    return build_from_four_lines(FOUR_LINES, FOUR_LINES_CENTER)


#: three lines and a smooth conic realizing the branch profile (2, 2, 3):
#: d1 is the double point of the first two lines, d2 a point of the third
#: line on the conic
THREE_LINES = (Line(1, -1, 2), Line(2, 1, -3), Line(4, -1, 0))
THREE_LINES_CONIC = Conic(1, 0, 0, 0, 0, -1)  # x^2 = yz
THREE_LINES_D1 = P2Point.from_affine(Fraction(1, 3), Fraction(7, 3))
THREE_LINES_D2 = P2Point(0, 0, 1)


def three_lines_conic_model() -> Z22BundleModel:
    return build_from_three_lines_conic(
        THREE_LINES, THREE_LINES_CONIC, THREE_LINES_D1, THREE_LINES_D2)


# other bundle instances -------------------------------------------------------

EXCEPTIONAL_DELTA = tuple(p1(x) for x in (0, 1, 2, 3))
EXCEPTIONAL_DELTA_SMALL = tuple(p1(x) for x in (0, 1))


def exceptional_model() -> ExceptionalBundleModel:
    return exceptional_from_delta(EXCEPTIONAL_DELTA)


HALPHEN_TRIPLET = RamificationTriplet(tuple(
    [p1(x) for x in xs] for xs in ((0, 1, 2, 3), (4, 5, 6, None), (0, 1, 2, 3, 4, 5, 6, None))))

#: small uncertified triplets on 0..k-1, one per del Pezzo branch degree
TRIPLET_K3, TRIPLET_K4, TRIPLET_K5 = map(triplet_from_profile, ((1, 1, 1), (1, 1, 2), (1, 2, 2)))


# cubic-surface lattice actions ------------------------------------------------

_CUBIC_SIMPLE_ROOTS = (
    (0, 1, -1, 0, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0),
    (0, 0, 0, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 1, -1),
    (1, -1, -1, -1, 0, 0, 0),
)


def cubic_coxeter_matrix():
    """Product of the six simple root reflections; order 12, no fixed part
    orthogonal to K."""
    lattice = BlowupLattice(6)
    m = la.identity(lattice.rank)
    for root in _CUBIC_SIMPLE_ROOTS:
        m = la.mat_mul(reflection_matrix(lattice, DivisorClass(root)), m)
    return m


def cubic_coxeter_action() -> LatticeAction:
    return LatticeAction(BlowupLattice(6), (cubic_coxeter_matrix(),))


def cubic_order_three_action() -> LatticeAction:
    """The fourth power of the Coxeter element: order 3 and still without
    fixed classes orthogonal to K, so the pair stays minimal."""
    c = cubic_coxeter_matrix()
    c4 = la.mat_mul(la.mat_mul(c, c), la.mat_mul(c, c))
    return LatticeAction(BlowupLattice(6), (c4,))


# the golden descriptor corpus -------------------------------------------------


def golden_maximal_descriptors() -> dict[str, GSurfaceDescriptor]:
    """One descriptor per maximal family, keyed by family number."""
    return {
        "family-01": DelPezzoDescriptor(degree=9),
        "family-02": DelPezzoDescriptor(degree=8, p1xp1=True),
        "family-03": DelPezzoDescriptor(degree=6),
        "family-04": HirzebruchDescriptor(n=2),
        "family-05": ExceptionalDescriptor(exceptional_model()),
        "family-06": DelPezzoDescriptor(degree=5),
        "family-07": DelPezzoDescriptor(degree=4, iso_class_tag="generic"),
        "family-08": DelPezzoDescriptor(
            degree=3, action=cubic_coxeter_action(),
            fixed_point_report=ALL_ON_EXCEPTIONAL,
            cubic_family=CUBIC_TRIPLE_COVER, parameter="0"),
        "family-09": DelPezzoDescriptor(degree=2, quartic_row=(336, "2xL2(7)")),
        "family-10": DelPezzoDescriptor(degree=1, iso_class_tag="generic"),
        "family-11": Z22Descriptor(four_lines_model()),
    }


def golden_reduction_descriptors() -> dict[str, GSurfaceDescriptor]:
    """The six standard non-maximal cases with terminating chains."""
    return {
        "reduce-hirzebruch-1": HirzebruchDescriptor(n=1),
        "reduce-degree-7": DelPezzoDescriptor(degree=7),
        "reduce-degree-8": DelPezzoDescriptor(degree=8),
        "reduce-cubic-extra-fixed-point": DelPezzoDescriptor(
            degree=3, action=cubic_order_three_action(),
            fixed_point_report=OFF_EXCEPTIONAL,
            cubic_family=CUBIC_EXTRA_FIXED_POINT),
        "reduce-degree-2-no-row": DelPezzoDescriptor(degree=2),
        "reduce-exceptional-two-fibers": ExceptionalDescriptor(
            exceptional_from_delta(EXCEPTIONAL_DELTA_SMALL)),
    }
