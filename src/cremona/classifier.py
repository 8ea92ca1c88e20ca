"""The decision tree from surface descriptors to the eleven maximal families.

A descriptor names a rational surface with a group action in one of four
shapes: a del Pezzo surface (with optional lattice action and table tags),
a Hirzebruch surface, an exceptional bundle model, or a Klein-four conic
bundle model.  ``classify`` decides by the descriptor's row of ``RULES``,
the published case split as one table, and returns a verdict: a maximal
family (1 to 11) with its canonical conjugacy invariant, a reduction chain
proving non-maximality, or Indeterminate when the combinatorial data
genuinely cannot decide (uncertified branch profiles (2,2,2) and (2,2,3)).

``link_feasibility`` reports, for a maximal verdict, the numerical
obstructions against each of the four types of equivariant Sarkisov
links.  It is an obstruction checker: "possibly open" means the numbers
do not rule the link out, not that a link exists.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bundles import (
    ExceptionalBundleModel,
    Z22BundleModel,
    is_del_pezzo_bundle,
    second_fibration_solver,
)
from .errors import InvalidDescriptor, NotAMoriFibration, excerpt
from .geometry import P1Point, _rational
from .picard import LatticeAction, is_pair_minimal
from .square_class import RamificationTriplet, triplet_canonical_form

# closed vocabularies --------------------------------------------------------

ALL_ON_EXCEPTIONAL = "all-on-exceptional"
OFF_EXCEPTIONAL = "off-exceptional"
_FIXED_POINT_REPORTS = (ALL_ON_EXCEPTIONAL, OFF_EXCEPTIONAL)

#: the four normal forms of cubic surfaces with minimal automorphism pairs;
#: the first three are maximal, the last fixes a point off the exceptional
#: curves and reduces
CUBIC_TRIPLE_COVER = "triple-cover"      # W^3+X^3+Y^3+Z^3+alpha XYZ
CUBIC_CLEBSCH = "clebsch"                # W^2X+X^2Y+Y^2Z+Z^2W, Aut = S_5
CUBIC_S4_LAMBDA = "s4-lambda"            # W^3+W(X^2+Y^2+Z^2)+lambda XYZ
CUBIC_EXTRA_FIXED_POINT = "extra-fixed-point"
_CUBIC_SUBFAMILY = {CUBIC_TRIPLE_COVER: "8a", CUBIC_CLEBSCH: "8b", CUBIC_S4_LAMBDA: "8c"}
_CUBIC_TAGS = (*_CUBIC_SUBFAMILY, CUBIC_EXTRA_FIXED_POINT)

#: automorphism table of degree-2 del Pezzo surfaces: order -> structure
DEGREE2_TABLE = {
    336: "2xL2(7)",
    192: "2x(4^2:S3)",
    96: "2x4A4",
    48: "2xS4",
    32: "2xAS16",
    16: "2xD8",
    12: "2xS3",
    8: "2^3",
}


# descriptors ----------------------------------------------------------------


class DelPezzoDescriptor(NamedTuple):
    """A del Pezzo surface of the given degree with optional refinements;
    its row of ``RULES`` names the ones that the degree reads.

    ``fixed_point_report`` states whether every fixed point of the group
    lies on an exceptional curve.  ``cubic_family`` and ``quartic_row``
    carry the equation-family tags of the degree 3 and degree 2 tables;
    ``parameter`` is the family parameter as a string (exact rational
    where applicable).
    """

    kind = "del-pezzo"
    degree: int
    p1xp1: bool = False
    action: LatticeAction | None = None
    fixed_point_report: str | None = None
    cubic_family: str | None = None
    quartic_row: tuple[int, str] | None = None
    restrictions_satisfied: bool = True
    iso_class_tag: str | None = None
    parameter: str | None = None


class HirzebruchDescriptor(NamedTuple):
    kind = "hirzebruch"
    n: int


class ExceptionalDescriptor(NamedTuple):
    kind = "exceptional"
    model: ExceptionalBundleModel


class Z22Descriptor(NamedTuple):
    kind = "z22"
    model: Z22BundleModel


GSurfaceDescriptor = DelPezzoDescriptor | HirzebruchDescriptor | ExceptionalDescriptor | Z22Descriptor


# verdicts -------------------------------------------------------------------


class ChainStep(NamedTuple):
    """One move of a reduction chain.

    ``k_squared`` is the anticanonical degree after the move, None on the
    terminal step (``maximal-family`` or ``indeterminate``).
    """

    move: str
    detail: str
    k_squared: int | None = None


class Verdict(NamedTuple):
    outcome: str  # "maximal" | "not_maximal" | "indeterminate"
    family: int | None = None
    subfamily: str | None = None
    # "point" (families 1, 2, 3, 6), a JSON-native dict (4, 7, 8, 9, 10), the
    # canonical branch set (5) or the canonical triplet (11); jsonio renders it
    invariant: str | dict | tuple[P1Point, ...] | RamificationTriplet | None = None
    chain: tuple[ChainStep, ...] | None = None
    reason: str | None = None


def _maximal(family: int, invariant, subfamily: str | None = None) -> Verdict:
    return Verdict("maximal", family=family, subfamily=subfamily,
                   invariant=invariant)


def _not_maximal(*steps: ChainStep) -> Verdict:
    return Verdict("not_maximal", chain=tuple(steps))


def _family_step(n: int) -> ChainStep:
    return ChainStep("maximal-family", f"family {n}")


def _contract_to_plane() -> Verdict:
    """F_1 and the degree-8 del Pezzo surface: the plane, family 1, remains."""
    return _not_maximal(
        ChainStep("contract-orbit",
                  "contract the exceptional section; the plane remains", 9),
        _family_step(1),
    )


# canonical invariants -------------------------------------------------------


def _refused(field: str, message: str) -> InvalidDescriptor:
    """The refusal of a descriptor field, named by its ``$.`` path."""
    return InvalidDescriptor(f"at $.{field}: {message}")


def _cubic_parameter(family: str, raw: str) -> str:
    """The invariant form of the 8a or 8c parameter, after its restrictions.

    alpha (8a) is kept as given; alpha = -3 makes W^3 + X^3 + Y^3 + Z^3 +
    alpha XYZ singular at (0:1:1:1).  lambda (8c) must avoid 0 and
    8 lambda^3 = -1, and the two signs give isomorphic surfaces, so it is
    folded to its absolute value.  A parameter that is not rational is kept
    verbatim (canonicalization over extensions is out of scope); one with
    denominator zero is no number, and one with more digits than ``int``
    converts from text (see ``geometry._rational``) cannot be checked.
    """
    try:
        value = _rational(raw, "at $.parameter: parameter")
    except ValueError:
        return raw
    except ZeroDivisionError:
        raise _refused("parameter", f"parameter {excerpt(raw, str)} has denominator zero") from None
    if family == CUBIC_TRIPLE_COVER:
        if value == -3:
            raise _refused("parameter", f"parameter {excerpt(raw, str)} makes the triple-cover "
                           "cubic singular (alpha^3 = -27)")
        return raw
    if value == 0 or 8 * value**3 == -1:
        raise _refused("parameter", f"parameter {excerpt(raw, str)} violates the S_4 cubic "
                       "restrictions (9 l^3 != 8 l and 8 l^3 != -1)")
    return str(abs(value))


# the decision tree ----------------------------------------------------------


def _classify_hirzebruch(d: HirzebruchDescriptor) -> Verdict:
    if d.n < 0:
        raise _refused("n", f"Hirzebruch index must be >= 0, got {excerpt(d.n)}")
    if d.n >= 2:
        return _maximal(4, {"n": d.n})
    if d.n == 1:
        return _contract_to_plane()
    # n = 0 is the quadric with both rulings
    return _maximal(2, "point")


def _classify_exceptional(d: ExceptionalDescriptor) -> Verdict:
    model = d.model
    if model.n >= 2:
        return _maximal(5, model.canonical_delta)
    return _not_maximal(
        ChainStep("extend-group",
                  "automorphisms of the ruling extend to the full automorphism "
                  "group of the del Pezzo surface of degree 6", 6),
        _family_step(3),
    )


def _classify_z22(d: Z22Descriptor) -> Verdict:
    model = d.model
    verdict = is_del_pezzo_bundle(model)
    if verdict.kind == "no":
        return _maximal(11, triplet_canonical_form(model.triplet))
    if verdict.kind == "indeterminate":
        return Verdict("indeterminate", reason=verdict.reason)
    degree = model.k_squared
    step = ChainStep(
        "extend-group",
        "the fiberwise group extends inside the full automorphism group of "
        f"the del Pezzo surface of degree {degree}", degree)
    if degree == 5:
        return _not_maximal(step, _family_step(6))
    if degree == 4:
        return _not_maximal(step, _family_step(7))
    # degree 3: deciding maximality needs minimality and fixed-point data
    # that a branch triplet does not carry
    return _not_maximal(step, ChainStep(
        "indeterminate",
        "the degree-3 branch needs an action and a fixed-point report"))


def _blow_down_chain_from(degree: int) -> tuple[ChainStep, ...]:
    """The strictly descending blow-up chain ending in family 10."""
    steps = []
    current = degree
    while current > 1:
        current -= 1
        extra = " with no automorphism table row" if current == 2 else ""
        steps.append(ChainStep(
            "blow-up-fixed-point",
            f"blow up a fixed point off the exceptional curves; "
            f"del Pezzo of degree {current}{extra}", current))
    steps.append(_family_step(10))
    return tuple(steps)


def _classify_cubic(d: DelPezzoDescriptor) -> Verdict:
    # the tags and the parameter are checked before minimality is decided,
    # so that their contradictions are refused whichever branch follows
    if d.fixed_point_report is not None and d.fixed_point_report not in _FIXED_POINT_REPORTS:
        raise _refused("fixed_point_report", f"unknown fixed point report "
                       f"{excerpt(d.fixed_point_report)}; expected one of {_FIXED_POINT_REPORTS}")
    if d.cubic_family is not None and d.cubic_family not in _CUBIC_TAGS:
        raise _refused("cubic_family", f"unknown cubic family tag {excerpt(d.cubic_family)}")
    if d.cubic_family == CUBIC_EXTRA_FIXED_POINT and d.fixed_point_report == ALL_ON_EXCEPTIONAL:
        raise _refused("cubic_family", "the extra-fixed-point family contradicts an "
                       "all-on-exceptional report")
    value = None
    if d.parameter is not None:
        if d.cubic_family not in (CUBIC_TRIPLE_COVER, CUBIC_S4_LAMBDA):
            raise _refused("parameter", f"only the {CUBIC_TRIPLE_COVER} and {CUBIC_S4_LAMBDA} "
                           "cubic families read a parameter")
        value = _cubic_parameter(d.cubic_family, d.parameter)
    if d.action is None:
        raise _refused("action", "degree 3 needs the lattice action to decide minimality")
    if d.action.lattice.r != 6:
        raise _refused("action.r", f"degree 3 needs a lattice with r = 6, got r = {d.action.lattice.r}")
    if d.fixed_point_report is None:
        raise _refused("fixed_point_report", "degree 3 needs a fixed point report")
    minimal, _witness = is_pair_minimal(d.action.lattice, d.action)
    if minimal and d.fixed_point_report == ALL_ON_EXCEPTIONAL:
        if d.cubic_family is None:
            raise _refused("cubic_family", "a minimal cubic action with fixed points on the "
                           "exceptional curves needs its equation family tag")
        sub = _CUBIC_SUBFAMILY[d.cubic_family]
        datum: dict = {"subfamily": sub}
        if sub != "8b":
            if value is None:
                raise _refused("parameter", f"the {d.cubic_family} cubic family needs its parameter")
            datum["alpha" if sub == "8a" else "lambda_up_to_sign"] = value
        return _maximal(8, datum, subfamily=sub)
    return _not_maximal(*_blow_down_chain_from(3))


def _classify_quartic_cover(d: DelPezzoDescriptor) -> Verdict:
    if d.quartic_row is None:
        if not d.restrictions_satisfied:
            raise _refused("restrictions_satisfied", "read only with a quartic_row")
        return _not_maximal(*_blow_down_chain_from(2))
    order, label = d.quartic_row
    if DEGREE2_TABLE.get(order) != label:
        raise _refused("quartic_row",
                       f"({excerpt(order)}, {excerpt(label)}) is not a row of the degree-2 table")
    if d.restrictions_satisfied:
        return _maximal(9, {"order": order, "structure": label})
    return _not_maximal(*_blow_down_chain_from(2))


#: The classification as one table: ``(kind, degree)``, with degree None for
#: the kinds that are not del Pezzo, maps to the descriptor fields the row
#: reads and the function that decides; ``rule`` refuses every other field.
RULES = {
    ("del-pezzo", 9): ((), lambda d: _maximal(1, "point")),
    ("del-pezzo", 8): (("p1xp1",),
                       lambda d: _maximal(2, "point") if d.p1xp1 else _contract_to_plane()),
    ("del-pezzo", 7): ((), lambda d: _not_maximal(
        ChainStep("contract-orbit",
                  "contract the invariant (-1)-curve joining the two "
                  "exceptional curves; the quadric remains", 8),
        _family_step(2))),
    ("del-pezzo", 6): ((), lambda d: _maximal(3, "point")),
    ("del-pezzo", 5): ((), lambda d: _maximal(6, "point")),
    ("del-pezzo", 4): (("iso_class_tag",), lambda d: _maximal(7, {"iso_class": d.iso_class_tag})),
    ("del-pezzo", 3): (("action", "fixed_point_report", "cubic_family", "parameter"),
                       _classify_cubic),
    ("del-pezzo", 2): (("quartic_row", "restrictions_satisfied"), _classify_quartic_cover),
    ("del-pezzo", 1): (("iso_class_tag",), lambda d: _maximal(10, {"iso_class": d.iso_class_tag})),
    ("hirzebruch", None): (("n",), _classify_hirzebruch),
    ("exceptional", None): (("delta",), _classify_exceptional),
    ("z22", None): (("triplet", "certificate"), _classify_z22),
}


def rule(kind, degree, given) -> tuple[tuple[str, ...], Callable[..., Verdict]]:
    """The row of ``RULES`` for a descriptor kind and del Pezzo degree; the
    first of the ``given`` fields that the row does not read is refused."""
    if (kind, degree) not in RULES:
        if kind in {k for k, _ in RULES}:
            raise _refused("degree", f"del Pezzo degree must be 1..9, got {excerpt(degree)}")
        raise _refused("kind", f"unknown descriptor kind {excerpt(kind)}")
    fields, decide = RULES[kind, degree]
    unread = sorted(set(given).difference(fields))
    if unread:
        row = kind if degree is None else f"{kind} degree {degree}"
        raise _refused(excerpt(unread[0], str), f"not read by the {row} row")
    return fields, decide


def classify(d: GSurfaceDescriptor) -> Verdict:
    """Map a descriptor to its verdict by its row of ``RULES``, after refusing
    every field that differs from its default and that the row does not read."""
    defaults = getattr(d, "_field_defaults", {})
    given = [name for name, value in zip(getattr(d, "_fields", ()), d)
             if name in defaults and value != defaults[name]]
    return rule(getattr(d, "kind", None), getattr(d, "degree", None), given)[1](d)


# link feasibility -----------------------------------------------------------


class LinkEntry(NamedTuple):
    link_type: int
    status: str  # "excluded" | "possibly_open"
    reason: str
    witness: tuple[int, int] | None = None


class LinkReport(NamedTuple):
    family: int
    k_squared: int
    entries: tuple[LinkEntry, LinkEntry, LinkEntry, LinkEntry]


#: maximal point-case families whose groups have no finite orbit at all
_NO_FINITE_ORBIT = {
    1: "the group acts with no finite orbit on the plane",
    2: "the group acts with no finite orbit on the quadric",
    3: "the torus orbits are infinite and the boundary is exceptional",
}

#: smallest orbit size on the complement of the exceptional curves,
#: by anticanonical degree of the point-case surface
_MIN_ORBIT = {1: 1, 2: 2, 3: 3, 4: 4, 5: 6}


def _point_case_entries(family: int, k2: int) -> tuple[LinkEntry, ...]:
    if family in _NO_FINITE_ORBIT:
        no_orbit = _NO_FINITE_ORBIT[family]
        one = LinkEntry(1, "excluded", no_orbit)
        two = LinkEntry(2, "excluded", no_orbit)
    else:
        if k2 in (4, 8, 9):
            one = LinkEntry(1, "possibly_open",
                            f"K^2 = {k2} passes the numerical test K^2 in {{4, 8, 9}}")
        else:
            one = LinkEntry(1, "excluded", f"K^2 = {k2} is not in {{4, 8, 9}}")
        least = _MIN_ORBIT[k2]
        two = LinkEntry(
            2, "excluded",
            f"every orbit off the exceptional curves has at least {least} "
            f"points, never fewer than K^2 = {k2}")
    three = LinkEntry(3, "excluded",
                      "a type III link starts from a conic bundle, not a point case")
    sol = second_fibration_solver(k2)
    if sol == "p1xp1":
        four = LinkEntry(4, "excluded",
                         "the two rulings of the quadric are exchanged by the group")
    elif sol is None:
        four = LinkEntry(4, "excluded",
                         f"the equation a K^2 = 4 has no integer solution a for K^2 = {k2}")
    else:
        a, b = sol
        four = LinkEntry(4, "possibly_open",
                         f"numerical second fibration class -{a} K + ({b}) f",
                         witness=sol)
    return (one, two, three, four)


def _fibration_entries(family: int, k2: int) -> tuple[LinkEntry, ...]:
    one = LinkEntry(1, "excluded",
                    "a type I link starts from a point case, not a fibration")
    two = LinkEntry(2, "excluded",
                    "the group acts without fixed point on every smooth fiber")
    if k2 in (3, 5, 6):
        three = LinkEntry(3, "possibly_open",
                          f"K^2 = {k2} passes the numerical test K^2 in {{3, 5, 6}}")
    else:
        three = LinkEntry(3, "excluded", f"K^2 = {k2} is not in {{3, 5, 6}}")
    if family == 4:
        four = LinkEntry(4, "excluded",
                         "a Hirzebruch surface carries a unique conic fibration")
    elif family == 5:
        four = LinkEntry(4, "excluded",
                         "the surface carries two sections of self-intersection "
                         "<= -2, so it is not del Pezzo and has no second fibration")
    else:
        four = LinkEntry(4, "excluded",
                         "the surface is not del Pezzo, so it has no second fibration")
    return (one, two, three, four)


def link_feasibility(d: GSurfaceDescriptor, v: Verdict) -> LinkReport:
    """Numerical obstruction report for the four equivariant link types.

    ``v`` is the verdict ``classify(d)`` returned.  Defined only on maximal
    verdicts; the verdict's family decides whether the Mori fibration is a
    point case or a conic bundle.
    """
    if v.outcome != "maximal":
        raise NotAMoriFibration(
            f"descriptor classifies as {v.outcome}; link feasibility needs a "
            "maximal G-Mori fibration")
    k2 = d.degree if d.kind == "del-pezzo" else 8 if d.kind == "hirzebruch" else d.model.k_squared
    entries = _fibration_entries if v.family in (4, 5, 11) else _point_case_entries
    return LinkReport(v.family, k2, entries(v.family, k2))
