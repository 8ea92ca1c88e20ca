"""Named invariant suites behind ``cremona verify``.

Each suite is a tuple of rows ``(check name, computed, frozen)``: two
thunks, one computing a value from the worked corpus instances and one
giving the value it must equal.  ``run_suite`` is the only comparison:
a mismatch is reported as an InvariantViolation naming both values, and
an exception from either thunk is reported by its class and message.
The suites are a fast health check under ``python -O``, not the full
test suite.
"""

from __future__ import annotations

from typing import Callable

from . import corpus
from . import intlinalg as la
from .bundles import (
    exceptional_from_delta,
    halphen_check,
    is_del_pezzo_bundle,
    jonquieres_involution_matrix,
    minimality_obstruction_solver,
    second_fibration_solver,
    z22_from_triplet,
)
from .classifier import Z22Descriptor, classify
from .errors import require
from .geometry import (
    Mobius,
    P1Point,
    P2Point,
    intersect_line_conic,
    line_through,
    mobius_from_triples,
    project_from,
)
from .picard import (
    BlowupLattice,
    FiberedMarking,
    LatticeAction,
    adjunction_genus,
    enumerate_minus_one_classes,
    invariant_sublattice,
)
from .square_class import (
    realizable_profiles,
    stabilizer,
    triplet_canonical_form,
    triplet_from_profile,
)

Row = tuple[str, Callable[[], object], Callable[[], object]]

_SRC = (P1Point(0, 1), P1Point(1, 1), P1Point(1, 0))
_DST = (P1Point(2, 1), P1Point(3, 1), P1Point(5, 7))


def _mobius_round_trip():
    m = mobius_from_triples(_SRC, _DST)
    return tuple(map(m.apply, _SRC)), mobius_from_triples(_DST, _SRC).compose(m)


def _cubic_genera():
    lat = BlowupLattice(6)
    return adjunction_genus(lat, -lat.canonical_class), adjunction_genus(lat, lat.line_class())


def _jonquieres():
    marking = FiberedMarking.standard(4)
    g = jonquieres_involution_matrix(marking).generator
    return la.mat_mul(g, g), invariant_sublattice(LatticeAction(marking.lattice, (g,)))[0]


def _canonical_forms_per_triplet():
    maps = (Mobius.identity(), Mobius.from_coeffs(2, 1, 0, 1),
            Mobius.from_coeffs(0, 1, 1, 0), Mobius.from_coeffs(3, -2, 1, 4))
    return tuple(len({triplet_canonical_form(t.transformed(m)) for m in maps})
                 for t in (corpus.TRIPLET_K4, corpus.HALPHEN_TRIPLET))


def _certified_instances():
    four, three = corpus.four_lines_model(), corpus.three_lines_conic_model()
    return (four.profile, four.certificate.pairwise_disjoint,
            is_del_pezzo_bundle(four).kind, three.profile, is_del_pezzo_bundle(three).kind)


def _halphen():
    report = halphen_check(corpus.HALPHEN_TRIPLET)
    return (report.k_squared, report.fixed_curve, report.genus,
            halphen_check(corpus.TRIPLET_K4))


def _exceptional_swap():
    model = corpus.exceptional_model()
    return invariant_sublattice(model.action())[0], len(model.stabilizer)


def _klein_four_group():
    """What the models prove and do not check: per profile with k <= 12,
    whether g_1 g_2 = g_3, whether g_3^2 = 1 and the invariant rank; then
    the invariant rank of the exceptional swap for n = 1..6."""
    groups = {}
    for profile in realizable_profiles(12):
        model = z22_from_triplet(triplet_from_profile(profile))
        g1, g2, g3 = model.generators
        groups[profile] = (la.mat_mul(g1, g2) == g3, la.mat_mul(g3, g3) == la.identity(len(g3)),
                           invariant_sublattice(model.action())[0])
    swaps = tuple(invariant_sublattice(exceptional_from_delta(map(corpus.p1, range(2 * n)))
                                       .action())[0] for n in range(1, 7))
    return groups, swaps


def _reduction_chains():
    chains = {}
    for key, descriptor in corpus.golden_reduction_descriptors().items():
        v = classify(descriptor)
        chains[key] = (v.outcome,) + tuple(
            s.detail if s.k_squared is None else s.k_squared for s in v.chain)
    return chains


SUITES: dict[str, tuple[Row, ...]] = {
    "geometry": (
        ("mobius-round-trip", _mobius_round_trip, lambda: (_DST, Mobius.identity())),
        ("projection-from-center",
         lambda: project_from(P2Point(0, 0, 1), P2Point(3, 6, 11)),
         lambda: P1Point(1, 2)),
        ("line-conic-intersection",
         lambda: intersect_line_conic(line_through(P2Point(0, 0, 1), P2Point(1, 1, 1)),
                                      corpus.THREE_LINES_CONIC),
         lambda: (P2Point(0, 0, 1), P2Point(1, 1, 1))),
    ),
    "picard": (
        ("minus-one-counts",
         lambda: tuple(len(enumerate_minus_one_classes(BlowupLattice(r))) for r in range(1, 7)),
         lambda: (1, 3, 6, 10, 16, 27)),
        ("adjunction-genus", _cubic_genera, lambda: (1, 0)),
        ("jonquieres-involution", _jonquieres, lambda: (la.identity(6), 2)),
        ("coxeter-rank-one",
         lambda: invariant_sublattice(corpus.cubic_coxeter_action()),
         lambda: (1, (-BlowupLattice(6).canonical_class,))),
    ),
    "square-class": (
        ("stabilizer-orders",
         lambda: (len(stabilizer((corpus.p1(0), corpus.p1(1), corpus.p1(None)))),
                  len(stabilizer((corpus.p1(0), corpus.p1(None), corpus.p1(1), corpus.p1(-1))))),
         lambda: (6, 8)),
        ("canonical-form-invariance", _canonical_forms_per_triplet, lambda: (1, 1)),
    ),
    "bundles": (
        ("del-pezzo-partition",
         lambda: {p: is_del_pezzo_bundle(z22_from_triplet(triplet_from_profile(p))).kind
                  for p in realizable_profiles(8)},
         lambda: (dict.fromkeys([(1, 1, 1), (1, 1, 2), (1, 2, 2)], "yes")
                  | dict.fromkeys([(2, 2, 2), (2, 2, 3)], "indeterminate")
                  | dict.fromkeys([(1, 2, 3), (1, 3, 3), (1, 3, 4), (2, 2, 4), (2, 3, 3)], "no"))),
        ("solver-tables",
         lambda: ({tuple(s) for s in minimality_obstruction_solver()},
                  tuple(second_fibration_solver(k2) for k2 in range(1, 9))),
         lambda: ({(1, -1, -1, 3), (2, -1, -2, 6), (4, -1, -4, 12), (4, -2, -3, 5)},
                  ((4, -1), (2, -1), None, (1, -1), None, None, None, "p1xp1"))),
        ("certified-instances", _certified_instances,
         lambda: ((2, 2, 2), True, "no", (2, 2, 3), "no")),
        ("halphen-profile", _halphen,
         lambda: (0, -BlowupLattice(9).canonical_class, 1, None)),
        ("exceptional-swap", _exceptional_swap, lambda: (2, 4)),
        ("klein-four-group", _klein_four_group,
         lambda: (dict.fromkeys(realizable_profiles(12), (True, True, 2)), (2,) * 6)),
    ),
    "classifier": (
        ("golden-families",
         lambda: tuple((v.outcome, v.family) for v in
                       map(classify, corpus.golden_maximal_descriptors().values())),
         lambda: tuple(("maximal", family) for family in range(1, 12))),
        ("golden-reductions", _reduction_chains,
         lambda: {
             "reduce-hirzebruch-1": ("not_maximal", 9, "family 1"),
             "reduce-degree-7": ("not_maximal", 8, "family 2"),
             "reduce-degree-8": ("not_maximal", 9, "family 1"),
             "reduce-cubic-extra-fixed-point": ("not_maximal", 2, 1, "family 10"),
             "reduce-degree-2-no-row": ("not_maximal", 1, "family 10"),
             "reduce-exceptional-two-fibers": ("not_maximal", 6, "family 3"),
         }),
        ("indeterminate-path",
         lambda: classify(Z22Descriptor(z22_from_triplet(corpus.four_lines_model().triplet))).outcome,
         lambda: "indeterminate"),
    ),
}
SUITES["all"] = tuple(row for rows in SUITES.values() for row in rows)


def run_suite(name: str) -> list[tuple[str, str | None]]:
    """Run every row of the named suite; returns (check, error) pairs.

    The error slot is None when the computed value equals the frozen one,
    and the exception's class and message otherwise; unknown names raise
    KeyError for the caller to map.
    """
    results = []
    for check, computed, frozen in SUITES[name]:
        try:
            got, expected = computed(), frozen()
            require(got == expected, f"expected {expected!r}, got {got!r}")
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            results.append((check, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((check, None))
    return results
