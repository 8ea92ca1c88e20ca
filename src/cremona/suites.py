"""Named invariant suites behind ``cremona verify``.

Each suite is a sequence of (name, thunk) checks that raise on violation;
``run_suite`` executes them all and reports per-check status.  The checks
re-assert the structural invariants of one module on the worked corpus
instances; they are a fast health check, not the full test suite.
"""

from __future__ import annotations

from typing import Callable

from . import corpus
from . import intlinalg as la
from .bundles import (
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
    is_general_position,
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
    square_class_of,
    stabilizer,
    triplet_canonical_form,
    triplet_from_profile,
)

Check = tuple[str, Callable[[], None]]


# geometry ---------------------------------------------------------------------


def _check_mobius_round_trip() -> None:
    src = (P1Point(0, 1), P1Point(1, 1), P1Point(1, 0))
    dst = (P1Point(2, 1), P1Point(3, 1), P1Point(5, 7))
    m = mobius_from_triples(src, dst)
    inv = m.inverse()
    for p, q in zip(src, dst):
        require(m.apply(p) == q, f"map should send {p} to {q}")
        require(inv.apply(q) == p, f"inverse should send {q} back to {p}")
    require((inv @ m).is_identity(), "inverse composed with map is the identity")


def _check_projection() -> None:
    center = P2Point(0, 0, 1)
    p = project_from(center, P2Point(3, 6, 11))
    require(p == P1Point(1, 2), f"projection from (0:0:1) failed: {p}")


def _check_line_conic() -> None:
    conic = corpus.THREE_LINES_CONIC
    line = line_through(P2Point(0, 0, 1), P2Point(1, 1, 1))
    pts = intersect_line_conic(line, conic)
    require(len(pts) == 2 and P2Point(0, 0, 1) in pts and P2Point(1, 1, 1) in pts,
             f"x^2 = yz meets the chord in {pts}")


def _check_general_position() -> None:
    good = (P2Point(1, 0, 0), P2Point(0, 1, 0), P2Point(0, 0, 1),
            P2Point(1, 1, 1), P2Point(1, 2, 3))
    require(is_general_position(good), "standard five points are general")
    collinear = (P2Point(0, 0, 1), P2Point(1, 0, 1), P2Point(2, 0, 1))
    require(not is_general_position(collinear), "a collinear triple is not general")


GEOMETRY_CHECKS: tuple[Check, ...] = (
    ("mobius-round-trip", _check_mobius_round_trip),
    ("projection-from-center", _check_projection),
    ("line-conic-intersection", _check_line_conic),
    ("general-position", _check_general_position),
)


# picard -----------------------------------------------------------------------

_SMALL_RANK_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27}


def _check_minus_one_counts() -> None:
    for r, expected in _SMALL_RANK_COUNTS.items():
        got = len(enumerate_minus_one_classes(BlowupLattice(r)))
        require(got == expected, f"r={r}: expected {expected} classes, got {got}")


def _check_adjunction() -> None:
    lat = BlowupLattice(6)
    require(adjunction_genus(lat, -lat.canonical_class) == 1,
             "the anticanonical class of a cubic has genus 1")
    require(adjunction_genus(lat, lat.line_class()) == 0, "a line has genus 0")


def _check_jonquieres() -> None:
    marking = FiberedMarking.standard(4)
    inv = jonquieres_involution_matrix(marking)
    ident = la.identity(6)
    require(la.mat_mul(inv.generator, inv.generator) == ident,
             "the de Jonquieres matrix is an involution")
    action = LatticeAction(marking.lattice, (inv.generator,))
    rank, _basis = invariant_sublattice(action)
    require(rank == 2, f"invariant rank should be 2, got {rank}")


def _check_coxeter_rank_one() -> None:
    action = corpus.cubic_coxeter_action()
    require(action.order() == 12, "the Coxeter element has order 12")
    rank, basis = invariant_sublattice(action)
    require(rank == 1, f"invariant rank should be 1, got {rank}")
    lat = action.lattice
    require(basis[0] in (-lat.canonical_class, lat.canonical_class),
             "the fixed line should be spanned by K")


PICARD_CHECKS: tuple[Check, ...] = (
    ("minus-one-counts", _check_minus_one_counts),
    ("adjunction-genus", _check_adjunction),
    ("jonquieres-involution", _check_jonquieres),
    ("coxeter-rank-one", _check_coxeter_rank_one),
)


# square classes ----------------------------------------------------------------


def _check_stabilizer_orders() -> None:
    three = (corpus.p1(0), corpus.p1(1), corpus.p1(None))
    require(len(stabilizer(three)) == 6, "the standard triple has 6 symmetries")
    harmonic = (corpus.p1(0), corpus.p1(None), corpus.p1(1), corpus.p1(-1))
    require(len(stabilizer(harmonic)) == 8, "the harmonic quadruple has 8 symmetries")


def _check_square_class_product() -> None:
    a = square_class_of((corpus.p1(0), corpus.p1(1)))
    b = square_class_of((corpus.p1(1), corpus.p1(2)))
    c = square_class_of((corpus.p1(0), corpus.p1(2)))
    require(a * b == c, "classes multiply by symmetric difference")
    require((a * a).is_trivial(), "every class squares to the trivial one")


def _check_canonical_invariance() -> None:
    maps = (
        Mobius.from_coeffs(2, 1, 0, 1),
        Mobius.from_coeffs(0, 1, 1, 0),
        Mobius.from_coeffs(3, -2, 1, 4),
    )
    for trip in (corpus.TRIPLET_K4, corpus.HALPHEN_TRIPLET):
        base = triplet_canonical_form(trip)
        for m in maps:
            moved = triplet_canonical_form(trip.transformed(m))
            require(moved == base, f"canonical form moved under {m}")


SQUARE_CLASS_CHECKS: tuple[Check, ...] = (
    ("stabilizer-orders", _check_stabilizer_orders),
    ("square-class-product", _check_square_class_product),
    ("canonical-form-invariance", _check_canonical_invariance),
)


# bundles ------------------------------------------------------------------------


def _check_del_pezzo_partition() -> None:
    for profile in realizable_profiles(8):
        verdict = is_del_pezzo_bundle(z22_from_triplet(triplet_from_profile(profile)))
        k = sum(profile)
        if k <= 5:
            expected = "yes"
        elif k >= 8 or min(profile) == 1:
            expected = "no"
        else:
            expected = "indeterminate"
        require(verdict.kind == expected,
                 f"profile {profile}: expected {expected}, got {verdict.kind}")


def _check_solver_tables() -> None:
    table = {(s.orbit_size, s.a, s.b, s.k_squared)
             for s in minimality_obstruction_solver()}
    expected = {(1, -1, -1, 3), (2, -1, -2, 6), (4, -1, -4, 12), (4, -2, -3, 5)}
    require(table == expected, f"obstruction table changed: {table}")
    fibrations = {k2: second_fibration_solver(k2) for k2 in range(1, 9)}
    require(fibrations[8] == "p1xp1" and fibrations[4] == (1, -1)
             and fibrations[2] == (2, -1) and fibrations[1] == (4, -1)
             and all(fibrations[k2] is None for k2 in (3, 5, 6, 7)),
             f"second fibration table changed: {fibrations}")


def _check_certified_instances() -> None:
    four = corpus.four_lines_model()
    require(four.profile == (2, 2, 2), f"quadrilateral profile {four.profile}")
    require(four.certificate is not None and four.certificate.pairwise_disjoint,
             "quadrilateral certificate should give disjoint sections")
    require(is_del_pezzo_bundle(four).kind == "no", "certified (2,2,2) is not del Pezzo")
    three = corpus.three_lines_conic_model()
    require(three.profile == (2, 2, 3), f"conic instance profile {three.profile}")
    require(is_del_pezzo_bundle(three).kind == "no", "certified (2,2,3) is not del Pezzo")


def _check_halphen() -> None:
    report = halphen_check(corpus.HALPHEN_TRIPLET)
    require(report is not None and report.k_squared == 0 and report.genus == 1,
             f"Halphen report wrong: {report}")
    require(halphen_check(corpus.TRIPLET_K4) is None,
             "only profile (2,2,4) gets a Halphen report")


def _check_exceptional_swap() -> None:
    model = corpus.exceptional_model()
    rank, _basis = invariant_sublattice(model.action())
    require(rank == 2, f"swap invariant rank should be 2, got {rank}")
    require(len(model.aut.quotient_stabilizer) == 4,
             "a branch set with generic cross-ratio keeps only the double "
             "transpositions")


BUNDLE_CHECKS: tuple[Check, ...] = (
    ("del-pezzo-partition", _check_del_pezzo_partition),
    ("solver-tables", _check_solver_tables),
    ("certified-instances", _check_certified_instances),
    ("halphen-profile", _check_halphen),
    ("exceptional-swap", _check_exceptional_swap),
)


# classifier ----------------------------------------------------------------------


def _check_golden_families() -> None:
    for key, descriptor in corpus.golden_maximal_descriptors().items():
        verdict = classify(descriptor)
        family = int(key.split("-")[1])
        require(verdict.outcome == "maximal" and verdict.family == family,
                 f"{key}: got {verdict.outcome} family {verdict.family}")


def _check_golden_reductions() -> None:
    for key, descriptor in corpus.golden_reduction_descriptors().items():
        verdict = classify(descriptor)
        require(verdict.outcome == "not_maximal", f"{key}: got {verdict.outcome}")
        require(verdict.chain[-1].move == "maximal-family",
                 f"{key}: chain does not land in a family")
        degrees = [s.k_squared for s in verdict.chain if s.k_squared is not None]
        require(all(a < b for a, b in zip(degrees, degrees[1:]))
                 or all(a > b for a, b in zip(degrees, degrees[1:])),
                 f"{key}: chain degrees not strictly monotone: {degrees}")


def _check_indeterminate_path() -> None:
    bare = z22_from_triplet(corpus.four_lines_model().triplet)
    verdict = classify(Z22Descriptor(bare))
    require(verdict.outcome == "indeterminate", f"got {verdict.outcome}")


CLASSIFIER_CHECKS: tuple[Check, ...] = (
    ("golden-families", _check_golden_families),
    ("golden-reductions", _check_golden_reductions),
    ("indeterminate-path", _check_indeterminate_path),
)


SUITES: dict[str, tuple[Check, ...]] = {
    "geometry": GEOMETRY_CHECKS,
    "picard": PICARD_CHECKS,
    "square-class": SQUARE_CLASS_CHECKS,
    "bundles": BUNDLE_CHECKS,
    "classifier": CLASSIFIER_CHECKS,
}
SUITES["all"] = tuple(c for name in ("geometry", "picard", "square-class",
                                     "bundles", "classifier") for c in SUITES[name])


def suite_names() -> tuple[str, ...]:
    return tuple(SUITES)


def run_suite(name: str) -> list[tuple[str, str | None]]:
    """Run every check of the named suite; returns (check, error) pairs.

    The error slot is None on success and the stringified exception on
    failure; unknown names raise KeyError for the caller to map.
    """
    results = []
    for check_name, thunk in SUITES[name]:
        try:
            thunk()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            results.append((check_name, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((check_name, None))
    return results
