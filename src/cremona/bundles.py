"""Conic-bundle models: Klein-four actions and exceptional bundles.

The central object is a rational surface fibered in conics over P^1,
presented by its fibered Picard marking (see ``picard.FiberedMarking``)
together with involutions that act trivially on the base and swap the two
components of prescribed singular fibers.  For a fiberwise involution
swapping the fibers over a set J of base points with |J| = 2a, the action
on the lattice is forced by preserving the form, K and f:

* ``E_j -> f - E_j`` for j in J, other fiber components fixed,
* ``E_0 -> a L - (a - 1) E_0 - sum_J E_j``,
* ``L -> (a + 1) L - a E_0 - sum_J E_j``.

The branch data of a Klein four-group is a ramification triplet (module
``square_class``); the three involutions built from its sets multiply as
sigma_1 sigma_2 = sigma_3 because every point lies in exactly two sets.

A model checks each fact once.  Each involution is checked when it is
built, by ``picard.validate_involution``: it squares to the identity,
G M is symmetric for the form G = diag(1, -1, ..., -1), which for an
involution is the isometry condition (``M^T G M = (G M)^T M = G M M = G``),
and it fixes K, which nothing reads again.  The Klein-four model builds
sigma_1 and sigma_2 this way and takes sigma_3 = sigma_1 sigma_2, an
isometry fixing K, which must equal the involution of A_3 and have
G sigma_3 symmetric (so sigma_3^2 = I): {1, sigma_1, sigma_2, sigma_3} is
a group, for three sparse products.  One trace test over the group, for
{1, sigma_1, sigma_2, sigma_3} and for an exceptional bundle's {1, swap}
alike, proves that the fixed lattice is exactly Z K + Z f
(``picard.is_conic_bundle``): a conic bundle of invariant Picard rank
two.  ``action()`` returns the group as a validated ``LatticeAction``.
What follows from a construction by algebra is proved in its docstring,
not checked (``errors.require``): the square and genus of each fixed
curve, the squares, disjointness and swap of the exceptional sections,
the solver's equation, and the anticanonical Halphen curve.

Two explicit plane constructions produce such bundles with a certificate
of (-2)-sections: four general lines projected from a general center
(profile (2, 2, 2), four pairwise disjoint sections), and three lines plus
a conic in the incidence of the classical quintic construction (profile
(2, 2, 3), four sections forming two crossing pairs).  Note the (2, 2, 3)
sections cannot be pairwise disjoint: summing four disjoint (-2)-sections
would give a class -2K + b f with square 4 + 8b = -8, which has no integer
solution, while the (2, 2, 2) case takes b = -2.

A certificate is checked from the group law.  Its four classes must be
(-2)-sections with the stored intersection matrix, and must be the images
of the first one under the Klein four-group.  An orbit of four under a
group of order four is regular, so this also proves that the group
permutes them.  Each source then fixes the sorted intersections of every
section with the other three: (0, 0, 0) for four lines, (0, 0, 1) for
three lines and a conic.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple

from . import intlinalg as la
from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    InvalidCertificate,
    OddCardinality,
    QOnConfiguration,
    TooSmall,
    excerpt,
    require,
)
from .geometry import (
    Conic,
    Line,
    Mobius,
    P1Point,
    P2Point,
    intersect_line_conic,
    line_through,
    lines_meet,
    project_from,
)
from .intlinalg import Mat
from .picard import (
    BlowupLattice,
    DivisorClass,
    FiberedMarking,
    LatticeAction,
    adjunction_genus,
    intersect,
    is_conic_bundle,
    is_g_symmetric,
    validate_involution,
)
from .square_class import (
    RamificationTriplet,
    _canonical_and_stabilizer,
    branch_set,
    validate_triplet,
)

# ---------------------------------------------------------------------------
# fiberwise involutions on a marked lattice


def involution_matrix(marking: FiberedMarking, swapped: tuple[int, ...]) -> Mat:
    """The lattice action of the involution swapping the listed fibers.

    ``swapped`` holds 1-based fiber indices; its size must be even (an
    involution of the generic fiber ramifies over an even set).  The
    returned matrix is checked once, by ``picard.validate_involution``:
    it squares to the identity, G M is symmetric (so it is an isometry)
    and it fixes K.  Callers rely on that check and repeat none of it.
    """
    return validate_involution(marking.lattice, _fiberwise_matrix(marking, swapped))


def _fiberwise_matrix(marking: FiberedMarking, swapped: tuple[int, ...]) -> Mat:
    """The matrix of the module docstring's formula, unchecked."""
    idx = sorted(set(swapped))
    if len(idx) % 2 != 0:
        raise OddCardinality(f"a fiberwise involution swaps an even number of fibers, got {len(idx)}")
    if idx and not 1 <= idx[0] <= idx[-1] <= marking.k:
        raise DimensionMismatch(f"fiber indices {idx} out of range 1..{marking.k}")
    a, on = len(idx) // 2, set(idx)
    moved = tuple([1 if j in on else 0 for j in range(1, marking.k + 1)])
    # rows of the matrix whose columns are the images of L, E_0, E_1..E_k
    rows = [(a + 1, a) + moved, (-a, 1 - a) + tuple([-x for x in moved])]
    rows += [pair[m] for pair, m in zip(_fiber_rows(marking.k), moved)]
    return tuple(rows)


# built once per k, as intlinalg.identity: _fiberwise_matrix takes 1.8x as
# long when it builds each row, on the sets of the klein-four-sweep triplets
# (Python 3.11.7, shared 2-vCPU VM)
@cache
def _fiber_rows(k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Row 2 + j of a fiberwise involution on k fibers, for fiber j unmoved
    (E_j fixed) and moved (E_j -> f - E_j), as the pair (unmoved, moved)."""
    zeros = (0,) * k
    return tuple(((0, 0) + zeros[:j] + (1,) + zeros[j + 1:],
                  (-1, -1) + zeros[:j] + (-1,) + zeros[j + 1:]) for j in range(k))


class RealizationCertificate(NamedTuple):
    """Witness that a branch triplet is realized by an actual surface.

    Holds the classes of four (-2)-sections permuted transitively by the
    Klein four-group.  For the four-line construction they are pairwise
    disjoint; for the three-lines-and-conic construction they form two
    crossing pairs (see the module docstring for why disjointness is
    impossible there).
    """

    source: str  # "four-lines" | "three-lines-conic"
    section_classes: tuple[DivisorClass, DivisorClass, DivisorClass, DivisorClass]
    intersection_matrix: tuple[tuple[int, ...], ...]

    @property
    def pairwise_disjoint(self) -> bool:
        return all(
            self.intersection_matrix[i][j] == 0
            for i in range(4) for j in range(4) if i != j)


class Z22BundleModel(NamedTuple):
    """A conic bundle with a Klein four-group acting trivially on the base."""

    marking: FiberedMarking
    triplet: RamificationTriplet
    generators: tuple[Mat, Mat, Mat]
    certificate: RealizationCertificate | None = None

    @property
    def k(self) -> int:
        return self.marking.k

    @property
    def profile(self) -> tuple[int, int, int]:
        return self.triplet.profile

    @property
    def k_squared(self) -> int:
        return 8 - self.k

    def action(self) -> LatticeAction:
        return LatticeAction(self.marking.lattice, self.generators[:2])


def z22_from_triplet(
    triplet: RamificationTriplet,
    certificate: RealizationCertificate | None = None,
) -> Z22BundleModel:
    """Build the marked lattice model of a branch triplet.

    The support points become the singular fibers (in canonical order):
    E_j of ``FiberedMarking.standard(k)`` lies over the j-th support point.
    Each branch set, read as its index set (``triplet.indices``), yields the
    involution swapping exactly its fibers.
    Each fact is checked once, in this order: ``involution_matrix`` checks
    sigma_1 and sigma_2 (involutive isometries fixing K); their product
    sigma_3 equals the involution of A_3 and, by ``is_g_symmetric``, squares
    to the identity, so {1, sigma_1, sigma_2, sigma_3} is a group; then, on
    that whole group, that the invariant lattice is Z K + Z f.  A failure
    of the last three raises InvariantViolation.
    """
    marking = FiberedMarking.standard(len(triplet.support))
    fibers = [tuple([i + 1 for i in s]) for s in triplet.indices]
    s1, s2 = involution_matrix(marking, fibers[0]), involution_matrix(marking, fibers[1])
    s3 = la.mat_mul(s1, s2)
    require(s3 == _fiberwise_matrix(marking, fibers[2]), "sigma_1 sigma_2 != sigma_3")
    require(is_g_symmetric(s3), "sigma_1 sigma_2 does not square to the identity")
    model = Z22BundleModel(marking, triplet, (s1, s2, s3), certificate)
    require(is_conic_bundle(marking, model.generators),
            "the fixed lattice of the Klein four-group model is not Z K + Z f")
    if certificate is not None:
        _check_certificate(model, certificate)
    return model


#: per source: the sorted intersections of each section with the other three
_SECTION_PATTERNS = {
    "four-lines": ((0, 0, 0), "four-line certificates must have disjoint sections"),
    "three-lines-conic": (
        (0, 0, 1), "three-lines-conic certificates must have exactly two crossing pairs"),
}


def _intersection_matrix(lattice: BlowupLattice, classes) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(intersect(lattice, s, t) for t in classes) for s in classes)


def _check_certificate(model: Z22BundleModel, cert: RealizationCertificate) -> None:
    lat = model.marking.lattice
    f = model.marking.fiber_class
    secs = cert.section_classes
    if len(secs) != 4:
        raise InvalidCertificate("a realization certificate lists exactly four sections")
    for s in secs:
        if intersect(lat, s, s) != -2 or intersect(lat, s, f) != 1:
            raise InvalidCertificate(f"{excerpt(s)} is not a (-2)-section")
    matrix = _intersection_matrix(lat, secs)
    if matrix != cert.intersection_matrix:
        raise InvalidCertificate("stored intersection matrix does not match the classes")
    first = secs[0].coeffs
    orbit = {first} | {la.mat_vec(g, first) for g in model.generators}
    if len(orbit) != 4 or orbit != {s.coeffs for s in secs}:
        raise InvalidCertificate(
            "the certificate sections are not one orbit of four under the Klein four-group")
    if cert.source not in _SECTION_PATTERNS:
        raise InvalidCertificate(f"unknown certificate source {excerpt(cert.source)}")
    pattern, message = _SECTION_PATTERNS[cert.source]
    if any(tuple(sorted(row[:i] + row[i + 1:])) != pattern for i, row in enumerate(matrix)):
        raise InvalidCertificate(message)


class FixedCurve(NamedTuple):
    """The fixed curve of one involution: class, self-intersection, genus."""

    divisor: DivisorClass
    self_intersection: int
    genus: int


def fixed_curve_class(model: Z22BundleModel, i: int) -> FixedCurve:
    """Fixed curve of sigma_i (1-based): a double cover of P^1 over A_i.

    Its class D is ``-K + (a_i - 2) f``, of square ``4 a_i - k`` and, by
    adjunction, genus ``a_i - 1``.  Neither is checked: K^2 = 8 - k,
    K.f = -2 and f^2 = 0 give D^2 = 8 - k + 4 (a_i - 2), and
    2 g - 2 = D^2 + K.D = 4 a_i - k - (8 - k) - 2 (a_i - 2) = 2 a_i - 4.
    """
    if not 1 <= i <= 3:
        raise DimensionMismatch(f"involution index must be 1, 2 or 3, got {i}")
    a_i = model.profile[i - 1]
    lat = model.marking.lattice
    divisor = -lat.canonical_class + (a_i - 2) * model.marking.fiber_class
    return FixedCurve(divisor, intersect(lat, divisor, divisor), adjunction_genus(lat, divisor))


# ---------------------------------------------------------------------------
# del Pezzo decision


class DelPezzoVerdict(NamedTuple):
    kind: str  # "yes" | "no" | "indeterminate"
    reason: str


def del_pezzo_verdict_for_profile(
    profile: tuple[int, int, int], certified: bool = False
) -> DelPezzoVerdict:
    """The purely numerical del Pezzo decision for a branch profile.

    This works on the half-sizes alone, so it also answers for formal
    profiles that no actual triplet realizes (a triplet forces the
    triangle inequality a_3 <= a_1 + a_2; the rule below does not need it).
    """
    a = tuple(sorted(profile))
    if len(a) != 3:
        raise DimensionMismatch(f"a profile has three half-sizes, got {profile}")
    if a[0] < 1:
        raise TooSmall(f"every half-size of a profile is at least 1, got {profile}")
    k = sum(a)
    if k >= 8:
        return DelPezzoVerdict("no", f"K^2 = {8 - k} <= 0")
    if k <= 5:
        return DelPezzoVerdict("yes", f"K^2 = {8 - k} >= 3")
    if a[0] == 1:
        return DelPezzoVerdict(
            "no",
            f"the involution with two branch points fixes a rational curve "
            f"of self-intersection {4 - k} <= -2")
    if certified:
        return DelPezzoVerdict(
            "no", "a realized surface here carries four (-2)-sections")
    return DelPezzoVerdict(
        "indeterminate",
        f"profile {a} needs a geometric realization certificate to decide")


def is_del_pezzo_bundle(model: Z22BundleModel) -> DelPezzoVerdict:
    """Decide whether the total space of the bundle is a del Pezzo surface."""
    return del_pezzo_verdict_for_profile(
        model.profile, certified=model.certificate is not None)


# ---------------------------------------------------------------------------
# the two plane constructions


def _distinct(values, error: str) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise DegenerateConfiguration(error + f" (repeated: {excerpt(v)})")
        seen.add(v)


def _certificate(source: str, triplet: RamificationTriplet, sections) -> RealizationCertificate:
    """The certificate of sections given as (degree, E_0 coefficient, base
    points of the fibers met in E_j), in the marking ``z22_from_triplet``
    builds: E_j lies over the j-th support point."""
    column = {p: j for j, p in enumerate(triplet.support, start=2)}
    classes = []
    for degree, e0, through in sections:
        coeffs = [degree, e0] + [0] * len(column)
        for p in through:
            coeffs[column[p]] = -1
        classes.append(DivisorClass(tuple(coeffs)))
    lattice = BlowupLattice(len(column) + 1)
    return RealizationCertificate(source, tuple(classes), _intersection_matrix(lattice, classes))


def build_from_four_lines(lines, center: P2Point) -> Z22BundleModel:
    """The Klein-four conic bundle over the pencil through ``center``.

    Four lines in general position meet in six points; projecting from a
    general center realizes the branch profile (2, 2, 2), each involution
    swapping the fibers over the four double points away from one of the
    three opposite pairs.  The strict transforms of the four lines are
    pairwise disjoint (-2)-sections permuted transitively, and they are
    attached as the realization certificate.
    """
    ls: tuple[Line, ...] = tuple(lines)
    if len(ls) != 4:
        raise DegenerateConfiguration(f"need exactly four lines, got {len(ls)}")
    _distinct(ls, "the four lines must be distinct")
    for l in ls:
        if l.contains(center):
            raise QOnConfiguration(f"center {excerpt(center)} lies on {excerpt(l)}")

    double_points: dict[tuple[int, int], P2Point] = {}
    for i, j in itertools.combinations(range(4), 2):
        double_points[(i, j)] = lines_meet(ls[i], ls[j])
    _distinct(double_points.values(), "three of the lines are concurrent")

    proj = {pair: project_from(center, pt) for pair, pt in double_points.items()}
    _distinct(
        proj.values(),
        "the center sees two double points in the same direction")

    pairings = (
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    )
    branch_sets = []
    for pairing in pairings:
        others = [proj[p] for p in double_points if p not in pairing]
        branch_sets.append(tuple(others))
    triplet = validate_triplet(*branch_sets)

    sections = [(1, 0, [proj[pair] for pair in double_points if i in pair]) for i in range(4)]
    return z22_from_triplet(triplet, _certificate("four-lines", triplet, sections))


def build_from_three_lines_conic(
    lines, conic: Conic, d1: P2Point, d2: P2Point
) -> Z22BundleModel:
    """The profile (2, 2, 3) bundle from a conic and three transverse lines.

    The incidence required: ``d1`` is the intersection of two of the lines
    (and is off the conic), ``d2`` lies on the third line and on the conic.
    The projection center is the second intersection of the line ``d1 d2``
    with the conic; seven points are blown up (the remaining intersections
    of the configuration), giving seven singular fibers and the sections
    certificate with two crossing pairs.
    """
    ls: tuple[Line, ...] = tuple(lines)
    if len(ls) != 3:
        raise DegenerateConfiguration(f"need exactly three lines, got {len(ls)}")
    _distinct(ls, "the three lines must be distinct")
    if not conic.is_smooth():
        raise DegenerateConfiguration("the conic must be smooth")

    on = [l.contains(d1) for l in ls]
    if sum(on) != 2:
        raise DegenerateConfiguration(
            f"d1 = {excerpt(d1)} must lie on exactly two of the lines, lies on {sum(on)}")
    ia, ib = (i for i in range(3) if on[i])
    ic = next(i for i in range(3) if not on[i])
    la_, lb_, lc_ = ls[ia], ls[ib], ls[ic]
    if conic.contains(d1):
        raise DegenerateConfiguration("d1 must be off the conic")
    if not lc_.contains(d2):
        raise DegenerateConfiguration("d2 must lie on the third line")
    if not conic.contains(d2):
        raise DegenerateConfiguration("d2 must lie on the conic")

    a3 = lines_meet(la_, lc_)
    b3 = lines_meet(lb_, lc_)
    _distinct((d1, a3, b3), "the three lines are concurrent")
    for name, pt in (("La.Lc", a3), ("Lb.Lc", b3)):
        if conic.contains(pt):
            raise DegenerateConfiguration(
                f"the double point {name} = {excerpt(pt)} lies on the conic")

    def conic_chord(line: Line, label: str) -> tuple[P2Point, P2Point]:
        pts = intersect_line_conic(line, conic)
        if len(pts) != 2:
            raise DegenerateConfiguration(f"{label} is tangent to the conic")
        return pts

    a1, a2 = conic_chord(la_, "the first line through d1")
    b1, b2 = conic_chord(lb_, "the second line through d1")
    # d2 lies on the third line and on the conic, so it is one of c_pts
    c = next(p for p in conic_chord(lc_, "the third line") if p != d2)

    blown = (a1, a2, a3, b1, b2, b3, c)
    _distinct(blown + (d1, d2), "the configuration points must be distinct")

    # d1 is off the conic and d2 on it, so they differ
    center = next(p for p in conic_chord(line_through(d1, d2), "the line d1 d2") if p != d2)
    # The center is on the conic and on d1 d2, and is neither d2 nor d1 (off
    # the conic).  d1 d2 meets the first two lines only at d1 (d2 on either
    # would be a3 or b3, off the conic) and the third only at d2.  So the center
    # is on no line, and no blown-up point (not d1, not d2) is on d1 d2.
    proj = {pt: project_from(center, pt) for pt in blown}
    require(project_from(center, d1) == project_from(center, d2),
            "d1 and d2 project to different fibers")
    _distinct(proj.values(), "the center sees two blown-up points in the same direction")

    branch_a = (proj[a1], proj[a2], proj[b3], proj[c])
    branch_b = (proj[b1], proj[b2], proj[a3], proj[c])
    branch_c = (proj[a1], proj[a2], proj[a3], proj[b1], proj[b2], proj[b3])
    triplet = validate_triplet(branch_a, branch_b, branch_c)

    sections = [
        (degree, e0, [proj[pt] for pt in through])
        for degree, e0, through in ((1, 0, (a1, a2, a3)), (1, 0, (b1, b2, b3)),
                                    (1, 0, (a3, b3, c)), (2, -1, (a1, a2, b1, b2, c)))
    ]
    return z22_from_triplet(triplet, _certificate("three-lines-conic", triplet, sections))


# ---------------------------------------------------------------------------
# the degree 5 interior case: the de Jonquieres involution on four points


class JonquieresInvolution(NamedTuple):
    """The involution fixing a pencil of conics through four points.

    ``generator`` acts in the standard basis (L, E_0, E_1..E_4).
    """

    generator: Mat


def jonquieres_involution_matrix(marking: FiberedMarking) -> JonquieresInvolution:
    """The fiberwise involution swapping all four singular fibers (a = 2)."""
    if marking.k != 4:
        raise DimensionMismatch(f"this involution lives on a four-fiber marking, got k={marking.k}")
    return JonquieresInvolution(involution_matrix(marking, (1, 2, 3, 4)))


# ---------------------------------------------------------------------------
# exceptional bundles


class ExceptionalBundleModel(NamedTuple):
    """The minimal bundle with two (-n)-sections swapped by an involution.

    Its automorphism group is an extension of the stabilizer of the branch
    set in PGL(2, Q) by the kernel of the action on the base, the
    fiberwise torus extended by the component swap (``KERNEL_TAG``).  For
    2n >= 4 that is the full automorphism group of the surface; for 2n = 2
    the surface is the del Pezzo of degree 6, whose automorphisms do not
    all preserve the ruling.
    """

    KERNEL_TAG = "C^* : Z/2"

    marking: FiberedMarking
    delta: tuple[P1Point, ...]
    swap: Mat
    section_classes: tuple[DivisorClass, DivisorClass]
    #: the Moebius canonical form of ``delta`` and the Moebius stabilizer
    #: of ``delta`` (both None for 2n = 2)
    canonical_delta: tuple[P1Point, ...] | None
    stabilizer: tuple[Mobius, ...] | None

    @property
    def n(self) -> int:
        return len(self.delta) // 2

    @property
    def equals_full_automorphisms(self) -> bool:
        return self.n >= 2

    @property
    def k_squared(self) -> int:
        return 8 - len(self.delta)

    def action(self) -> LatticeAction:
        return LatticeAction(self.marking.lattice, (self.swap,))


def exceptional_from_delta(delta) -> ExceptionalBundleModel:
    """Build the exceptional bundle branched over the given point set.

    The marking is ``FiberedMarking.standard(2n)``: E_j lies over the j-th
    point of the sorted set, which the model keeps as ``delta``.
    The swap exchanges the components of every singular fiber: +1 twice
    (on K and f) and -1 on the 2n classes ``f - 2 E_j``.  That split is
    proved by ``is_conic_bundle(marking, (swap,))``: each ``f - 2 E_j`` is
    orthogonal to K and f, and an isometric involution's (-1)-eigenspace is
    the orthogonal complement of its fixed space, so that is Q K + Q f
    exactly when (2n + 2) + tr(swap) = 4.  The sections
    ``s_1 = L - E_1 - ... - E_{n+1}`` and ``s_2 = E_0 - E_{n+2} - ... - E_{2n}``
    then need no check: by inspection both have square -n and s_1.s_2 = 0;
    s_1 + s_2 = -K - 2 f and s_1 - s_2 is orthogonal to K and f, so the
    swap sends s_1 to s_2.
    """
    pts = branch_set(delta, "the branch set")
    n = len(pts) // 2
    marking = FiberedMarking.standard(2 * n)
    swap = involution_matrix(marking, tuple(range(1, 2 * n + 1)))
    require(is_conic_bundle(marking, (swap,)), "the fixed lattice of the swap is not Z K + Z f")
    s1 = DivisorClass((1, 0) + (-1,) * (n + 1) + (0,) * (n - 1))
    s2 = DivisorClass((0, 1) + (0,) * (n + 1) + (-1,) * (n - 1))

    # pts is sorted and checked, so the canonical form and stabilizer skip a
    # second check and sort: 3% of exceptional_from_delta on the branch-delta
    # sets (Python 3.11.7, shared 2-vCPU VM)
    canon, stab = _canonical_and_stabilizer(pts) if n >= 2 else (None, None)
    return ExceptionalBundleModel(marking, pts, swap, (s1, s2), canon, stab)


# ---------------------------------------------------------------------------
# numerical solvers


class ObstructionSolution(NamedTuple):
    """One solution of the equivariant contraction constraints.

    ``orbit_size`` disjoint (-1)-curves contracted in a single orbit give
    a new fibration pulled back along ``-a K + b f``; the constraints are
    ``a (orbit_size + 2 b) = orbit_size`` with ``a < 0`` and integer
    ``K^2 = (2 b - orbit_size) / a`` for the starting surface.
    """

    orbit_size: int
    a: int
    b: int
    k_squared: int


def minimality_obstruction_solver(k: int | None = None) -> tuple[ObstructionSolution, ...]:
    """Solve the contraction constraints, optionally filtered to one bundle.

    With ``k`` given, keeps the solutions whose ``k_squared`` equals
    ``8 - k``; a nonempty answer means a numerical obstruction to
    minimality exists (the converse needs the orbit computation).  Each
    solution solves ``a (l + 2 b) = l`` by construction: a divides l and
    ``2 b = l / a - l``.
    """
    out = []
    for l in (1, 2, 4):  # the orbit sizes of a Klein four-group
        for a in range(-l, 0):
            if l % a != 0:
                continue
            twice_b = l // a - l
            if twice_b % 2 != 0:
                continue
            b = twice_b // 2
            q, rem = divmod(2 * b - l, a)
            if rem != 0:
                continue
            out.append(ObstructionSolution(l, a, b, q))
    if k is not None:
        out = [s for s in out if s.k_squared == 8 - k]
    return tuple(sorted(out))


def second_fibration_solver(k_squared: int):
    """A second fibration class ``-a K + b f`` with the right numerics.

    Solved from ``a K^2 = 4`` with ``b = -1``; returns the pair ``(a, b)``,
    the sentinel string ``"p1xp1"`` for ``K^2 = 8`` (where the second
    ruling exists for the trivial reason), or None.
    """
    if k_squared == 8:
        return "p1xp1"
    if k_squared > 0 and 4 % k_squared == 0:
        return (4 // k_squared, -1)
    return None


# ---------------------------------------------------------------------------
# Halphen: the K^2 = 0 boundary profile


class HalphenReport(NamedTuple):
    """The (2, 2, 4) boundary case: elliptic fixed curves, K^2 = 0.

    Here the full automorphism group of the surface is not an algebraic
    group, but the subgroup preserving the fibration is, and it is maximal
    (the last family of the classification).
    """

    k_squared: int
    fixed_curve: DivisorClass
    genus: int
    note: str


def halphen_check(triplet: RamificationTriplet) -> HalphenReport | None:
    """Report the special structure for profile (2, 2, 4), else None.

    The profile forces A_3 = A_1 + A_2 disjointly, k = 8, K^2 = 0, and the
    involutions with four branch points fix curves of class -K, genus one.
    """
    if triplet.profile != (2, 2, 4):
        return None
    # a_1 = 2, so the class -K + (a_1 - 2) f of fixed_curve_class is -K, of
    # square 0 and genus 1, on the lattice of E_0 and the k = 8 fibers
    return HalphenReport(
        k_squared=0,
        fixed_curve=-BlowupLattice(9).canonical_class,
        genus=1,
        note=("the full automorphism group of the surface is not algebraic; "
              "the subgroup preserving the fibration is, and it is maximal"),
    )
