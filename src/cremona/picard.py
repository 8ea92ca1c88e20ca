"""Picard lattices of blowups of the plane and group actions on them.

The lattice of the blowup of P^2 at r points has the orthogonal basis
``(L, E_1, ..., E_r)`` with ``L^2 = 1`` and ``E_i^2 = -1``; the canonical
class is ``K = -3L + sum E_i``.  Divisor classes are integer coefficient
vectors in that basis.  Group actions are finite sets of integer matrices
preserving the intersection form and fixing K.

The fibered variant used by the conic-bundle constructions relabels the
first exceptional class as ``E_0`` (the blown-up projection center) and
carries the fiber class ``f = L - E_0`` together with the base point of
P^1 under each remaining ``E_j``.  ``is_conic_bundle``, the one
conic-bundle test of the package, checks by traces and with no row
reduction that a group's fixed lattice on such a marking is exactly
Z K + Z f, a conic bundle of invariant Picard rank two; it trusts the
checks below for K.

A matrix is checked when it enters: ``validate_action`` for a general
isometry (``M^T G M = G`` for G = diag(1, -1, ..., -1), as the one sparse
product of ``M^T`` with ``G M``), and ``validate_involution`` for a matrix
that must square to the identity: then M is an isometry exactly when G M is
symmetric, as ``M^T G M = (G M)^T M = G M M = G``, so an involution costs a
sparse square and n(n-1)/2 entry comparisons; ``is_g_symmetric`` proves a
product of two of them involutive with no square.  Later computations trust
the checked matrices; ``orbits`` checks each length once, for the whole pool.

``invariant_sublattice`` runs over Z with unimodular row reduction, so the
invariant sublattice comes out saturated, with a canonical Hermite basis.
The number of blowups is capped at 13, enough for an exceptional bundle
with twelve singular fibers; the expensive operation, (-1)-class
enumeration, has its own cap at r = 8.
"""

from __future__ import annotations

import itertools
import math

from . import intlinalg as la
from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    MovesCanonicalClass,
    NotClosedUnderAction,
    NotInvolution,
    NotIsometry,
    UnsupportedRank,
    excerpt,
)
from .geometry import P1Point, _Frozen
from .intlinalg import Mat, Vec

MAX_BLOWUPS = 13


class DivisorClass(_Frozen):
    """An integer divisor class; ``coeffs[0]`` is the L coefficient."""

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: Vec) -> None:
        object.__setattr__(self, "coeffs", tuple(map(int, coeffs)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, n: int) -> "DivisorClass":
        return DivisorClass(tuple(n * a for a in self.coeffs))

    def __lt__(self, other: "DivisorClass") -> bool:
        return self.coeffs < other.coeffs

    def __repr__(self) -> str:
        return f"D{self.coeffs}"


class BlowupLattice(_Frozen):
    """The Picard lattice of P^2 blown up at ``r`` distinct points."""

    __slots__ = __match_args__ = ("r",)

    def __init__(self, r: int) -> None:
        if not 0 <= r <= MAX_BLOWUPS:
            raise UnsupportedRank(
                f"blowups of the plane at up to {MAX_BLOWUPS} points only, got r={excerpt(r)}")
        object.__setattr__(self, "r", r)

    @property
    def rank(self) -> int:
        return self.r + 1

    @property
    def canonical_class(self) -> DivisorClass:
        return DivisorClass((-3,) + (1,) * self.r)

    def line_class(self) -> DivisorClass:
        return DivisorClass((1,) + (0,) * self.r)

    def exceptional_class(self, i: int) -> DivisorClass:
        """E_i for 1 <= i <= r."""
        if not 1 <= i <= self.r:
            raise DimensionMismatch(f"no exceptional class E_{i} on a lattice with r={self.r}")
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return DivisorClass(tuple(coeffs))


def _check_vector(lattice: BlowupLattice, d: DivisorClass) -> Vec:
    if len(d.coeffs) != lattice.rank:
        raise DimensionMismatch(
            f"divisor has {len(d.coeffs)} coordinates, lattice rank is {lattice.rank}")
    return d.coeffs


def intersect(lattice: BlowupLattice, d1: DivisorClass, d2: DivisorClass) -> int:
    """The intersection number in the diagonal form (1, -1, ..., -1)."""
    v = _check_vector(lattice, d1)
    w = _check_vector(lattice, d2)
    return v[0] * w[0] - sum(a * b for a, b in zip(v[1:], w[1:]))


def adjunction_genus(lattice: BlowupLattice, d: DivisorClass) -> int:
    """The arithmetic genus ``1 + (D^2 + D.K) / 2``.

    For ``D = d L + sum c_i E_i``, ``D^2 + D.K = d (d - 3) - sum c_i (c_i + 1)``
    is a sum of products of consecutive integers, so always even.
    """
    self_int = intersect(lattice, d, d)
    with_k = intersect(lattice, d, lattice.canonical_class)
    return 1 + (self_int + with_k) // 2


def enumerate_minus_one_classes(lattice: BlowupLattice) -> tuple[DivisorClass, ...]:
    """All classes with ``D^2 = D.K = -1``, sorted, for ``1 <= r <= 8``.

    Writing ``D = d L - sum m_i E_i`` the two conditions say
    ``d^2 - sum m_i^2 = -1`` and ``3d - sum m_i = 1``.  Cauchy-Schwarz on
    the multiplicity vector gives ``(3d - 1)^2 <= r (d^2 + 1)``; for
    ``r <= 8`` that means ``-1 <= d <= 7``, and ``d = 7`` forces all eight
    multiplicities equal to ``20/8``, which is not an integer, so the search
    scans ``-1 <= d <= 6``; at ``r = 8`` it reaches ``d = 6``.
    """
    r = lattice.r
    if not 1 <= r <= 8:
        raise UnsupportedRank(f"(-1)-class enumeration supports 1 <= r <= 8, got r={r}")

    found: list[DivisorClass] = []

    def extend(prefix: list[int], remaining: int, lin: int, quad: int) -> None:
        # need sum of `remaining` ints equal to lin, sum of squares quad
        if remaining == 0:
            if lin == 0 and quad == 0:
                found.append(DivisorClass((prefix[0],) + tuple(-m for m in prefix[1:])))
            return
        if quad < 0 or lin * lin > remaining * quad:
            return
        bound = math.isqrt(quad)
        for m in range(-bound, bound + 1):
            extend(prefix + [m], remaining - 1, lin - m, quad - m * m)

    for d in range(-1, 7):
        # multiplicities m_i satisfy sum m_i = 3d - 1, sum m_i^2 = d^2 + 1
        extend([d], r, 3 * d - 1, d * d + 1)
    return tuple(sorted(found))


def _square_matrix(lattice: BlowupLattice, matrix: Mat) -> Mat:
    m = la.freeze(matrix)
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise DimensionMismatch(f"action matrix must be {n} x {n}")
    return m


def _check_fixes_k(lattice: BlowupLattice, m: Mat) -> Mat:
    k = lattice.canonical_class.coeffs
    if la.mat_vec(m, k) != k:
        raise MovesCanonicalClass("matrix moves the canonical class")
    return m


def _times_g(m: Mat) -> Mat:
    """G M for G = diag(1, -1, ..., -1): every row but the first negated."""
    return m[:1] + tuple([tuple([-x for x in row]) for row in m[1:]])


def validate_action(lattice: BlowupLattice, matrix: Mat) -> Mat:
    """Check that a matrix is an isometry fixing K; returns it frozen.

    The matrix acts on coefficient columns: ``D -> M @ D``.  It preserves
    the diagonal form G exactly when ``M^T G M = G``, which is checked as
    written, on the one sparse product of ``M^T`` with ``G M``.
    """
    m = _square_matrix(lattice, matrix)
    if la.mat_mul(la.transpose(m), _times_g(m)) != _times_g(la.identity(len(m))):
        raise NotIsometry("matrix does not preserve the intersection form")
    return _check_fixes_k(lattice, m)


def validate_involution(lattice: BlowupLattice, matrix: Mat) -> Mat:
    """Check that a matrix is an involutive isometry fixing K; returns it frozen.

    Accepts exactly the matrices that ``validate_action`` accepts and that
    square to the identity.  Given ``M^2 = I``, M preserves G exactly when
    G M is symmetric: then ``M^T G M = (G M)^T M = G M M = G``, and
    conversely ``M^T G = G M^{-1} = G M``.
    """
    m = _square_matrix(lattice, matrix)
    if la.mat_mul(m, m) != la.identity(len(m)):
        raise NotInvolution("matrix does not square to the identity")
    if not is_g_symmetric(m):
        raise NotIsometry("matrix does not preserve the intersection form")
    return _check_fixes_k(lattice, m)


def is_g_symmetric(m: Mat) -> bool:
    """Whether G M is symmetric: ``M[0][j] == -M[j][0]``, ``M[i][j] == M[j][i]``
    for i, j > 0.  For ``M = a b`` with a, b accepted by ``validate_involution``
    this holds exactly when ``M^2 = I``: ``a^T G = G a`` and ``b^T G = G b`` give
    ``(G a b)^T = G b a``, which is G M exactly when a and b commute."""
    cols = list(zip(*m))
    return (m[0][1:] == tuple([-x for x in cols[0][1:]])
            and [row[1:] for row in m[1:]] == [col[1:] for col in cols[1:]])


def reflection_matrix(lattice: BlowupLattice, root: DivisorClass) -> Mat:
    """The isometry ``x -> x + (x . root) root`` for a root of square -2.

    As ``x . root = x^T G root``, entry (i, j) is ``delta_ij + root_i (G root)_j``.
    Reflections in (-2)-classes orthogonal to K generate the Weyl group of
    the lattice; products of them are the standard way to build actions.

    The two root checks prove the result an isometry fixing K, so it is not
    checked again: with s(x) = x + (x . r) r, ``s(x) . s(y) = x . y +
    (x . r)(y . r)(2 + r . r)``, which is x . y when r . r = -2, and
    ``s(K) = K + (K . r) r`` is K when r . K = 0.
    """
    square = intersect(lattice, root, root)
    if square != -2:
        raise NotIsometry(f"reflection needs a class of square -2, got {square}")
    if intersect(lattice, root, lattice.canonical_class) != 0:
        raise MovesCanonicalClass("reflection root must be orthogonal to K")
    r = root.coeffs
    g_r = (r[0],) + tuple([-x for x in r[1:]])
    return tuple(tuple([(i == j) + a * b for j, b in enumerate(g_r)]) for i, a in enumerate(r))


class LatticeAction(_Frozen):
    """A finite group of validated isometries, given by generators."""

    __slots__ = __match_args__ = ("lattice", "generators")

    def __init__(self, lattice: BlowupLattice, generators: tuple[Mat, ...]) -> None:
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "generators", tuple(validate_action(lattice, g) for g in generators))


def invariant_sublattice(action: LatticeAction) -> tuple[int, tuple[DivisorClass, ...]]:
    """Rank and canonical basis of the fixed sublattice of the action.

    The saturated integer kernel of the rows of ``M - I`` over the
    generators is the full group-invariant sublattice (fixing the
    generators fixes the group), with a Hermite-form basis.
    """
    # zero and repeated rows of the stacked M - I change neither the kernel
    # nor its Hermite basis, so only the distinct nonzero rows are reduced (a
    # fiberwise involution has a zero row for every fiber it leaves alone,
    # and the swapped rows repeat between generators)
    rows: dict[Vec, None] = {}
    for g in action.generators:
        for i, row in enumerate(g):
            moved = row[:i] + (row[i] - 1,) + row[i + 1:]
            if any(moved):
                rows[moved] = None
    kernel = la.kernel_basis(tuple(rows)) if rows else la.identity(action.lattice.rank)
    return len(kernel), tuple(DivisorClass(row) for row in kernel)


def orbits(
    action: LatticeAction, classes: tuple[DivisorClass, ...] | list[DivisorClass]
) -> tuple[tuple[DivisorClass, ...], ...]:
    """The orbit partition of the given classes, deterministically ordered.

    Orbits are closed under the generators; stepping outside the supplied
    set raises NotClosedUnderAction.  Each orbit is sorted and the orbits
    are listed by their smallest element.  Lengths are checked once, for
    the whole pool: an image outside the pool is refused anyway.
    """
    pool = {d for d in classes}
    for d in pool:
        _check_vector(action.lattice, d)
    remaining = set(pool)
    parts: list[tuple[DivisorClass, ...]] = []
    for seed in sorted(pool):
        if seed not in remaining:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for d in frontier:
                for g in action.generators:
                    image = DivisorClass(la.mat_vec(g, d.coeffs))
                    if image not in pool:
                        raise NotClosedUnderAction(
                            f"{g} maps {d} to {image}, outside the supplied classes")
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        remaining -= orbit
        parts.append(tuple(sorted(orbit)))
    return tuple(parts)


def is_pair_minimal(
    lattice: BlowupLattice, action: LatticeAction
) -> tuple[bool, tuple[DivisorClass, ...] | None]:
    """Whether no orbit of (-1)-classes is pairwise disjoint.

    A pairwise disjoint orbit can be contracted equivariantly, so the pair
    (surface, group) is minimal exactly when there is none.  Returns the
    witness orbit when one exists.  For the trivial group every orbit is a
    single (-1)-class, so the answer is always False there.
    """
    classes = enumerate_minus_one_classes(lattice)
    for orbit in orbits(action, classes):
        disjoint = all(
            intersect(lattice, d1, d2) == 0
            for d1, d2 in itertools.combinations(orbit, 2)
        )
        if disjoint:
            return False, orbit
    return True, None


class FiberedMarking(_Frozen):
    """A blowup lattice marked as a conic bundle over P^1.

    ``lattice.r == k + 1``: the class ``E_0`` is the blown-up projection
    center and ``E_1, ..., E_k`` sit over the distinct base points listed
    in ``base_points``.  The fiber class is ``f = L - E_0``.
    """

    __slots__ = __match_args__ = ("lattice", "base_points")

    def __init__(self, lattice: BlowupLattice, base_points: tuple[P1Point, ...]) -> None:
        pts = tuple(base_points)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "base_points", pts)
        if len(set(pts)) != len(pts):
            raise DuplicatePoint("base points of the singular fibers must be distinct")
        if lattice.r != len(pts) + 1:
            raise DimensionMismatch(
                f"marking with {len(pts)} fibers needs r = {len(pts) + 1}, lattice has r = {lattice.r}")

    @classmethod
    def standard(cls, k: int) -> "FiberedMarking":
        """A marking over the base points 0, 1, ..., k-1."""
        return cls(BlowupLattice(k + 1), tuple(P1Point(j, 1) for j in range(k)))

    @property
    def k(self) -> int:
        return len(self.base_points)

    @property
    def fiber_class(self) -> DivisorClass:
        coeffs = [0] * self.lattice.rank
        coeffs[0] = 1
        coeffs[1] = -1
        return DivisorClass(tuple(coeffs))

    @property
    def section_class(self) -> DivisorClass:
        """E_0, the exceptional curve of the center, a (-1)-section."""
        return self.lattice.exceptional_class(1)

    def fiber_component(self, j: int) -> DivisorClass:
        """E_j over the j-th base point, 1-indexed."""
        if not 1 <= j <= self.k:
            raise DimensionMismatch(f"fiber index {j} out of range 1..{self.k}")
        return self.lattice.exceptional_class(j + 1)


def is_conic_bundle(marking: FiberedMarking, elements: tuple[Mat, ...]) -> bool:
    """Whether the fixed lattice F of a finite group G is Z K + Z f on the nose.

    ``elements`` are the non-identity elements of G, each checked by
    ``validate_involution`` or ``validate_action``, or a product of two
    involutions so checked (``is_g_symmetric``), so each fixes K.  F is
    saturated, so it equals Z K + Z f exactly when every element fixes f,
    Z K + Z f is saturated (its minor on the columns L, E_1 is -1; with no
    fibers its index is 2), and F has rank 2.  Over Q that rank is
    (1/|G|) sum of tr(g) over G (Serre, Linear Representations of Finite
    Groups, 2.3), so the test is n + sum of tr(g) over the elements = 2 |G|.
    """
    k, f = marking.lattice.canonical_class.coeffs, marking.fiber_class.coeffs
    n = len(k)
    return (n > 2 and k[0] * f[2] - k[2] * f[0] == -1
            and all(la.mat_vec(g, f) == f for g in elements)
            and n + sum(g[i][i] for g in elements for i in range(n)) == 2 * (len(elements) + 1))
