"""The dense lattice kernel as it was before the sparse rewrite.

These copies are the reference the sparse kernel must agree with, entry
for entry and error class for error class: the dense product through the
transpose, the isometry check as a full ``M^T G M`` product against the
dense Gram matrix, the Hermite form on two separate arrays, the
fiberwise involution assembled with ``DivisorClass`` arithmetic, and the
invariant sublattice from every stacked row of ``M - I``.  The group order
of an action comes from a breadth-first closure under the generators.

The records of the package are kept here as the frozen dataclasses they
were, under their own names (so that default reprs read the same), for
``tests/test_records.py`` to compare with the lighter records.

``reference_build_from_three_lines_conic`` is the three-lines-and-conic
builder with every check it had before the unreachable ones were deleted.
It raises ``AlignmentViolation``, a class of its own, where the builder
now raises DegenerateConfiguration for two blown-up points in one fiber.

``reference_least_pinnings`` is the canonical-form kernel's first pass as
it was before it read each pair's candidates off the cyclic order of the
support: it scans every pinned triple, k(k-1)(k-2) in all.

``reference_reflection_matrix`` is the reflection as it was before it was
written entrywise as ``I + r (G r)^T``: the image of each basis vector by
``DivisorClass`` arithmetic, transposed, checked by the dense reference.
``reference_exceptional_sections`` builds the exceptional bundle's two
sections by subtracting fiber components, as the builder once did.

``reference_exceptional_split`` is the exceptional bundle's split checked
fiber by fiber, which ``bundles.exceptional_from_delta`` now proves in its
docstring: the swap fixes f, and each ``f - 2 E_j`` is a (-1)-eigenvector.

``reference_enumerate_minus_one_classes`` is the (-1)-class search as it was
before each multiplicity got its exact Cauchy-Schwarz range: every ``m`` with
``m^2 <= quad``, pruned a level late, and ``DivisorClass`` records sorted.

``reference_parse_*`` are the JSON readers of points, divisors and matrices
as they were before one type check over a whole array replaced the walk:
every entry goes through ``expect_int`` with its ``$.path[i]`` formatted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from cremona import geometry
from cremona import intlinalg as la
from cremona import picard
from cremona import square_class
from cremona.bundles import _certificate, _distinct, z22_from_triplet
from cremona.errors import (
    CoverageViolation,
    CremonaError,
    DegenerateConfiguration,
    DimensionMismatch,
    DuplicatePoint,
    InvalidDescriptor,
    MovesCanonicalClass,
    NotIsometry,
    OddCardinality,
    TooFewPoints,
    TooManyPoints,
    TooSmall,
    UnsupportedRank,
    excerpt,
    require,
)
from cremona.geometry import intersect_line_conic, line_through, lines_meet, project_from
from cremona.jsonio import _fail, expect_int, expect_list
from cremona.picard import MAX_BLOWUPS, validate_action
from cremona.square_class import MAX_CANONICAL_POINTS


def reference_mat_mul(a, b):
    bt = la.transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def reference_validate_action(lattice, matrix):
    m = la.freeze(matrix)
    n = lattice.rank
    if len(m) != n or any(len(row) != n for row in m):
        raise DimensionMismatch(f"action matrix must be {n} x {n}")
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    if reference_mat_mul(reference_mat_mul(la.transpose(m), gram), m) != gram:
        raise NotIsometry("matrix does not preserve the intersection form")
    k = lattice.canonical_class.coeffs
    if la.mat_vec(m, k) != k:
        raise MovesCanonicalClass("matrix moves the canonical class")
    return m


def _row_sub(rows, i, j, q):
    ri, rj = rows[i], rows[j]
    for c in range(len(ri)):
        ri[c] -= q * rj[c]


def reference_hermite_row_form(m):
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = [list(row) for row in m]
    u = [list(row) for row in la.identity(nrows)]

    def swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        u[i], u[j] = u[j], u[i]

    def combine(i, j, q):
        _row_sub(rows, i, j, q)
        _row_sub(u, i, j, q)

    pivot_row = 0
    for col in range(ncols):
        live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            base = min(live, key=lambda i: abs(rows[i][col]))
            for i in live:
                if i == base:
                    continue
                q = rows[i][col] // rows[base][col]
                if q:
                    combine(i, base, q)
            live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        swap(pivot_row, live[0])
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                combine(i, pivot_row, q)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return la.freeze(rows), la.freeze(u)


def reference_involution_matrix(marking, swapped):
    idx = sorted(set(swapped))
    if len(idx) % 2 != 0:
        raise ValueError(f"a fiberwise involution swaps an even number of fibers, got {len(idx)}")
    if idx and not 1 <= idx[0] <= idx[-1] <= marking.k:
        raise ValueError(f"fiber indices {idx} out of range 1..{marking.k}")
    a = len(idx) // 2
    lat = marking.lattice
    ell = lat.line_class()
    e0 = lat.exceptional_class(1)
    swapped_sum = picard.DivisorClass((0,) * lat.rank)
    for j in idx:
        swapped_sum = swapped_sum + marking.fiber_component(j)

    images = [
        (a + 1) * ell - a * e0 - swapped_sum,
        a * ell - (a - 1) * e0 - swapped_sum,
    ]
    for j in range(1, marking.k + 1):
        ej = marking.fiber_component(j)
        if j in idx:
            images.append(ell - e0 - ej)
        else:
            images.append(ej)
    matrix = la.transpose(la.freeze([d.coeffs for d in images]))
    return reference_validate_action(lat, matrix)


def reference_reflection_matrix(lattice, root):
    square = picard.intersect(lattice, root, root)
    if square != -2:
        raise NotIsometry(f"reflection needs a class of square -2, got {square}")
    if picard.intersect(lattice, root, lattice.canonical_class) != 0:
        raise MovesCanonicalClass("reflection root must be orthogonal to K")
    n = lattice.rank
    cols = []
    for j in range(n):
        e = picard.DivisorClass(tuple(1 if i == j else 0 for i in range(n)))
        cols.append((e + picard.intersect(lattice, e, root) * root).coeffs)
    return reference_validate_action(lattice, la.transpose(la.freeze(cols)))


def reference_exceptional_sections(marking, n):
    """``L - E_1 - ... - E_{n+1}`` and ``E_0 - E_{n+2} - ... - E_{2n}``."""
    lat = marking.lattice
    s1 = lat.line_class()
    for j in range(1, n + 2):
        s1 = s1 - marking.fiber_component(j)
    s2 = lat.exceptional_class(1)
    for j in range(n + 2, 2 * n + 1):
        s2 = s2 - marking.fiber_component(j)
    return s1, s2


def reference_invariant_sublattice(action):
    n = action.lattice.rank
    if not action.generators:
        basis = la.identity(n)
        return n, tuple(picard.DivisorClass(row) for row in basis)
    rows = []
    for g in action.generators:
        for i in range(n):
            rows.append(tuple(g[i][j] - (1 if i == j else 0) for j in range(n)))
    kernel = la.kernel_basis(la.freeze(rows))
    return len(kernel), tuple(picard.DivisorClass(row) for row in kernel)


def reference_group_order(action):
    """The order of the group the generators of ``action`` generate."""
    ident = la.identity(action.lattice.rank)
    seen = {ident}
    frontier = [ident]
    while frontier:
        frontier = [p for p in {la.mat_mul(g, m) for m in frontier for g in action.generators}
                    if p not in seen]
        seen.update(frontier)
    return len(seen)


# the three-lines-and-conic builder with every check it had ---------------------


class AlignmentViolation(CremonaError):
    """Two blown-up points project to the same fiber, or to the d1 d2 fiber."""


def reference_build_from_three_lines_conic(lines, conic, d1, d2):
    ls = tuple(lines)
    if len(ls) != 3:
        raise DegenerateConfiguration(f"need exactly three lines, got {len(ls)}")
    _distinct(ls, "the three lines must be distinct")
    if not conic.is_smooth():
        raise DegenerateConfiguration("the conic must be smooth")

    on = [l.contains(d1) for l in ls]
    if sum(on) != 2:
        raise DegenerateConfiguration(
            f"d1 = {d1} must lie on exactly two of the lines, lies on {sum(on)}")
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
                f"the double point {name} = {pt} lies on the conic")

    def conic_chord(line, label):
        pts = intersect_line_conic(line, conic)
        if len(pts) != 2:
            raise DegenerateConfiguration(f"{label} is tangent to the conic")
        return pts

    a1, a2 = conic_chord(la_, "the first line through d1")
    b1, b2 = conic_chord(lb_, "the second line through d1")
    c_pts = conic_chord(lc_, "the third line")
    if d2 not in c_pts:
        raise DegenerateConfiguration("d2 is not where the third line meets the conic")
    c = next(p for p in c_pts if p != d2)

    blown = (a1, a2, a3, b1, b2, b3, c)
    _distinct(blown + (d1, d2), "the configuration points must be distinct")

    try:
        axis = line_through(d1, d2)
    except DuplicatePoint:
        raise DegenerateConfiguration("d1 and d2 coincide") from None
    q_pts = intersect_line_conic(axis, conic)
    if len(q_pts) != 2:
        raise DegenerateConfiguration("the line d1 d2 is tangent to the conic")
    center = next(p for p in q_pts if p != d2)
    if center in blown or center == d1:
        raise DegenerateConfiguration(
            "the projection center collides with a configuration point")
    for l in ls:
        if l.contains(center):
            raise DegenerateConfiguration(
                "the projection center lies on one of the lines")

    proj = {pt: project_from(center, pt) for pt in blown}
    fiber_of_d = project_from(center, d1)
    require(fiber_of_d == project_from(center, d2),
            "d1 and d2 project to different fibers")
    if len(set(proj.values())) != 7 or fiber_of_d in proj.values():
        raise AlignmentViolation(
            "blown-up points must project to seven fibers distinct from the d1 d2 fiber")

    branch_a = (proj[a1], proj[a2], proj[b3], proj[c])
    branch_b = (proj[b1], proj[b2], proj[a3], proj[c])
    branch_c = (proj[a1], proj[a2], proj[a3], proj[b1], proj[b2], proj[b3])
    triplet = square_class.RamificationTriplet((branch_a, branch_b, branch_c))

    sections = [
        (degree, e0, [proj[pt] for pt in through])
        for degree, e0, through in ((1, 0, (a1, a2, a3)), (1, 0, (b1, b2, b3)),
                                    (1, 0, (a3, b3, c)), (2, -1, (a1, a2, b1, b2, c)))
    ]
    return z22_from_triplet(triplet, _certificate("three-lines-conic", triplet, sections))


# the (-1)-class search with square-root bounds --------------------------------


def reference_enumerate_minus_one_classes(lattice):
    r = lattice.r
    if not 1 <= r <= 8:
        raise UnsupportedRank(f"(-1)-class enumeration supports 1 <= r <= 8, got r={r}")

    found = []

    def extend(prefix, remaining, lin, quad):
        if remaining == 0:
            if lin == 0 and quad == 0:
                found.append(picard.DivisorClass((prefix[0],) + tuple(-m for m in prefix[1:])))
            return
        if quad < 0 or lin * lin > remaining * quad:
            return
        bound = math.isqrt(quad)
        for m in range(-bound, bound + 1):
            extend(prefix + [m], remaining - 1, lin - m, quad - m * m)

    for d in range(-1, 7):
        extend([d], r, 3 * d - 1, d * d + 1)
    return tuple(sorted(found))


# the canonical-form kernel with its cubic first pass ---------------------------


def reference_least_pinnings(support, sets):
    k = len(support)
    if k < 3:
        raise TooFewPoints(
            f"canonical forms and stabilizers need at least 3 support points, got {k}")
    if k > MAX_CANONICAL_POINTS:
        raise TooManyPoints(
            f"canonical forms and stabilizers accept at most {MAX_CANONICAL_POINTS} "
            f"support points, got {k}")
    coords = [(pt.a, pt.b) for pt in support]
    det = [[ta * xb - tb * xa for xa, xb in coords] for ta, tb in coords]
    smallest = min(len(s) for s in sets)
    front = sorted({i for s in sets if len(s) == smallest for i in s})

    least = None
    survivors = []
    for p in range(k):
        for r in range(k):
            if r == p:
                continue
            lo = hi = None
            for t in front:
                n, d = det[t][p], det[t][r]
                if d == 0:  # t is r, sent to infinity
                    continue
                if d < 0:
                    n, d = -n, -d
                if lo is None or n * lo[1] < lo[0] * d:
                    lo = (n, d)
                if hi is None or n * hi[1] > hi[0] * d:
                    hi = (n, d)
            for q in range(k):
                if q == p or q == r:
                    continue
                n, d = det[q][p], det[q][r]
                if (n > 0) == (d > 0):
                    first = (lo[0] * abs(d), lo[1] * abs(n))
                else:
                    first = (-hi[0] * abs(d), hi[1] * abs(n))
                if least is not None:
                    cmp = first[0] * least[1] - least[0] * first[1]
                    if cmp > 0:
                        continue
                    if cmp == 0:
                        survivors.append((p, q, r))
                        continue
                least = first
                survivors = [(p, q, r)]

    best = None
    for p, q, r in survivors:
        at_r, at_p = det[q][r], det[q][p]
        # the package's point, not the dataclass of the same name below
        image = [geometry.P1Point(row[p] * at_r, row[r] * at_p) for row in det]
        key = sorted((len(s),) + tuple(sorted(image[i] for i in s)) for s in sets)
        if best is None or key < best:
            best, ties = key, [(p, q, r)]
        elif key == best:
            ties.append((p, q, r))
    return tuple(s[1:] for s in best), ties


# the exceptional bundle's split, fiber by fiber --------------------------------


def reference_exceptional_split(marking, swap):
    """Raise InvariantViolation unless the swap fixes f and negates each f - 2 E_j."""
    f = marking.fiber_class
    swap_f = la.mat_vec(swap, f.coeffs)
    require(swap_f == f.coeffs, "the swap moves f")
    columns = la.transpose(swap)
    for j in range(1, marking.k + 1):
        # swap (f - 2 E_j) = swap f - 2 swap E_j, and E_j is basis vector j + 1
        v = f - 2 * marking.fiber_component(j)
        require(tuple([x - 2 * c for x, c in zip(swap_f, columns[j + 1])]) == (-v).coeffs,
                f"f - 2 E_{j} is not a (-1)-eigenvector of the swap")


# the JSON reader's walk, entry by entry ------------------------------------------


def reference_parse_nonzero(cls, length, v, where, zero):
    """``cls`` of an array of ``length`` integers, not all zero."""
    items = expect_list(v, where, length)
    coords = [expect_int(x, f"{where}[{i}]") for i, x in enumerate(items)]
    if not any(coords):
        raise _fail(where, zero)
    return cls(*coords)


def reference_parse_p1_point(v, where):
    """A point of the line: ``[a, b]``, an integer, ``"p/q"`` or ``"inf"``."""
    if isinstance(v, bool):
        raise _fail(where, "expected a point, got a boolean")
    if isinstance(v, int):
        return geometry.P1Point(v, 1)
    if isinstance(v, str):
        if v in ("inf", "oo", "infinity"):
            return geometry.P1Point.infinity()
        try:
            return geometry.P1Point.from_value(geometry._rational(v, f"at {where}: point"))
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(where, f"cannot read {excerpt(v)} as an exact rational") from exc
    return reference_parse_nonzero(geometry.P1Point, 2, v, where,
                                   "[0, 0] is not a point of the line")


def reference_parse_p1_points(v, where):
    items = expect_list(v, where)
    return tuple(reference_parse_p1_point(x, f"{where}[{i}]") for i, x in enumerate(items))


def reference_parse_triplet(v, where):
    sets = expect_list(v, where, 3)
    parsed = [reference_parse_p1_points(s, f"{where}[{i}]") for i, s in enumerate(sets)]
    return square_class.RamificationTriplet(parsed)


def reference_parse_divisor(v, where):
    items = expect_list(v, where)
    return picard.DivisorClass(tuple(expect_int(x, f"{where}[{i}]") for i, x in enumerate(items)))


def reference_parse_matrix(v, where):
    rows = expect_list(v, where)
    out = []
    for i, row in enumerate(rows):
        cells = expect_list(row, f"{where}[{i}]")
        out.append(tuple(expect_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(cells)))
    return la.freeze(out)


# the records as frozen dataclasses --------------------------------------------


def _reduced(coords, what):
    if all(c == 0 for c in coords):
        raise DegenerateConfiguration(f"all coordinates of a {what} are zero")
    g = math.gcd(*coords)
    coords = tuple(c // g for c in coords)
    first = next(c for c in coords if c != 0)
    if first < 0:
        coords = tuple(-c for c in coords)
    return coords


@dataclass(frozen=True, order=False)
class P1Point:
    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = _reduced((int(self.a), int(self.b)), "P1 point")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_value(cls, value):
        f = Fraction(value)
        return cls(f.numerator, f.denominator)

    @classmethod
    def infinity(cls):
        return cls(1, 0)

    def value(self):
        return None if self.b == 0 else Fraction(self.a, self.b)

    def sort_key(self):
        return (1,) if self.b == 0 else (0, Fraction(self.a, self.b))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"({self.a}:{self.b})"


@dataclass(frozen=True, order=False)
class P2Point:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = _reduced((int(self.a), int(self.b), int(self.c)), "P2 point")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def coords(self):
        return (self.a, self.b, self.c)

    def sort_key(self):
        return self.coords()

    def __lt__(self, other):
        return self.coords() < other.coords()

    def __repr__(self):
        return f"({self.a}:{self.b}:{self.c})"


@dataclass(frozen=True)
class Line:
    u: int
    v: int
    w: int

    def __post_init__(self) -> None:
        u, v, w = _reduced((int(self.u), int(self.v), int(self.w)), "line")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def coeffs(self):
        return (self.u, self.v, self.w)

    def __repr__(self):
        return f"Line({self.u},{self.v},{self.w})"


@dataclass(frozen=True)
class Conic:
    xx: int
    yy: int
    zz: int
    xy: int
    xz: int
    yz: int

    def __post_init__(self) -> None:
        reduced = _reduced(
            (int(self.xx), int(self.yy), int(self.zz),
             int(self.xy), int(self.xz), int(self.yz)),
            "conic",
        )
        for name, val in zip(("xx", "yy", "zz", "xy", "xz", "yz"), reduced):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class Mobius:
    matrix: tuple

    def __post_init__(self) -> None:
        rows = la.freeze(self.matrix)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise DimensionMismatch("a Moebius map needs a 2 x 2 matrix")
        flat = _reduced(rows[0] + rows[1], "Moebius map")
        m = ((flat[0], flat[1]), (flat[2], flat[3]))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            raise DegenerateConfiguration("singular matrix does not define a Moebius map")
        object.__setattr__(self, "matrix", m)

    def apply(self, p):
        (m00, m01), (m10, m11) = self.matrix
        return P1Point(m00 * p.a + m01 * p.b, m10 * p.a + m11 * p.b)

    def __repr__(self):
        (a, b), (c, d) = self.matrix
        return f"Mobius[{a},{b};{c},{d}]"


@dataclass(frozen=True)
class DivisorClass:
    coeffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @classmethod
    def of(cls, *coeffs):
        return cls(tuple(coeffs))

    def __add__(self, other):
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other):
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self):
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, n):
        return DivisorClass(tuple(n * a for a in self.coeffs))

    def __lt__(self, other):
        return self.coeffs < other.coeffs

    def __repr__(self):
        return f"D{self.coeffs}"


@dataclass(frozen=True)
class BlowupLattice:
    r: int

    def __post_init__(self) -> None:
        if not 0 <= self.r <= MAX_BLOWUPS:
            raise UnsupportedRank(f"blowups of the plane at up to {MAX_BLOWUPS} points only, got r={self.r}")

    @property
    def rank(self):
        return self.r + 1

    @property
    def degree(self):
        return 9 - self.r

    @property
    def canonical_class(self):
        return DivisorClass((-3,) + (1,) * self.r)

    def zero(self):
        return DivisorClass((0,) * self.rank)


@dataclass(frozen=True)
class LatticeAction:
    lattice: BlowupLattice
    generators: tuple

    def __post_init__(self) -> None:
        gens = tuple(validate_action(self.lattice, g) for g in self.generators)
        object.__setattr__(self, "generators", gens)

    @classmethod
    def trivial(cls, lattice):
        return cls(lattice, ())


@dataclass(frozen=True)
class FiberedMarking:
    lattice: BlowupLattice

    def __post_init__(self) -> None:
        if self.lattice.r < 1:
            raise DimensionMismatch(f"a fibered marking needs r >= 1, got r = {self.lattice.r}")

    @property
    def k(self):
        return self.lattice.r - 1


def _set_key(pts):
    return (len(pts),) + tuple(p.sort_key() for p in pts)


@dataclass(frozen=True)
class RamificationTriplet:
    sets: tuple

    def __post_init__(self) -> None:
        # the triplet rules, checked on the points: three sets; each set
        # distinct, of at least two points and even; every point in two sets
        sets = tuple(tuple(s) for s in self.sets)
        if len(sets) != 3:
            raise InvalidDescriptor(f"expected 3 entries, got {len(sets)}")
        for i, s in enumerate(sets, start=1):
            if len(set(s)) != len(s):
                raise DuplicatePoint(f"repeated point in branch set {i}")
            if len(s) < 2:
                raise TooSmall(f"branch set {i} has {len(s)} < 2 points")
            if len(s) % 2:
                raise OddCardinality(f"branch set {i} has odd size {len(s)}")
        bad = sorted({p for s in sets for p in s if sum(p in t for t in sets) != 2},
                     key=lambda p: p.sort_key())
        if bad:
            raise CoverageViolation(
                f"points covered a number of times other than twice: {excerpt(bad)}")
        canon = tuple(sorted((tuple(sorted(s, key=lambda p: p.sort_key())) for s in sets),
                             key=_set_key))
        object.__setattr__(self, "sets", canon)

    @property
    def profile(self):
        return tuple(len(s) // 2 for s in self.sets)

    @property
    def k(self):
        return sum(self.profile)

    @cached_property
    def support(self):
        seen = set()
        for s in self.sets:
            seen.update(s)
        return tuple(sorted(seen, key=lambda p: p.sort_key()))

    def sort_key(self):
        return tuple(_set_key(s) for s in self.sets)


@dataclass(frozen=True)
class RealizationCertificate:
    source: str
    section_classes: tuple
    intersection_matrix: tuple

    @property
    def pairwise_disjoint(self):
        return all(
            self.intersection_matrix[i][j] == 0
            for i in range(4) for j in range(4) if i != j)


@dataclass(frozen=True)
class Z22BundleModel:
    marking: object
    triplet: object
    generators: tuple
    certificate: object = None


@dataclass(frozen=True)
class DelPezzoVerdict:
    kind: str
    reason: str


@dataclass(frozen=True)
class ExceptionalBundleModel:
    KERNEL_TAG = "C^* : Z/2"

    marking: object
    delta: tuple
    swap: tuple
    section_classes: tuple
    canonical_delta: object
    stabilizer: object

    @property
    def n(self):
        return len(self.delta) // 2


@dataclass(frozen=True)
class HalphenReport:
    k_squared: int
    fixed_curve: object
    genus: int
    note: str


@dataclass(frozen=True)
class DelPezzoDescriptor:
    degree: int
    p1xp1: bool = False
    action: object = None
    fixed_point_report: object = None
    cubic_family: object = None
    quartic_row: object = None
    restrictions_satisfied: bool = True
    iso_class_tag: object = None
    parameter: object = None


@dataclass(frozen=True)
class HirzebruchDescriptor:
    n: int


@dataclass(frozen=True)
class ExceptionalDescriptor:
    model: object


@dataclass(frozen=True)
class Z22Descriptor:
    model: object


@dataclass(frozen=True)
class Verdict:
    outcome: str
    family: object = None
    subfamily: object = None
    invariant: object = None
    chain: object = None
    reason: object = None


@dataclass(frozen=True)
class LinkReport:
    family: int
    k_squared: int
    entries: tuple
