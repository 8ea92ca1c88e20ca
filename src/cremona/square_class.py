"""Ramification data of Klein-four actions on conic bundles over P^1.

A square-free rational function on P^1, up to squares and scalars, is
determined by its even set of zeros-and-poles of odd order, and
multiplying two such classes takes the symmetric difference of their
supports.  An involution of a conic bundle ramifies over such a set.

A ramification triplet is the combinatorial core of an action of the
Klein four-group on a conic bundle: three branch sets A_1, A_2, A_3 in
which every point of the union lies in exactly two of the sets, so that
A_3 is the symmetric difference of the other two.  A triplet carries its
sorted support and each set as increasing indices into it (``indices``),
which the model and the canonical form read.  ``RamificationTriplet(sets)``,
the one constructor, checks the rules; a Moebius image, a canonical form
and a standard profile are built unchecked, from index sets, by the two
trusted builders ``_of_labels`` and ``_of_indices``.
Canonical forms pin three support points to 0, 1 and infinity and
minimize over the choices, making equality of forms a Q-conjugacy test.

One kernel computes every canonical form and stabilizer.  It works on the
integer coordinates of the support: the image of a point under a pinning
map is a pair of products of 2 x 2 determinants.  Candidates are first
compared on the least image of the smallest sets, with exact integer
cross-multiplication; the cyclic order of the sorted support leaves two
candidates to compare for each of the k(k-1) choices of the points sent to
0 and infinity, so this pass takes O(k^2) products.  The candidates that
reach the minimum are compared whole, on integers and with no sort, and
only the least one's images are built as points.  Its sets, read in image
order, are the canonical form, whose support and index sets are taken in
that order with no sort; the candidates that tie with it give the
stabilizer of a point set in the same pass.  Supports of more than
``MAX_CANONICAL_POINTS`` points are refused with TooManyPoints before any
candidate is enumerated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain

from .errors import (
    CoverageViolation,
    DimensionMismatch,
    DuplicatePoint,
    InvalidDescriptor,
    InvariantViolation,
    OddCardinality,
    TooFewPoints,
    TooManyPoints,
    TooSmall,
    excerpt,
)
from .geometry import Mobius, P1Point, _Frozen, _reduced, mobius_from_triples


def _distinct(items, what: str) -> tuple:
    """``items``, points or labels of points, with no repeat."""
    items = tuple(items)
    if len(set(items)) != len(items):
        raise DuplicatePoint(f"repeated point in {what}")
    return items


def sorted_distinct(points, what: str) -> tuple[P1Point, ...]:
    return tuple(sorted(_distinct(points, what)))


def _checked(items, what: str) -> tuple:
    """``items``, points or labels of points, as a branch set: distinct, at
    least two, even in number."""
    items = _distinct(items, what)
    if len(items) < 2:
        raise TooSmall(f"{what} has {len(items)} < 2 points")
    if len(items) % 2 != 0:
        raise OddCardinality(f"{what} has odd size {len(items)}")
    return items


def branch_set(points, what: str) -> tuple[P1Point, ...]:
    """The points of a branch set, sorted: distinct, at least two, even in number."""
    return tuple(sorted(_checked(points, what)))


def _labelled(sets) -> tuple[list[P1Point], list[list[int]]]:
    """The distinct points of the sets, and each set as the labels of its
    points, a point's label being its place in that list: one hash per
    entry, after which every check and sort but the support's reads ints.
    With the checks on the points, which hash each one three more times,
    parsing the klein-four-sweep triplets takes 1.07x as long (Python
    3.11.7, shared 2-vCPU VM)."""
    label: dict[P1Point, int] = {}
    labelled = [[label.setdefault(p, len(label)) for p in s] for s in sets]
    return list(label), labelled


class RamificationTriplet(_Frozen):
    """Three even branch sets covering every point exactly twice.

    The constructor refuses any number of sets but three (InvalidDescriptor,
    before a point is read), checks each set in turn for distinct points,
    at least two of them and an even count, then checks that every point
    lies in exactly two sets, all on the labels of ``_labelled``.  The sets
    are stored sorted (each internally, and among themselves by size then
    lexicographic order), so equal triplets compare equal; as index order is
    point order, that is the (size, indices) order of ``indices`` into the
    sorted ``support``, the only sequence of points ever sorted.
    ``_of_labels`` and ``_of_indices`` trust their caller, whose docstring
    proves the rules; ``_of_indices`` makes every triplet.
    """

    __slots__ = ("sets", "support", "indices")
    __match_args__ = ("sets",)

    def __new__(cls, sets) -> "RamificationTriplet":
        sets = tuple(sets)
        if len(sets) != 3:
            raise InvalidDescriptor(f"expected 3 entries, got {len(sets)}")
        points, labelled = _labelled(sets)
        labelled = [_checked(s, f"branch set {idx}") for idx, s in enumerate(labelled, start=1)]
        counts = Counter(chain.from_iterable(labelled))
        if any(c != 2 for c in counts.values()):
            bad = sorted(points[label] for label, c in counts.items() if c != 2)
            raise CoverageViolation(
                f"points covered a number of times other than twice: {excerpt(bad)}")
        return cls._of_labels(points, labelled)

    @classmethod
    def _of_labels(cls, points, labelled) -> "RamificationTriplet":
        """The triplet of distinct ``points`` and of label sets (places in
        ``points``) that satisfy the triplet rules: the points are sorted
        once, as the support, and the index sets as ints."""
        order = sorted(range(len(points)), key=points.__getitem__)
        index = [0] * len(order)
        for i, label in enumerate(order):
            index[label] = i
        indices = sorted([tuple(sorted([index[label] for label in s])) for s in labelled],
                         key=lambda s: (len(s), s))
        return cls._of_indices(tuple([points[label] for label in order]), tuple(indices))

    @classmethod
    def _of_indices(cls, support, indices) -> "RamificationTriplet":
        """The triplet of index sets (each increasing, in (size, indices)
        order) into a sorted support."""
        t = object.__new__(cls)
        object.__setattr__(t, "sets", tuple([tuple([support[i] for i in s]) for s in indices]))
        object.__setattr__(t, "support", support)
        object.__setattr__(t, "indices", indices)
        return t

    @property
    def profile(self) -> tuple[int, int, int]:
        """The half-sizes (a_1 <= a_2 <= a_3)."""
        return tuple(len(s) // 2 for s in self.sets)

    def transformed(self, m: Mobius) -> "RamificationTriplet":
        """The image triplet under ``m``: the images of the support, with the
        same index sets.  A Moebius map over Q is a bijection of P^1(Q), so the
        images are distinct and each set keeps its size and coverage."""
        return RamificationTriplet._of_labels([m.apply(p) for p in self.support], self.indices)


def realizable_profiles(max_k: int) -> tuple[tuple[int, int, int], ...]:
    """All half-size profiles (a1 <= a2 <= a3) with a1+a2+a3 <= max_k.

    A profile is realizable by a triplet exactly when a3 <= a1 + a2: the
    third set is the symmetric difference of the first two, so the pairwise
    overlaps a1+a2-a3, a1+a3-a2 and a2+a3-a1 must all be nonnegative.
    """
    # generated in lexicographic order
    return tuple((a1, a2, a3) for a1 in range(1, max_k + 1) for a2 in range(a1, max_k + 1)
                 for a3 in range(a2, min(a1 + a2, max_k - a1 - a2) + 1))


def _realizable(profile) -> tuple[int, int, int]:
    """A profile as sorted half-sizes, refused unless some triplet realizes
    it (see ``realizable_profiles``): three half-sizes (DimensionMismatch),
    each at least 1 (TooSmall), with a_3 <= a_1 + a_2 (CoverageViolation)."""
    a = tuple(sorted(profile))
    if len(a) != 3:
        raise DimensionMismatch(f"a profile has three half-sizes, got {profile}")
    if a[0] < 1:
        raise TooSmall(f"every half-size of a profile is at least 1, got {profile}")
    if a[2] > a[0] + a[1]:
        raise CoverageViolation(f"profile {profile} is not realizable")
    return a


def triplet_from_profile(profile: tuple[int, int, int]) -> RamificationTriplet:
    """A standard triplet with the given profile, supported on 0..k-1.

    The support is split into three blocks of pairwise overlaps; the first
    a1+a2-a3 points lie in sets 1 and 2, the next a1+a3-a2 in sets 1 and 3,
    the last a2+a3-a1 in sets 2 and 3.  By construction each index lies in
    exactly two of the sets, of sizes 2 a1, 2 a2 and 2 a3, each at least 2.
    """
    a1, a2, a3 = _realizable(profile)
    m12, m13 = a1 + a2 - a3, a1 + a3 - a2
    k = a1 + a2 + a3
    b12, b13, b23 = range(m12), range(m12, m12 + m13), range(m12 + m13, k)
    return RamificationTriplet._of_labels([P1Point(i, 1) for i in range(k)],
                                          [[*b12, *b13], [*b12, *b23], [*b13, *b23]])


# canonical forms and stabilizers ----------------------------------------------

#: Largest support accepted by the canonical forms and `stabilizer`.  The
#: kernel takes about 2 k^2 products, each costing about digits^2: on one
#: core of a 2.0 GHz Xeon, 64 points take 0.015 s with 20-digit coordinates,
#: 0.55 s with 300 and 3.7 s with 1000, which only a coordinate cap bounds.
MAX_CANONICAL_POINTS = 64


def _least_pinning(support: tuple[P1Point, ...], sets: tuple[tuple[int, ...], ...]):
    """The least image of index sets over the maps pinning three support points.

    The support must be sorted (finite points by value, infinity last), so
    index order is the cyclic order of P^1(R), and each set must list its
    indices in increasing order, the sets in increasing size, as in a
    RamificationTriplet; both callers pass them so.  The map pinning
    (p, q, r) to (0, 1, oo) sends t to phi(t) / phi(q), where
    ``phi(t) = det(t,p) / det(t,r)``, so each candidate is read off a table
    of 2 x 2 determinants.  The key of an image starts with the sets of
    least size (the front), so its first value is lo / phi(q) if phi(q) > 0
    and hi / phi(q) if not, lo and hi being the least and greatest phi on the
    front.  phi has determinant det(p,r) and sends r to oo, so it increases
    along the support read from r forward if det(p,r) > 0 and backward if
    not: lo and hi are phi at the nearest front points on either side of r,
    and on each side of p the first value is monotone in phi(q) and, where
    negative, least at the q next to p.  Some candidate is negative once
    k >= 4 (pin the neighbours of a front point to 0 and oo), and for k = 3
    the neighbours of p are every q.  So the first pass reads only the q
    next to p, in increasing order, for each pair (p, r): O(k^2) products,
    each costing about the square of the coordinates' digit count; each q
    reads only the end, lo or hi, that its sign needs, as two ints.  It
    keeps the candidates that reach the minimum, in the order of a scan of
    every triple.  The second pass orders each survivor's sets without a
    sort, as index sequences read along the cyclic order from r, and
    compares survivors by cross-multiplying their images up to the first
    difference.  No point is built.

    Returns the table of determinants, the least pinning as
    ``(p, r, x, y, step)`` (see the second pass), its readings (each set as
    indices in increasing order of their images, the sets sorted as in a
    RamificationTriplet), and every ordered index triple whose image ties
    with it.  For a single set the ties are the stabilizer: the map
    carrying the first tied triple to another preserves the set.
    """
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
    # the nearest front index after and before each index, cyclically
    after = [front[bisect_right(front, i) % len(front)] for i in range(k)]
    before = [front[bisect_left(front, i) - 1] for i in range(k)]

    # first values as two ints num / den, den >= 0 (1 / 0 is above every
    # candidate), with no tuple: 12-13% off the canonical forms of triplets
    # with k <= 12 and of 4 to 16 points (Python 3.11.7, shared 2-vCPU VM)
    least_num, least_den = 1, 0
    survivors = []
    for p in range(k):
        at_p = det[p]  # phi(t) is at_p[t] / at_r[t]
        beside = sorted(((p - 1) % k, (p + 1) % k))
        for r in range(k):
            if r == p:
                continue
            at_r = det[r]
            lo, hi = (after[r], before[r]) if at_p[r] > 0 else (before[r], after[r])
            for q in beside:
                if q == r:
                    continue
                n, d = at_p[q], at_r[q]
                # phi(lo) / phi(q) if phi(q) > 0, else phi(hi) / phi(q)
                if (n > 0) == (d > 0):
                    num, den = at_p[lo], at_r[lo]
                else:
                    num, den = -at_p[hi], at_r[hi]
                if den < 0:
                    num, den = -num, -den
                num, den = num * abs(d), den * abs(n)
                cmp = num * least_den - least_num * den
                if cmp > 0:
                    continue
                if cmp == 0:
                    survivors.append((p, q, r))
                    continue
                least_num, least_den = num, den
                survivors = [(p, q, r)]

    # The second pass compares the survivors whole, on integers.  The pinning
    # (p, q, r) sends t to (det(t,p) x : det(t,r) y), x = det(q,r) and
    # y = det(q,p), by a matrix of determinant det(p,r) x y: it increases
    # along the support read from r forward if that is positive, backward if
    # not.  So a set's image in increasing order is its indices read that way
    # from r, with r (sent to oo) last, and nothing is sorted.
    best = None
    for p, q, r in survivors:
        x, y = det[q][r], det[q][p]
        pin = (p, r, x, y)
        step = 1 if (det[p][r] > 0) == ((x > 0) == (y > 0)) else -1
        readings = []
        for s in sets:
            j = bisect_left(s, r)
            n = 1 if s[j:j + 1] == (r,) else 0
            readings.append((s[j + n:] + s[:j])[::step] + s[j:j + n])
            # sets of one size in increasing order of their images
            i = len(readings) - 1
            while i and len(readings[i - 1]) == len(s) and \
                    _compare(det, pin, readings[i], pin, readings[i - 1]) < 0:
                readings[i - 1], readings[i] = readings[i], readings[i - 1]
                i -= 1
        order = [i for reading in readings for i in reading]
        c = -1 if best is None else _compare(det, pin, order, best[0], best[1])
        if c < 0:
            best, ties = (pin, order, readings, step), [(p, q, r)]
        elif c == 0:
            ties.append((p, q, r))
    (p, r, x, y), _, readings, step = best
    return det, (p, r, x, y, step), readings, ties


def _least_pinnings(support: tuple[P1Point, ...], sets: tuple[tuple[int, ...], ...]):
    """The least image of index sets as points, with every tie (see
    ``_least_pinning``): only the least candidate's images are built, as
    k points shared between its sets."""
    det, (p, r, x, y, _), readings, ties = _least_pinning(support, sets)
    points = [P1Point(row[p] * x, row[r] * y) for row in det]
    return tuple(tuple([points[i] for i in reading]) for reading in readings), ties


def _compare(det, pin, order, other, other_order) -> int:
    """The sign of the first difference between the images of two index
    sequences under two pinnings.  A pinning (p, r, x, y) sends t to
    ``(det(t,p) x : det(t,r) y)``; r's image, oo, is greater than any other."""
    p, r, x, y = pin
    p2, r2, x2, y2 = other
    for i, j in zip(order, other_order):
        d, e = det[i][r] * y, det[j][r2] * y2
        if d and e:
            c = det[i][p] * x * e - det[j][p2] * x2 * d
            if c:
                return c if (d > 0) == (e > 0) else -c
        elif d or e:  # exactly one image is oo
            return 1 if e else -1
    return 0


def triplet_canonical_form(t: RamificationTriplet) -> RamificationTriplet:
    """The least Moebius image of the triplet with three points pinned.

    Minimizes the sorted-triplet key over every map sending an ordered
    triple of support points to (0, 1, infinity).  Two triplets have equal
    canonical forms exactly when a Q-Moebius map carries one to the other.
    The kernel's readings are already in image order, so the result is
    assembled in that order, the support read from r with r (sent to
    infinity) last, and nothing is sorted; with a point-to-index map in and
    a sort of the image out, the klein-four-sweep triplets take 1.18x as
    long (Python 3.11.7, shared 2-vCPU VM).
    """
    det, (p, r, x, y, step), readings, _ = _least_pinning(t.support, t.indices)
    k = len(det)
    order = [*range(r + 1, k), *range(r)][::step] + [r]
    at = [0] * k
    for j, i in enumerate(order):
        at[i] = j
    support = tuple([P1Point(det[i][p] * x, det[i][r] * y) for i in order])
    return RamificationTriplet._of_indices(
        support, tuple([tuple([at[i] for i in reading]) for reading in readings]))


def _delta_pass(pts: tuple[P1Point, ...]):
    """The canonical form and ties of a point set that ``sorted_distinct``
    already returned."""
    (canon,), ties = _least_pinnings(pts, (tuple(range(len(pts))),))
    return canon, ties


def delta_canonical_form(points) -> tuple[P1Point, ...]:
    """The least Moebius image of a point set with three points pinned."""
    return _delta_pass(sorted_distinct(points, "a branch set"))[0]


def stabilizer(points) -> tuple[Mobius, ...]:
    """All Moebius maps over Q preserving the given point set, sorted by matrix.

    A symmetry g carries the least pinned triple to another triple with the
    same least image, and every such triple gives one; so the symmetries
    are read off the ties of the canonical-form pass.
    """
    return _canonical_and_stabilizer(sorted_distinct(points, "a branch set"))[1]


def _canonical_and_stabilizer(pts: tuple[P1Point, ...]):
    """`delta_canonical_form` and `stabilizer` from one pass, of a point set
    that ``sorted_distinct`` already returned, such as a checked ``branch_set``."""
    canon, ties = _delta_pass(pts)
    first = tuple(pts[i] for i in ties[0])
    pairs = {(p.a, p.b) for p in pts}
    maps = []
    for tie in ties:
        g = mobius_from_triples(first, tuple(pts[i] for i in tie))
        (a, b), (c, d) = g.matrix
        if {_reduced((a * x + b * y, c * x + d * y), "P1 point") for x, y in pairs} != pairs:
            raise InvariantViolation(f"{g} ties with the least pinning but moves the set")
        maps.append(g)
    return canon, tuple(sorted(maps, key=Mobius.sort_key))
