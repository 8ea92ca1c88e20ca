"""Exact projective geometry over Q with integer homogeneous coordinates.

Points of P^1 and P^2, lines, conics and Moebius transformations are all
stored as reduced integer tuples: coordinates are divided by their gcd
and the first nonzero entry is made positive, so equal geometric objects
compare equal as Python values and hash consistently.  Unreduced and
negated input is accepted everywhere and normalized on construction.

Conventions used throughout the package:

* a point of P^1 written ``(a : b)`` is the parameter value ``a/b`` on the
  affine chart, with ``(1 : 0)`` the point at infinity;
* conics are symmetric integer forms with coefficients ordered
  ``(xx, yy, zz, xy, xz, yz)``;
* ``project_from`` uses the pencil chart dropping the highest nonzero
  coordinate of the center, which sends the center ``(0 : 0 : 1)`` to the
  familiar ``(x : y : z) -> (x : y)``.
"""

from __future__ import annotations

import math
import re
import sys

from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    DuplicatePoint,
    IntegerTooLong,
    LineInConic,
    NonRationalIntersection,
    excerpt,
)
from .intlinalg import Mat, freeze


def _reduced(coords: tuple[int, ...], what: str) -> tuple[int, ...]:
    g = math.gcd(*coords)
    if g == 0:
        raise DegenerateConfiguration(f"all coordinates of a {what} are zero")
    # divide by the gcd, signed so that the first nonzero coordinate is positive
    if next(c for c in coords if c) < 0:
        g = -g
    return tuple([c // g for c in coords])


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _rational(text: str, what: str) -> Fraction:
    """``Fraction(text)`` with at most as many digits as int() reads from text
    (4300 by default), or IntegerTooLong naming ``what``.  An exponent beyond
    that limit, which Fraction would expand (``"1e1000000"``), is refused first."""
    from fractions import Fraction  # only text rationals need it; it loads decimal

    exponent = _EXPONENT.search(text)
    try:
        if exponent:  # Fraction checks the text with its exponent set to 0 first
            Fraction(text[:exponent.start(1)] + "0" + text[exponent.end(1):])
        if not (exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent[1]))):
            value = Fraction(text)
            str(value)  # "9" * 4300 + ".9" reads, but its value has 4301 digits
            return value
    except ValueError as exc:
        if str(exc).startswith("Invalid literal"):  # no rational at all
            raise
    raise IntegerTooLong(f"{what} {excerpt(text, str)} has more digits than int() "
                         "converts from text")


class _Frozen:
    """Base of the package's validated value types.

    A subclass keeps its fields in ``__slots__``, names them in order in
    ``__match_args__`` and sets them once on construction.  Equality and
    hashing work on the tuple of the fields, as for a frozen dataclass:
    records of two types never compare equal, and a hash is the hash of
    the field tuple.  (``P1Point`` and ``DivisorClass``, which sit in the
    kernel loops, write the two out: their hash takes 150-360 ns, against
    350-800 ns through ``_values()``, on Python 3.10-3.13.)  Assignment and
    deletion raise AttributeError; the default repr is the dataclass one.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class P1Point(_Frozen):
    """A rational point ``(a : b)`` of the projective line."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        a, b = int(a), int(b)  # reduced as by _reduced, written out for two
        g = -math.gcd(a, b) if a < 0 or not a and b < 0 else math.gcd(a, b)
        if not g:
            raise DegenerateConfiguration("all coordinates of a P1 point are zero")
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    @classmethod
    def from_value(cls, value: int | Fraction) -> "P1Point":
        from fractions import Fraction

        f = Fraction(value)
        return cls(f.numerator, f.denominator)

    @classmethod
    def infinity(cls) -> "P1Point":
        return cls(1, 0)

    def __lt__(self, other: "P1Point") -> bool:
        # infinity last; a/b < c/d exactly when (ad - cb) bd < 0, for b, d of any sign
        b, d = self.b, other.b
        if b and d:
            return (self.a * d - other.a * b) * b * d < 0
        return d == 0 != b

    def __repr__(self) -> str:
        return f"({self.a}:{self.b})"


class P2Point(_Frozen):
    """A rational point ``(a : b : c)`` of the projective plane."""

    __slots__ = __match_args__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        a, b, c = _reduced((int(a), int(b), int(c)), "P2 point")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_affine(cls, x: int | Fraction, y: int | Fraction) -> "P2Point":
        from fractions import Fraction

        fx, fy = Fraction(x), Fraction(y)
        d = math.lcm(fx.denominator, fy.denominator)
        return cls(fx.numerator * (d // fx.denominator), fy.numerator * (d // fy.denominator), d)

    def coords(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __lt__(self, other: "P2Point") -> bool:
        return self.coords() < other.coords()

    def __repr__(self) -> str:
        return f"({self.a}:{self.b}:{self.c})"


class Line(_Frozen):
    """The line ``u x + v y + w z = 0``, coefficients reduced like a point."""

    __slots__ = __match_args__ = ("u", "v", "w")

    def __init__(self, u: int, v: int, w: int) -> None:
        u, v, w = _reduced((int(u), int(v), int(w)), "line")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def coeffs(self) -> tuple[int, int, int]:
        return (self.u, self.v, self.w)

    def contains(self, p: P2Point) -> bool:
        return self.u * p.a + self.v * p.b + self.w * p.c == 0

    def __repr__(self) -> str:
        return f"Line({self.u},{self.v},{self.w})"


def _cross(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def line_through(p: P2Point, q: P2Point) -> Line:
    """The unique line through two distinct points (cross product)."""
    if p == q:
        raise DuplicatePoint(f"no unique line through {p} twice")
    return Line(*_cross(p.coords(), q.coords()))


def lines_meet(l1: Line, l2: Line) -> P2Point:
    """The intersection point of two distinct lines (cross product)."""
    if l1 == l2:
        raise DegenerateConfiguration("two equal lines meet in a line, not a point")
    return P2Point(*_cross(l1.coeffs(), l2.coeffs()))


# conics ---------------------------------------------------------------------

class Conic(_Frozen):
    """A plane conic with integer coefficients ``(xx, yy, zz, xy, xz, yz)``."""

    __slots__ = __match_args__ = ("xx", "yy", "zz", "xy", "xz", "yz")

    def __init__(self, xx: int, yy: int, zz: int, xy: int, xz: int, yz: int) -> None:
        reduced = _reduced(
            (int(xx), int(yy), int(zz), int(xy), int(xz), int(yz)), "conic")
        for name, val in zip(self.__match_args__, reduced):
            object.__setattr__(self, name, val)

    def coeffs(self) -> tuple[int, int, int, int, int, int]:
        return (self.xx, self.yy, self.zz, self.xy, self.xz, self.yz)

    def evaluate_raw(self, x: int, y: int, z: int) -> int:
        return (self.xx * x * x + self.yy * y * y + self.zz * z * z
                + self.xy * x * y + self.xz * x * z + self.yz * y * z)

    def contains(self, p: P2Point) -> bool:
        return self.evaluate_raw(p.a, p.b, p.c) == 0

    def is_smooth(self) -> bool:
        """Smooth iff the discriminant, half the determinant of the doubled
        symmetric matrix, is nonzero."""
        return (4 * self.xx * self.yy * self.zz + self.xy * self.xz * self.yz
                - self.xx * self.yz**2 - self.yy * self.xz**2 - self.zz * self.xy**2) != 0


# Moebius transformations ------------------------------------------------------

class Mobius(_Frozen):
    """An element of PGL(2, Q) as a reduced integer 2 x 2 matrix.

    Acts on column coordinates: ``(a : b) -> (m00 a + m01 b : m10 a + m11 b)``,
    i.e. on affine values as ``t -> (m00 t + m01) / (m10 t + m11)``.
    """

    __slots__ = __match_args__ = ("matrix",)

    def __init__(self, matrix: Mat) -> None:
        rows = freeze(matrix)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise DimensionMismatch("a Moebius map needs a 2 x 2 matrix")
        flat = _reduced(rows[0] + rows[1], "Moebius map")
        m = ((flat[0], flat[1]), (flat[2], flat[3]))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
            raise DegenerateConfiguration("singular matrix does not define a Moebius map")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(((1, 0), (0, 1)))

    @classmethod
    def from_coeffs(cls, a: int, b: int, c: int, d: int) -> "Mobius":
        """The map ``t -> (a t + b) / (c t + d)``."""
        return cls(((a, b), (c, d)))

    def apply(self, p: P1Point) -> P1Point:
        (m00, m01), (m10, m11) = self.matrix
        return P1Point(m00 * p.a + m01 * p.b, m10 * p.a + m11 * p.b)

    def compose(self, other: "Mobius") -> "Mobius":
        """The map ``self after other``."""
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        return Mobius(((a * e + b * g, a * f + b * h),
                       (c * e + d * g, c * f + d * h)))

    def sort_key(self) -> tuple[int, ...]:
        return self.matrix[0] + self.matrix[1]

    def __repr__(self) -> str:
        (a, b), (c, d) = self.matrix
        return f"Mobius[{a},{b};{c},{d}]"


def _pinning(triple: tuple[P1Point, P1Point, P1Point]) -> Mat:
    """The matrix sending (p, q, r) to (0 : 1), (1 : 1), (1 : 0): t goes to
    ``(det(t,p) det(q,r) : det(t,r) det(q,p))``, as in the canonical-form kernel."""
    p, q, r = triple
    qr, qp = q.a * r.b - q.b * r.a, q.a * p.b - q.b * p.a
    return ((qr * p.b, -qr * p.a), (qp * r.b, -qp * r.a))


def mobius_from_triples(
    src: tuple[P1Point, P1Point, P1Point],
    dst: tuple[P1Point, P1Point, P1Point],
) -> Mobius:
    """The unique Moebius map sending the first ordered triple to the second:
    the source's pinning, then the adjugate (inverse) of the destination's.
    Unchecked, by proof: ``_pinning`` sends p, q, r to (0 : 1), (1 : 1),
    (1 : 0), as det(t,t) = 0 and distinct points have det != 0, and the
    adjugate of the destination's pinning sends those back to it."""
    for name, triple in (("source", src), ("destination", dst)):
        if len(set(triple)) != 3:
            raise DuplicatePoint(f"{name} triple {triple} has a repeated point")
    (a, b), (c, d) = _pinning(dst)
    (e, f), (g, h) = _pinning(src)
    return Mobius(((d * e - b * g, d * f - b * h), (a * g - c * e, a * h - c * f)))


def project_from(q: P2Point, p: P2Point) -> P1Point:
    """The image of ``p`` in the pencil of lines through the center ``q``.

    The chart drops the highest nonzero coordinate of ``q``; concretely,
    with ``i`` that index and ``j1 < j2`` the two others, ``p`` maps to
    ``(q_i p_j1 - q_j1 p_i : q_i p_j2 - q_j2 p_i)``.  For the standard
    center ``(0 : 0 : 1)`` this is ``(x : y : z) -> (x : y)``.
    """
    if p == q:
        raise DuplicatePoint("cannot project the center from itself")
    qc, pc = q.coords(), p.coords()
    i = max(k for k in range(3) if qc[k] != 0)
    j1, j2 = (k for k in range(3) if k != i)
    return P1Point(qc[i] * pc[j1] - qc[j1] * pc[i], qc[i] * pc[j2] - qc[j2] * pc[i])


def intersect_line_conic(line: Line, conic: Conic) -> tuple[P2Point, ...]:
    """The rational intersection points, tangency giving a single point.

    The line is parametrized exactly and the restricted quadratic solved
    over Z; an irrational pair of solutions raises NonRationalIntersection
    and a line contained in the conic raises LineInConic.
    """
    lc = line.coeffs()
    i = max(k for k in range(3) if lc[k] != 0)
    j1, j2 = (k for k in range(3) if k != i)

    def spanning(j: int) -> tuple[int, int, int]:
        v = [0, 0, 0]
        v[j] = lc[i]
        v[i] = -lc[j]
        return tuple(v)

    v1, v2 = spanning(j1), spanning(j2)
    a = conic.evaluate_raw(*v1)
    c = conic.evaluate_raw(*v2)
    both = tuple(x + y for x, y in zip(v1, v2))
    b = conic.evaluate_raw(*both) - a - c

    if a == 0 and b == 0 and c == 0:
        raise LineInConic(f"{excerpt(line)} is a component of the conic")

    roots: list[tuple[int, int]]
    if a == 0 and b == 0:
        roots = [(1, 0)]
    elif a == 0:
        roots = [(1, 0), (-c, b)]
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            raise NonRationalIntersection(f"{excerpt(line)} misses the conic over Q")
        s = math.isqrt(disc)
        if s * s != disc:
            raise NonRationalIntersection(
                f"{excerpt(line)} meets the conic at conjugate irrational points")
        if disc == 0:
            roots = [(-b, 2 * a)]
        else:
            roots = [(-b + s, 2 * a), (-b - s, 2 * a)]

    points = {
        P2Point(*(s * x + t * y for x, y in zip(v1, v2)))
        for s, t in roots
    }
    return tuple(sorted(points))
