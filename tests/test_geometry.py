from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from cremona import (
    Conic,
    Line,
    Mobius,
    P1Point,
    P2Point,
    mobius_from_triples,
)
from cremona.geometry import (
    _reduced,
    intersect_line_conic,
    line_through,
    lines_meet,
    project_from,
)
from cremona.errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    DuplicatePoint,
    LineInConic,
    NonRationalIntersection,
)

PARABOLA = Conic(1, 0, 0, 0, 0, -1)  # x^2 = y z


def p1s():
    return st.tuples(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
    ).filter(lambda ab: ab != (0, 0)).map(lambda ab: P1Point(*ab))


def long_p1s():
    # coordinates of either sign, small or of up to 4000 digits, unreduced
    coordinate = st.one_of(st.integers(-6, 6), st.integers(-10**4000, 10**4000))
    return st.tuples(coordinate, coordinate).filter(lambda ab: ab != (0, 0))


def mobius_maps():
    return st.tuples(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    ).filter(lambda m: m[0] * m[3] - m[1] * m[2] != 0).map(
        lambda m: Mobius.from_coeffs(*m)
    )


class TestP1Point:
    def test_reduction_and_sign(self):
        assert P1Point(2, 4) == P1Point(1, 2)
        assert P1Point(-3, -6) == P1Point(1, 2)
        assert P1Point(3, -6) == P1Point(-1, 2)
        assert P1Point(3, -6).a == 1

    def test_zero_rejected(self):
        with pytest.raises(DegenerateConfiguration, match=r"^all coordinates of a P1 point are zero$"):
            P1Point(0, 0)

    @given(long_p1s())
    @example((0, -7))
    @example((-4, 0))
    def test_reduction_matches_generic_reduction(self, ab):
        p = P1Point(*ab)
        assert (p.a, p.b) == _reduced(ab, "P1 point")

    def test_values_and_infinity(self):
        assert P1Point.from_value(Fraction(3, 4)) == P1Point(3, 4)
        assert P1Point.infinity() == P1Point(1, 0) == P1Point(-5, 0)
        assert P1Point.from_value(Fraction(7, 2)) == P1Point(7, 2)
        assert P1Point.from_value(-3) == P1Point(3, -1)

    def test_infinity_sorts_last(self):
        pts = [P1Point.infinity(), P1Point(5, 1), P1Point(-2, 1), P1Point(1, 2)]
        assert sorted(pts) == [P1Point(-2, 1), P1Point(1, 2), P1Point(5, 1), P1Point.infinity()]

    @given(long_p1s(), long_p1s())
    @example((1, 0), (-5, 0))
    @example((1, 0), (3, -7))
    @example((3, -7), (1, 0))
    @example((1, -2), (-1, 3))
    @example((0, -1), (1, -10**4000))
    @example((10**4000 + 1, 10**4000), (10**4000, 10**4000 - 1))
    def test_order_agrees_with_fractions(self, ab, cd):
        # infinity last, finite points by value, however signed or long
        def key(pair):
            a, b = pair
            return (1,) if b == 0 else (0, Fraction(a, b))

        p, q = P1Point(*ab), P1Point(*cd)
        assert (p < q) == (key(ab) < key(cd))
        assert (q < p) == (key(cd) < key(ab))


class TestP2Point:
    def test_reduction(self):
        assert P2Point(2, 4, 6) == P2Point(1, 2, 3)
        assert P2Point(0, 0, -5) == P2Point(0, 0, -1) or P2Point(0, 0, -5).coords()[2] in (1, -1)

    def test_from_affine(self):
        assert P2Point.from_affine(Fraction(1, 2), Fraction(2, 3)) == P2Point(3, 4, 6)


class TestLines:
    def test_line_through_and_membership(self):
        p, q = P2Point(1, 0, 1), P2Point(0, 1, 1)
        ln = line_through(p, q)
        assert ln.contains(p) and ln.contains(q)
        assert ln == Line(1, 1, -1)

    def test_line_through_same_point(self):
        with pytest.raises(DuplicatePoint):
            line_through(P2Point(1, 2, 3), P2Point(2, 4, 6))

    def test_lines_meet(self):
        assert lines_meet(Line(1, 0, 0), Line(0, 1, 0)) == P2Point(0, 0, 1)
        with pytest.raises(DegenerateConfiguration):
            lines_meet(Line(1, 1, 0), Line(2, 2, 0))


class TestConic:
    def test_evaluate_and_contains(self):
        assert PARABOLA.contains(P2Point(2, 4, 1))
        assert not PARABOLA.contains(P2Point(1, 1, 2))

    def test_smoothness(self):
        assert PARABOLA.is_smooth()
        assert not Conic(0, 0, 0, 1, 0, 0).is_smooth()  # xy = 0, two lines

    @given(st.tuples(*[st.integers(min_value=-3, max_value=3)] * 6).filter(any))
    def test_smooth_iff_the_doubled_symmetric_matrix_is_invertible(self, coeffs):
        conic = Conic(*coeffs)
        xx, yy, zz, xy, xz, yz = conic.coeffs()
        doubled = sympy.Matrix([[2 * xx, xy, xz], [xy, 2 * yy, yz], [xz, yz, 2 * zz]])
        assert conic.is_smooth() == (doubled.det() != 0)

    def test_coefficient_reduction(self):
        assert Conic(2, 0, 0, 0, 0, -2) == PARABOLA


class TestMobius:
    def test_singular_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            Mobius(((1, 2), (2, 4)))
        with pytest.raises(DimensionMismatch):
            Mobius(((1, 2, 3), (4, 5, 6)))

    @given(mobius_maps(), mobius_maps(), p1s())
    def test_composition_is_a_homomorphism(self, m1, m2, p):
        assert m1.compose(m2).apply(p) == m1.apply(m2.apply(p))

    def test_from_triples(self):
        src = (P1Point(0, 1), P1Point(1, 1), P1Point.infinity())
        dst = (P1Point(1, 1), P1Point(2, 1), P1Point(3, 1))
        m = mobius_from_triples(src, dst)
        assert [m.apply(p) for p in src] == list(dst)

    def test_from_triples_rejects_repeats(self):
        with pytest.raises(DuplicatePoint):
            mobius_from_triples(
                (P1Point(0, 1), P1Point(0, 1), P1Point(1, 0)),
                (P1Point(0, 1), P1Point(1, 1), P1Point(1, 0)),
            )

    @given(p1s(), p1s(), p1s())
    def test_triple_transitivity(self, p, q, r):
        if len({p, q, r}) != 3:
            return
        std = (P1Point(0, 1), P1Point(1, 1), P1Point.infinity())
        m = mobius_from_triples(std, (p, q, r))
        assert (m.apply(std[0]), m.apply(std[1]), m.apply(std[2])) == (p, q, r)


class TestProjection:
    def test_standard_center(self):
        assert project_from(P2Point(0, 0, 1), P2Point(3, 6, 11)) == P1Point(1, 2)

    def test_center_itself_rejected(self):
        with pytest.raises(DuplicatePoint):
            project_from(P2Point(1, 2, 3), P2Point(1, 2, 3))

    def test_lines_through_center_collapse(self):
        center = P2Point(1, 1, 1)
        a, b = P2Point(3, 1, 2), P2Point(5, 1, 3)  # both on a line through center
        assert line_through(center, a) == line_through(center, b)
        assert project_from(center, a) == project_from(center, b)


class TestLineConicIntersection:
    def test_chord(self):
        chord = line_through(P2Point(0, 0, 1), P2Point(1, 1, 1))
        pts = intersect_line_conic(chord, PARABOLA)
        assert pts == (P2Point(0, 0, 1), P2Point(1, 1, 1))

    def test_tangent_single_point(self):
        # gradient of x^2 - yz at (1:1:1) is (2, -1, -1)
        tangent = Line(2, -1, -1)
        assert intersect_line_conic(tangent, PARABOLA) == (P2Point(1, 1, 1),)

    def test_tangent_at_the_base_point_of_the_parametrization(self):
        # z = 0 is parametrized from (1:0:0), where it touches y^2 = x z, so the
        # restricted quadratic has no s^2 and no s t term
        assert intersect_line_conic(Line(0, 0, 1), Conic(0, 1, 0, 0, -1, 0)) == (P2Point(1, 0, 0),)

    def test_irrational_pair(self):
        with pytest.raises(NonRationalIntersection):
            intersect_line_conic(Line(0, -5, 1), PARABOLA)  # x^2 = 5 y^2

    def test_line_inside_conic(self):
        with pytest.raises(LineInConic):
            intersect_line_conic(Line(1, 0, 0), Conic(0, 0, 0, 1, 0, 0))

    @given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
    def test_secants_through_two_parabola_points(self, s, t):
        if s == t:
            return
        a, b = P2Point(s, s * s, 1), P2Point(t, t * t, 1)
        pts = intersect_line_conic(line_through(a, b), PARABOLA)
        assert set(pts) == {a, b}
