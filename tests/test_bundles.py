import collections
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cremona import (
    BlowupLattice,
    Conic,
    FiberedMarking,
    LatticeAction,
    Line,
    P1Point,
    P2Point,
    RamificationTriplet,
    build_from_four_lines,
    build_from_three_lines_conic,
    classify,
    del_pezzo_verdict_for_profile,
    delta_canonical_form,
    exceptional_from_delta,
    fixed_curve_class,
    halphen_check,
    intersect,
    invariant_sublattice,
    involution_matrix,
    is_del_pezzo_bundle,
    jonquieres_involution_matrix,
    minimality_obstruction_solver,
    realizable_profiles,
    second_fibration_solver,
    stabilizer,
    triplet_from_profile,
    validate_triplet,
    z22_from_triplet,
)
from cremona import bundles, jsonio, picard
from cremona import intlinalg as la
from cremona.bundles import RealizationCertificate
from cremona.corpus import (
    FOUR_LINES,
    FOUR_LINES_CENTER,
    HALPHEN_TRIPLET,
    THREE_LINES,
    THREE_LINES_CONIC,
    THREE_LINES_D1,
    THREE_LINES_D2,
    four_lines_model,
    three_lines_conic_model,
    p1,
)
from cremona.errors import (
    CremonaError,
    DegenerateConfiguration,
    DimensionMismatch,
    DuplicatePoint,
    InvalidCertificate,
    InvariantViolation,
    OddCardinality,
    QOnConfiguration,
    TooSmall,
)
from cremona.geometry import Mobius, line_through, lines_meet, mobius_from_triples
from reference_kernel import (
    AlignmentViolation,
    reference_build_from_three_lines_conic,
    reference_exceptional_sections,
    reference_exceptional_split,
    reference_group_order,
    reference_involution_matrix,
    reference_mat_mul,
)


class TestInvolutionMatrix:
    def test_is_an_involution_fixing_fiber_data(self):
        marking = FiberedMarking.standard(4)
        m = involution_matrix(marking, (1, 3))
        assert la.mat_mul(m, m) == la.identity(marking.lattice.rank)
        k = marking.lattice.canonical_class.coeffs
        f = marking.fiber_class.coeffs
        assert la.mat_vec(m, k) == k
        assert la.mat_vec(m, f) == f

    def test_swaps_exactly_the_listed_fibers(self):
        marking = FiberedMarking.standard(4)
        m = involution_matrix(marking, (2, 4))
        lat = marking.lattice
        f = marking.fiber_class
        for j in range(1, 5):
            ej = marking.fiber_component(j)
            image = la.mat_vec(m, ej.coeffs)
            if j in (2, 4):
                assert image == (f - ej).coeffs  # the opposite component
            else:
                assert image == ej.coeffs

    def test_odd_swap_set_rejected(self):
        marking = FiberedMarking.standard(4)
        with pytest.raises(OddCardinality):
            involution_matrix(marking, (1, 2, 3))

    def test_out_of_range_rejected(self):
        marking = FiberedMarking.standard(4)
        with pytest.raises(DimensionMismatch):
            involution_matrix(marking, (1, 5))

    def test_every_even_swap_set_gives_an_involution_fixing_f(self):
        # all 4096 matrices the formula builds for k <= 12: each is an isometry
        # fixing K (validate_action), squares to 1, fixes f, and has trace
        # 2 + (k - |J|) - |J|, one +1 per unmoved fiber and -1 per swapped one
        for k in range(13):
            marking = FiberedMarking.standard(k)
            ident = la.identity(marking.lattice.rank)
            f = marking.fiber_class.coeffs
            for size in range(0, k + 1, 2):
                for swapped in itertools.combinations(range(1, k + 1), size):
                    m = involution_matrix(marking, swapped)
                    assert picard.validate_action(marking.lattice, m) == m
                    assert reference_mat_mul(m, m) == ident, (k, swapped)
                    assert la.mat_vec(m, f) == f, (k, swapped)
                    assert sum(m[i][i] for i in range(k + 2)) == k + 2 - 2 * size, (k, swapped)

    def test_matches_divisor_class_reference_for_every_even_swap_set(self):
        # the integer columns written directly against the DivisorClass sums
        for k in range(9):
            marking = FiberedMarking.standard(k)
            for size in range(0, k + 1, 2):
                for swapped in itertools.combinations(range(1, k + 1), size):
                    assert involution_matrix(marking, swapped) == \
                        reference_involution_matrix(marking, swapped), (k, swapped)


class TestZ22Model:
    def test_group_relations(self):
        model = z22_from_triplet(triplet_from_profile((1, 2, 2)))
        ident = la.identity(model.marking.lattice.rank)
        g1, g2, g3 = model.generators
        assert all(la.mat_mul(g, g) == ident for g in (g1, g2, g3))
        assert la.mat_mul(g1, g2) == g3
        assert reference_group_order(model.action()) == 4

    def test_profile_and_degree(self):
        model = z22_from_triplet(triplet_from_profile((1, 2, 3)))
        assert model.profile == (1, 2, 3)
        assert model.k == 6
        assert model.k_squared == 2

    def test_product_of_noncommuting_generators_is_refused(self, monkeypatch):
        # sigma_3 is not squared: were sigma_1 and sigma_2 reflections in roots
        # meeting in 1, and the formula for A_3 their product, the symmetry
        # test on that product refuses the model
        lat = BlowupLattice(5)
        e2, e3, e4 = (lat.exceptional_class(i) for i in (2, 3, 4))
        gens = [picard.reflection_matrix(lat, e2 - e3), picard.reflection_matrix(lat, e3 - e4)]
        product = la.mat_mul(*gens)
        monkeypatch.setattr(bundles, "involution_matrix", lambda marking, swapped: gens.pop(0))
        monkeypatch.setattr(bundles, "_fiberwise_matrix", lambda marking, swapped: product)
        with pytest.raises(InvariantViolation, match="does not square to the identity"):
            z22_from_triplet(triplet_from_profile((1, 1, 2)))

    def test_a_group_fixing_more_than_k_and_f_is_refused(self, monkeypatch):
        # identity matrices pass the involution checks, the product and the
        # symmetry test; only the trace test sees the fixed lattice of rank k + 2
        monkeypatch.setattr(bundles, "_fiberwise_matrix",
                            lambda marking, swapped: la.identity(marking.lattice.rank))
        with pytest.raises(InvariantViolation, match="^the fixed lattice of the Klein four-group"
                           r" model is not Z K \+ Z f$"):
            z22_from_triplet(triplet_from_profile((1, 1, 2)))

    def test_invariant_lattice_is_k_and_fiber(self):
        model = z22_from_triplet(triplet_from_profile((2, 2, 2)))
        rank, basis = invariant_sublattice(model.action())
        assert rank == 2
        lat = model.marking.lattice
        target = (lat.canonical_class.coeffs, model.marking.fiber_class.coeffs)
        assert la.spans_equal(tuple(d.coeffs for d in basis), target)


class TestWorkCount:
    """Each generator is checked once, and never again; a Klein-four model
    reduces no matrix to Hermite form, and no model copies a matrix."""

    @pytest.fixture
    def work(self, monkeypatch):
        counts = collections.Counter()
        kernels = []
        depth = [0]

        def counted(name, f):
            def wrapper(*args):
                counts[name] += 1
                depth[0] += 1
                try:
                    return f(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        real_mul, real_kernel, real_freeze = la.mat_mul, la.kernel_basis, la.freeze

        def mat_mul(a, b):
            if not depth[0]:
                counts["product outside a check"] += 1
            return real_mul(a, b)

        def freeze(rows):
            frozen = real_freeze(rows)
            if frozen is not rows:
                counts["matrix copied"] += 1
            return frozen

        def kernel_basis(m):
            kernels.append(m)
            return real_kernel(m)

        monkeypatch.setattr(picard, "validate_action",
                            counted("validate_action", picard.validate_action))
        monkeypatch.setattr(bundles, "validate_involution",
                            counted("validate_involution", bundles.validate_involution))
        monkeypatch.setattr(la, "hermite_row_form",
                            counted("hermite_row_form", la.hermite_row_form))
        monkeypatch.setattr(la, "mat_mul", mat_mul)
        monkeypatch.setattr(la, "kernel_basis", kernel_basis)
        monkeypatch.setattr(la, "freeze", freeze)
        return counts, kernels

    def test_a_list_matrix_is_copied(self, work):
        # the copy counter of the tests below counts: a matrix given as
        # lists is copied once on entry, and the built matrices are not
        counts, _ = work
        marking = FiberedMarking.standard(2)
        swap = bundles._fiberwise_matrix(marking, (1, 2))
        bundles.validate_involution(marking.lattice, [list(row) for row in swap])
        bundles.validate_involution(marking.lattice, swap)
        assert counts == {"validate_involution": 2, "matrix copied": 1}

    @pytest.mark.parametrize("profile", realizable_profiles(12))
    def test_z22_model(self, work, monkeypatch, profile):
        counts, kernels = work
        real = bundles.is_g_symmetric

        def is_g_symmetric(m):
            counts["is_g_symmetric"] += 1
            return real(m)

        monkeypatch.setattr(bundles, "is_g_symmetric", is_g_symmetric)
        model = z22_from_triplet(triplet_from_profile(profile))
        # sigma_1 and sigma_2 are squared in their checks; sigma_3 is their
        # product, proved involutive by the symmetry of G sigma_3 and not
        # squared.  The conic-bundle test reads traces and images of K and f:
        # no Hermite form and no kernel.  No matrix is copied ("matrix copied")
        assert counts == {"validate_involution": 2, "product outside a check": 1,
                          "is_g_symmetric": 1}
        assert kernels == []
        assert model.action().generators == model.generators[:2]

    @pytest.mark.parametrize("profile", realizable_profiles(12))
    def test_classify_builds_each_point_once(self, monkeypatch, profile):
        # the reader builds one point per distinct pair, though each lies in
        # two sets, and the canonical form one per image point
        doc = {"kind": "z22", "triplet": jsonio.triplet_json(triplet_from_profile(profile))}
        built = collections.Counter()
        real_init = P1Point.__init__

        def init(self, a, b):
            built["P1Point"] += 1
            real_init(self, a, b)

        monkeypatch.setattr(P1Point, "__init__", init)
        verdict = classify(jsonio.parse_descriptor(doc))
        k = sum(profile)
        canonical = isinstance(verdict.invariant, RamificationTriplet)
        assert canonical == (verdict.outcome == "maximal")
        assert built["P1Point"] == k + (k if canonical else 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exceptional_model(self, work, monkeypatch, n):
        counts, kernels = work
        real = bundles.is_conic_bundle

        def is_conic_bundle(marking, elements):
            counts["is_conic_bundle"] += 1
            return real(marking, elements)

        monkeypatch.setattr(bundles, "is_conic_bundle", is_conic_bundle)
        model = exceptional_from_delta([p1(j) for j in range(2 * n)])
        # the swap is checked once, and its split once, by the one trace
        # test; no matrix is copied ("matrix copied")
        assert counts == {"validate_involution": 1, "is_conic_bundle": 1}
        assert kernels == []
        assert model.action().generators == (model.swap,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_proved_facts_are_not_recomputed(self, monkeypatch, n):
        # the sections' squares, product and swap, and the images of the
        # triples under each stabilizer map, are proved, not computed
        calls = collections.Counter()
        real_intersect, real_apply = picard.intersect, Mobius.apply

        def intersect(*args):
            calls["intersect"] += 1
            return real_intersect(*args)

        def apply(self, p):
            calls["apply"] += 1
            return real_apply(self, p)

        monkeypatch.setattr(bundles, "intersect", intersect)
        monkeypatch.setattr(picard, "intersect", intersect)
        monkeypatch.setattr(Mobius, "apply", apply)
        exceptional_from_delta([p1(j) for j in range(2 * n)])
        src, dst = (p1(0), p1(1), p1(2)), (p1(3), p1(5), p1(4))
        m = mobius_from_triples(src, dst)
        assert calls == {}
        assert [real_apply(m, p) for p in src] == list(dst)

    @pytest.mark.parametrize("build", [four_lines_model, three_lines_conic_model])
    def test_plane_model_builds_one_marking(self, monkeypatch, build):
        # the certificate's sections are written in the marking of the model
        model = self.markings_built(monkeypatch, build)
        assert model.certificate is not None

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_exceptional_model_builds_one_marking(self, monkeypatch, n):
        model = self.markings_built(
            monkeypatch, lambda: exceptional_from_delta([p1(j) for j in range(2 * n)]))
        assert model.marking.k == len(model.delta) == 2 * n

    @staticmethod
    def markings_built(monkeypatch, build):
        """Build a model and check that it made exactly one marking, by
        ``FiberedMarking.standard`` on its own number of fibers: E_j then lies
        over the j-th point of the model's support, which no marking stores."""
        made = []
        real_init, real_standard = picard.FiberedMarking.__init__, picard.FiberedMarking.standard

        def init(self, lattice):
            made.append(lattice)
            real_init(self, lattice)

        def standard(k):
            made.append(k)
            return real_standard(k)

        monkeypatch.setattr(picard.FiberedMarking, "__init__", init)
        monkeypatch.setattr(picard.FiberedMarking, "standard", standard)
        model = build()
        assert made == [model.marking.k, model.marking.lattice]
        return model


class TestFixedCurves:
    @pytest.mark.parametrize("profile", [(1, 1, 2), (1, 2, 2), (2, 2, 3), (2, 2, 4)])
    def test_formulas(self, profile):
        model = z22_from_triplet(triplet_from_profile(profile))
        lat = model.marking.lattice
        f = model.marking.fiber_class
        for i in (1, 2, 3):
            a = profile[i - 1]
            curve = fixed_curve_class(model, i)
            assert curve.divisor == -lat.canonical_class + (a - 2) * f
            assert curve.self_intersection == 4 * a - model.k
            assert curve.genus == a - 1

    def test_index_range(self):
        model = z22_from_triplet(triplet_from_profile((1, 1, 1)))
        with pytest.raises(DimensionMismatch):
            fixed_curve_class(model, 0)
        with pytest.raises(DimensionMismatch):
            fixed_curve_class(model, 4)


class TestDelPezzoVerdict:
    def test_small_profiles_are_del_pezzo(self):
        for profile in ((1, 1, 1), (1, 1, 2), (1, 2, 2)):
            assert del_pezzo_verdict_for_profile(profile).kind == "yes"

    def test_large_k_is_not(self):
        assert del_pezzo_verdict_for_profile((2, 3, 3)).kind == "no"
        assert del_pezzo_verdict_for_profile((2, 2, 4)).kind == "no"

    def test_rational_fixed_curve_obstruction(self):
        verdict = del_pezzo_verdict_for_profile((1, 2, 3))
        assert verdict.kind == "no"
        assert "rational curve" in verdict.reason

    def test_interior_profiles_need_a_certificate(self):
        assert del_pezzo_verdict_for_profile((2, 2, 2)).kind == "indeterminate"
        assert del_pezzo_verdict_for_profile((2, 2, 3)).kind == "indeterminate"
        assert del_pezzo_verdict_for_profile((2, 2, 2), certified=True).kind == "no"

    def test_invalid_profile(self):
        with pytest.raises(TooSmall):
            del_pezzo_verdict_for_profile((0, 1, 1))

    def test_model_dispatch_uses_the_certificate(self):
        assert is_del_pezzo_bundle(four_lines_model()).kind == "no"
        bare = z22_from_triplet(triplet_from_profile((2, 2, 2)))
        assert is_del_pezzo_bundle(bare).kind == "indeterminate"


class TestFourLines:
    def test_corpus_configuration(self):
        model = four_lines_model()
        assert model.profile == (2, 2, 2)
        assert model.k == 6
        cert = model.certificate
        assert cert is not None and cert.source == "four-lines"
        assert cert.pairwise_disjoint
        lat = model.marking.lattice
        for s in cert.section_classes:
            assert intersect(lat, s, s) == -2
            assert intersect(lat, s, model.marking.fiber_class) == 1

    def test_wrong_line_count(self):
        with pytest.raises(DegenerateConfiguration):
            build_from_four_lines(FOUR_LINES[:3], FOUR_LINES_CENTER)

    def test_center_on_a_line(self):
        with pytest.raises(QOnConfiguration):
            build_from_four_lines(FOUR_LINES, P2Point(1, 0, 1))

    def test_concurrent_lines(self):
        lines = (Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0), Line(1, 1, -1))
        with pytest.raises(DegenerateConfiguration):
            build_from_four_lines(lines, P2Point(1, 2, 5))

    def test_center_aligned_with_two_double_points(self):
        # (6 : 2 : 3) is collinear with L1.L2 = (1:1:1) and L3.L4 = (5:1:2)
        with pytest.raises(DegenerateConfiguration):
            build_from_four_lines(FOUR_LINES, P2Point(6, 2, 3))


class TestThreeLinesConic:
    def test_corpus_configuration(self):
        model = three_lines_conic_model()
        assert model.profile == (2, 2, 3)
        assert model.k == 7
        assert model.k_squared == 1
        cert = model.certificate
        assert cert is not None and cert.source == "three-lines-conic"
        assert not cert.pairwise_disjoint
        crossings = [
            (i, j)
            for i in range(4) for j in range(i + 1, 4)
            if cert.intersection_matrix[i][j] != 0
        ]
        assert len(crossings) == 2
        assert sorted(i for pair in crossings for i in pair) == [0, 1, 2, 3]
        assert all(cert.intersection_matrix[i][j] == 1 for i, j in crossings)

    def test_wrong_line_count(self):
        with pytest.raises(DegenerateConfiguration):
            build_from_three_lines_conic(
                THREE_LINES[:2], THREE_LINES_CONIC, THREE_LINES_D1, THREE_LINES_D2)

    def test_singular_conic_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            build_from_three_lines_conic(
                THREE_LINES, Conic(0, 0, 0, 1, 0, 0), THREE_LINES_D1, THREE_LINES_D2)

    def test_d1_must_be_a_double_point(self):
        with pytest.raises(DegenerateConfiguration):
            build_from_three_lines_conic(
                THREE_LINES, THREE_LINES_CONIC, THREE_LINES_D2, THREE_LINES_D2)

    def test_d2_must_lie_on_the_third_line(self):
        with pytest.raises(DegenerateConfiguration):
            build_from_three_lines_conic(
                THREE_LINES, THREE_LINES_CONIC, THREE_LINES_D1, P2Point(1, 1, 1))

    def test_d2_must_lie_on_the_conic(self):
        with pytest.raises(DegenerateConfiguration):
            build_from_three_lines_conic(
                THREE_LINES, THREE_LINES_CONIC, THREE_LINES_D1, P2Point(1, 4, 1))

    def test_d1_and_d2_off_one_fiber_are_refused(self, monkeypatch):
        # the center is a point of intersect_line_conic on the line d1 d2; were
        # d1 seen in another direction, the center would be off that line
        real = bundles.project_from

        def project_from(q, p):
            image = real(q, p)
            # t -> -1/t fixes no rational point
            return P1Point(-image.b, image.a) if p == THREE_LINES_D1 else image

        monkeypatch.setattr(bundles, "project_from", project_from)
        with pytest.raises(InvariantViolation, match="^d1 and d2 project to different fibers$"):
            build_from_three_lines_conic(
                THREE_LINES, THREE_LINES_CONIC, THREE_LINES_D1, THREE_LINES_D2)


PARABOLA = Conic(1, 0, 0, 0, 0, -1)  # x^2 = y z

small = st.integers(min_value=-6, max_value=6)
plane_points = st.tuples(small, small, small).filter(any).map(lambda c: P2Point(*c))
lines3 = st.tuples(small, small, small).filter(any).map(lambda c: Line(*c))
# (a : b) -> (a b : a^2 : b^2) parametrizes the parabola
parabola_points = st.tuples(small, small).filter(any).map(
    lambda ab: P2Point(ab[0] * ab[1], ab[0] ** 2, ab[1] ** 2))
conics = st.one_of(
    st.just(PARABOLA), st.tuples(*[small] * 6).filter(any).map(lambda c: Conic(*c)))


def _outcome(build, args):
    """("model", the model built), or the class and message of the error."""
    try:
        return "model", build(*args)
    except CremonaError as exc:
        return type(exc), str(exc)


@st.composite
def incident_configurations(draw):
    """Lines from d1 through two points of the parabola and a line from d2
    through a third, in any order.  The four points are distinct in half of
    the draws, and d1 lies on the tangent at d2 in a quarter of them; a draw
    that degenerates before that is discarded."""
    a1, b1, d2, c = draw(
        st.lists(parabola_points, min_size=4, max_size=4, unique=draw(st.booleans())))
    try:
        if draw(st.integers(0, 3)) == 0:
            # the gradient (2x, -z, -y) of x^2 - y z at d2 is its tangent line
            tangent = Line(2 * d2.a, -d2.c, -d2.b)
            d1 = lines_meet(tangent, draw(lines3))
        else:
            d1 = draw(plane_points)
        lines = [line_through(d1, a1), line_through(d1, b1), line_through(d2, c)]
    except CremonaError:
        lines = None
    assume(lines is not None)
    return draw(st.permutations(lines)), PARABOLA, d1, d2


@st.composite
def perturbed_configurations(draw):
    """An incident configuration with one of its data drawn at random."""
    lines, conic, d1, d2 = draw(incident_configurations())
    which = draw(st.sampled_from(("line", "conic", "d1", "d2")))
    if which == "line":
        lines[draw(st.integers(0, 2))] = draw(lines3)
    elif which == "conic":
        conic = draw(conics)
    elif which == "d1":
        d1 = draw(st.one_of(plane_points, parabola_points))
    else:
        d2 = draw(st.one_of(plane_points, parabola_points))
    return lines, conic, d1, d2


random_configurations = st.tuples(
    st.lists(lines3, min_size=3, max_size=3, unique=True), conics, plane_points, parabola_points)


class TestThreeLinesConicAgainstReference:
    """The builder without its unreachable checks agrees with the builder that
    had them: the same model or the same error, except that two blown-up
    points in one fiber raise DegenerateConfiguration, not AlignmentViolation."""

    def _agree(self, args):
        expected = _outcome(reference_build_from_three_lines_conic, args)
        got = _outcome(build_from_three_lines_conic, args)
        if expected[0] is AlignmentViolation:
            assert got[0] is DegenerateConfiguration
            assert got[1].startswith(
                "the center sees two blown-up points in the same direction (repeated: ")
        else:
            assert got == expected

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(incident_configurations())
    def test_incident(self, args):
        self._agree(args)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(perturbed_configurations())
    def test_perturbed(self, args):
        self._agree(args)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(random_configurations)
    def test_random(self, args):
        self._agree(args)

    def test_two_blown_up_points_in_one_fiber(self):
        # the one rejection whose class changed, rare among the drawn examples
        args = ([Line(0, 4, -1), Line(1, 12, -1), Line(9, 4, 2)], PARABOLA,
                P2Point(8, -1, -4), P2Point(2, -4, -1))
        assert _outcome(reference_build_from_three_lines_conic, args)[0] is AlignmentViolation
        self._agree(args)


def _recertify(model, sections, source=None):
    """The model's triplet with a certificate on ``sections`` and a true matrix."""
    lat = model.marking.lattice
    matrix = tuple(tuple(intersect(lat, s, t) for t in sections) for s in sections)
    return model.triplet, RealizationCertificate(
        source or model.certificate.source, tuple(sections), matrix)


def _not_a_minus_two_section():
    model = four_lines_model()
    sections = model.certificate.section_classes
    return _recertify(model, (model.marking.lattice.line_class(),) + sections[1:])


def _tampered_matrix():
    model = four_lines_model()
    cert = model.certificate
    matrix = [list(row) for row in cert.intersection_matrix]
    matrix[0][1] = 5
    return model.triplet, RealizationCertificate(
        cert.source, cert.section_classes, tuple(map(tuple, matrix)))


def _foreign_section():
    # another (-2)-section L - E_a - E_b - E_c, which the involutions move
    # out of the set
    model = four_lines_model()
    sections = model.certificate.section_classes
    lat = model.marking.lattice
    for triple in itertools.combinations(range(1, model.k + 1), 3):
        s = lat.line_class()
        for j in triple:
            s = s - model.marking.fiber_component(j)
        if s not in sections:
            return _recertify(model, (s,) + sections[1:])
    raise AssertionError("every L - E_a - E_b - E_c is a certificate section")


def _relabelled(build, source):
    def case():
        model = build()
        return _recertify(model, model.certificate.section_classes, source)
    return case


class TestCertificateRejection:
    @pytest.mark.parametrize("case, message", [
        (_not_a_minus_two_section, "not a \\(-2\\)-section"),
        (_tampered_matrix, "intersection matrix"),
        (_foreign_section, "permute|orbit"),
        (_relabelled(three_lines_conic_model, "four-lines"), "disjoint"),
        (_relabelled(four_lines_model, "three-lines-conic"), "crossing pairs"),
        (_relabelled(four_lines_model, "five-lines"), "unknown certificate source"),
    ], ids=["not-minus-two", "tampered-matrix", "foreign-section",
            "conic-sections-as-four-lines", "line-sections-as-three-lines-conic",
            "unknown-source"])
    def test_rejected_through_z22_from_triplet(self, case, message):
        triplet, cert = case()
        with pytest.raises(InvalidCertificate, match=message):
            z22_from_triplet(triplet, cert)

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_section_count(self, count):
        # jsonio reads exactly four sections, but a certificate built in
        # Python reaches z22_from_triplet directly; with no sections the later
        # checks would fail on an IndexError
        model = four_lines_model()
        triplet, cert = _recertify(model, (model.certificate.section_classes * 2)[:count])
        with pytest.raises(InvalidCertificate, match="exactly four sections"):
            z22_from_triplet(triplet, cert)


class TestJonquieres:
    def test_involution_and_invariant_rank(self):
        marking = FiberedMarking.standard(4)
        inv = jonquieres_involution_matrix(marking)
        n = marking.lattice.rank
        assert la.mat_mul(inv.generator, inv.generator) == la.identity(n)
        action = LatticeAction(marking.lattice, (inv.generator,))
        rank, _ = invariant_sublattice(action)
        assert rank == 2

    def test_needs_four_fibers(self):
        with pytest.raises(DimensionMismatch):
            jonquieres_involution_matrix(FiberedMarking.standard(3))


#: the one message for a swap whose fixed lattice is not Z K + Z f
SPLIT_REFUSED = r"the fixed lattice of the swap is not Z K \+ Z f"


class TestExceptionalBundles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_swap_eigenvalue_split(self, n):
        delta = tuple(p1(i) for i in range(2 * n))
        model = exceptional_from_delta(delta)
        assert model.n == n
        assert model.k_squared == 8 - 2 * n
        rank = model.marking.lattice.rank
        trace = sum(model.swap[i][i] for i in range(rank))
        # an involution splits as (+1)^a (-1)^b with a + b = rank, a - b = trace
        assert (rank + trace) // 2 == 2
        assert (rank - trace) // 2 == 2 * n
        assert invariant_sublattice(model.action())[0] == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sections_are_disjoint_swapped_negative_curves(self, n):
        model = exceptional_from_delta(tuple(p1(i) for i in range(2 * n)))
        lat = model.marking.lattice
        s1, s2 = model.section_classes
        assert intersect(lat, s1, s1) == intersect(lat, s2, s2) == -model.n
        assert intersect(lat, s1, s2) == 0
        assert la.mat_vec(model.swap, s1.coeffs) == s2.coeffs

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sections_are_the_subtracted_classes(self, n):
        # written as coefficient vectors, the sections are L and E_0 less
        # their fiber components
        model = exceptional_from_delta(tuple(p1(i) for i in range(2 * n)))
        assert model.section_classes == reference_exceptional_sections(model.marking, n)

    def test_aut_descriptor_for_large_n(self):
        model = exceptional_from_delta(tuple(p1(i) for i in (0, 1, 2, 3)))
        assert model.equals_full_automorphisms
        assert model.KERNEL_TAG == "C^* : Z/2"
        assert len(model.stabilizer) == 4

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_a_swap_fixing_a_fiber_is_refused_at_that_fiber(self, monkeypatch, n):
        # the last two fibers are not swapped, so f - 2 E_j is fixed for them
        full = bundles.involution_matrix
        monkeypatch.setattr(bundles, "involution_matrix",
                            lambda marking, swapped: full(marking, swapped[:-2]))
        with pytest.raises(InvariantViolation, match=f"^{SPLIT_REFUSED}$"):
            exceptional_from_delta(tuple(p1(i) for i in range(2 * n)))

    def test_a_swap_moving_f_is_refused(self, monkeypatch):
        monkeypatch.setattr(bundles, "involution_matrix", lambda marking, swapped: la.freeze(
            [[int(i == (j + 1) % 6) for j in range(6)] for i in range(6)]))
        with pytest.raises(InvariantViolation, match=f"^{SPLIT_REFUSED}$"):
            exceptional_from_delta(tuple(p1(i) for i in range(4)))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_the_trace_test_agrees_with_the_fiberwise_split(self, k):
        # every even J: only J = all fibers (k even) splits off Z K + Z f
        marking = FiberedMarking.standard(k)
        for size in range(0, k + 1, 2):
            for swapped in itertools.combinations(range(1, k + 1), size):
                swap = involution_matrix(marking, swapped)
                try:
                    reference_exceptional_split(marking, swap)
                    split = True
                except InvariantViolation:
                    split = False
                assert split == (len(swapped) == k), swapped
                assert picard.is_conic_bundle(marking, (swap,)) == split, swapped

    @pytest.mark.parametrize("values", [(3, 0, 2, 1), (0, None, 1, -1), (20, 0, 1, 3, 7, 12)])
    def test_canonical_form_and_stabilizer_are_the_public_ones(self, values):
        # the model reads both from one pass over its sorted branch set
        delta = tuple(p1(v) for v in values)
        model = exceptional_from_delta(delta)
        assert (model.canonical_delta, model.stabilizer) == \
            (delta_canonical_form(delta), stabilizer(delta))

    def test_aut_descriptor_for_n_one(self):
        model = exceptional_from_delta(tuple(p1(i) for i in (0, 1)))
        assert not model.equals_full_automorphisms
        assert model.stabilizer is None

    def test_branch_set_guards(self):
        with pytest.raises(TooSmall):
            exceptional_from_delta((p1(0),))
        with pytest.raises(OddCardinality):
            exceptional_from_delta(tuple(p1(i) for i in (0, 1, 2)))

    def test_duplicate_points_collapse_before_the_size_check(self):
        # a repeated branch point is rejected, not collapsed: in the square
        # class reading a repeated root would cancel
        with pytest.raises(DuplicatePoint):
            exceptional_from_delta(tuple(p1(i) for i in (0, 1, 2)) + (p1(2),))


class TestObstructionSolver:
    FROZEN = {
        (1, -1, -1, 3),
        (2, -1, -2, 6),
        (4, -1, -4, 12),
        (4, -2, -3, 5),
    }

    def test_full_solution_table(self):
        assert {tuple(s) for s in minimality_obstruction_solver()} == self.FROZEN

    def test_filter_by_fiber_count(self):
        assert [tuple(s) for s in minimality_obstruction_solver(k=5)] == [(1, -1, -1, 3)]
        assert [tuple(s) for s in minimality_obstruction_solver(k=2)] == [(2, -1, -2, 6)]
        assert minimality_obstruction_solver(k=4) == ()

    def test_constraint_holds_on_every_solution(self):
        for sol in minimality_obstruction_solver():
            assert sol.a * (sol.orbit_size + 2 * sol.b) == sol.orbit_size
            assert sol.a * sol.k_squared == 2 * sol.b - sol.orbit_size


class TestSecondFibration:
    def test_frozen_answers(self):
        assert second_fibration_solver(8) == "p1xp1"
        assert second_fibration_solver(4) == (1, -1)
        assert second_fibration_solver(2) == (2, -1)
        assert second_fibration_solver(1) == (4, -1)
        for k_squared in (3, 5, 6, 7):
            assert second_fibration_solver(k_squared) is None

    def test_non_positive_degrees(self):
        assert second_fibration_solver(0) is None
        assert second_fibration_solver(-4) is None


class TestHalphen:
    def test_boundary_profile_report(self):
        report = halphen_check(HALPHEN_TRIPLET)
        assert report is not None
        assert report.k_squared == 0
        assert report.genus == 1
        lat = BlowupLattice(9)
        assert report.fixed_curve == -lat.canonical_class
        assert "fibration" in report.note

    def test_other_profiles_return_none(self):
        assert halphen_check(triplet_from_profile((2, 2, 3))) is None
        assert halphen_check(triplet_from_profile((1, 1, 2))) is None

    def test_standard_triplet_with_the_boundary_profile(self):
        t = validate_triplet(
            tuple(p1(i) for i in (0, 1, 2, 3)),
            tuple(p1(i) for i in (4, 5, 6, 7)),
            tuple(p1(i) for i in range(8)),
        )
        assert halphen_check(t) is not None
