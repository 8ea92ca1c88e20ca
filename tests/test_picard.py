import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import (
    BlowupLattice,
    DivisorClass,
    FiberedMarking,
    LatticeAction,
    P1Point,
    adjunction_genus,
    enumerate_minus_one_classes,
    intersect,
    invariant_sublattice,
    is_pair_minimal,
    reflection_matrix,
)
from cremona import intlinalg as la
from cremona.corpus import cubic_coxeter_action, cubic_coxeter_matrix
from cremona.errors import (
    CremonaError,
    DimensionMismatch,
    DuplicatePoint,
    MovesCanonicalClass,
    NotClosedUnderAction,
    NotInvolution,
    NotIsometry,
    UnsupportedRank,
)
from cremona.bundles import involution_matrix
from cremona.picard import (
    is_conic_bundle,
    is_g_symmetric,
    orbits,
    validate_action,
    validate_involution,
)

import oracles
from reference_kernel import (
    reference_group_order,
    reference_invariant_sublattice,
    reference_involution_matrix,
    reference_mat_mul,
    reference_reflection_matrix,
    reference_validate_action,
)


def swap_matrix(lattice: BlowupLattice, i: int, j: int) -> tuple:
    n = lattice.rank
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return tuple(
        tuple(1 if col == perm[row] else 0 for col in range(n)) for row in range(n)
    )


class TestDivisorClass:
    def test_arithmetic(self):
        d = DivisorClass((1, -2, 0))
        e = DivisorClass((0, 1, 1))
        assert (d + e).coeffs == (1, -1, 1)
        assert (d - e).coeffs == (1, -3, -1)
        assert (-d).coeffs == (-1, 2, 0)
        assert (3 * e).coeffs == (0, 3, 3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DivisorClass((1, 0)) + DivisorClass((1, 0, 0))


class TestBlowupLattice:
    def test_basic_classes(self):
        lat = BlowupLattice(3)
        assert lat.rank == 4
        assert lat.canonical_class.coeffs == (-3, 1, 1, 1)
        assert lat.line_class().coeffs == (1, 0, 0, 0)
        assert lat.exceptional_class(2).coeffs == (0, 0, 1, 0)

    def test_rank_limits(self):
        BlowupLattice(13)
        with pytest.raises(UnsupportedRank):
            BlowupLattice(14)
        with pytest.raises(UnsupportedRank):
            BlowupLattice(-1)

    def test_exceptional_index_range(self):
        lat = BlowupLattice(2)
        with pytest.raises(DimensionMismatch):
            lat.exceptional_class(0)
        with pytest.raises(DimensionMismatch):
            lat.exceptional_class(3)


class TestIntersection:
    def test_diagonal_form(self):
        lat = BlowupLattice(2)
        l = lat.line_class()
        e1, e2 = lat.exceptional_class(1), lat.exceptional_class(2)
        assert intersect(lat, l, l) == 1
        assert intersect(lat, e1, e1) == -1
        assert intersect(lat, l, e1) == 0
        assert intersect(lat, e1, e2) == 0

    def test_canonical_square(self):
        for r in range(0, 9):
            lat = BlowupLattice(r)
            k = lat.canonical_class
            assert intersect(lat, k, k) == 9 - r

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            intersect(BlowupLattice(2), DivisorClass((1, 0)), DivisorClass((1, 0, 0)))


class TestAdjunctionGenus:
    @pytest.mark.parametrize(
        "coeffs, genus",
        [
            ((1, 0, 0), 0),        # a line
            ((2, 0, 0), 0),        # a conic
            ((3, 0, 0), 1),        # a plane cubic
            ((4, 0, 0), 3),        # a plane quartic
            ((0, 1, 0), 0),        # an exceptional curve
            ((3, -1, -1), 1),      # -K itself
        ],
    )
    def test_plane_curves(self, coeffs, genus):
        lat = BlowupLattice(len(coeffs) - 1)
        assert adjunction_genus(lat, DivisorClass(coeffs)) == genus

    def test_anticanonical_genus_is_one_for_all_r(self):
        for r in range(0, 9):
            lat = BlowupLattice(r)
            assert adjunction_genus(lat, -lat.canonical_class) == 1

    def test_matches_independent_oracle(self):
        lat = BlowupLattice(3)
        for coeffs in itertools.product(range(-2, 3), repeat=4):
            d = DivisorClass(coeffs)
            assert adjunction_genus(lat, d) == oracles.genus_oracle(coeffs)

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=13).flatmap(
        lambda r: st.lists(st.integers(-60, 60), min_size=r + 1, max_size=r + 1)))
    def test_d_squared_plus_d_k_is_even(self, coeffs):
        # D^2 + D.K = d (d - 3) - sum c_i (c_i + 1) is even, so the genus
        # is an integer with no parity check
        lat = BlowupLattice(len(coeffs) - 1)
        d = DivisorClass(tuple(coeffs))
        assert (intersect(lat, d, d) + intersect(lat, d, lat.canonical_class)) % 2 == 0
        assert adjunction_genus(lat, d) == oracles.genus_oracle(tuple(coeffs))


class TestMinusOneClasses:
    FROZEN_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27}

    def test_counts(self):
        for r, count in self.FROZEN_COUNTS.items():
            assert len(enumerate_minus_one_classes(BlowupLattice(r))) == count

    def test_exact_sets_match_oracle_up_to_r4(self):
        for r in range(1, 5):
            got = {d.coeffs for d in enumerate_minus_one_classes(BlowupLattice(r))}
            assert got == set(oracles.minus_one_vectors_oracle(r))

    def test_numerical_conditions_hold(self):
        lat = BlowupLattice(6)
        k = lat.canonical_class
        for d in enumerate_minus_one_classes(lat):
            assert intersect(lat, d, d) == -1
            assert intersect(lat, d, k) == -1

    def test_the_l_coefficient_reaches_six_at_r8(self):
        # the search scans L-coefficients up to 6; at r = 8 the classes
        # 6L - 2(E_1 + ... + E_8) - E_i reach that bound
        classes = enumerate_minus_one_classes(BlowupLattice(8))
        assert max(d.coeffs[0] for d in classes) == 6
        assert sum(d.coeffs[0] == 6 for d in classes) == 8

    def test_output_is_sorted_and_duplicate_free(self):
        classes = enumerate_minus_one_classes(BlowupLattice(5))
        assert list(classes) == sorted(set(classes))

    def test_rank_window(self):
        with pytest.raises(UnsupportedRank):
            enumerate_minus_one_classes(BlowupLattice(0))
        with pytest.raises(UnsupportedRank):
            enumerate_minus_one_classes(BlowupLattice(9))


class TestValidateAction:
    def test_identity_passes(self):
        lat = BlowupLattice(2)
        validate_action(lat, la.identity(3))

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            validate_action(BlowupLattice(2), la.identity(2))

    def test_non_isometry_rejected(self):
        # swapping L with E_1 flips the sign of the form
        with pytest.raises(NotIsometry):
            validate_action(BlowupLattice(1), ((0, 1), (1, 0)))

    def test_moving_k_rejected(self):
        with pytest.raises(MovesCanonicalClass):
            validate_action(BlowupLattice(1), ((1, 0), (0, -1)))


class TestReflections:
    def test_root_swapping_two_exceptional_classes(self):
        lat = BlowupLattice(2)
        root = lat.exceptional_class(1) - lat.exceptional_class(2)
        assert reflection_matrix(lat, root) == swap_matrix(lat, 1, 2)

    def test_quadratic_root(self):
        lat = BlowupLattice(3)
        l = lat.line_class()
        es = [lat.exceptional_class(i) for i in (1, 2, 3)]
        m = reflection_matrix(lat, l - es[0] - es[1] - es[2])
        image_of_line = DivisorClass(la.mat_vec(m, l.coeffs))
        assert image_of_line == 2 * l - es[0] - es[1] - es[2]

    def test_reflections_are_involutions(self):
        lat = BlowupLattice(4)
        l = lat.line_class()
        es = [lat.exceptional_class(i) for i in range(1, 5)]
        roots = [es[0] - es[1], es[2] - es[3], l - es[0] - es[1] - es[2]]
        for root in roots:
            m = reflection_matrix(lat, root)
            assert la.mat_mul(m, m) == la.identity(lat.rank)

    def test_wrong_square_rejected(self):
        lat = BlowupLattice(2)
        with pytest.raises(NotIsometry):
            reflection_matrix(lat, lat.exceptional_class(1))

    def test_root_meeting_k_rejected(self):
        lat = BlowupLattice(2)
        root = lat.exceptional_class(1) + lat.exceptional_class(2)  # square -2, K. root != 0
        with pytest.raises(MovesCanonicalClass):
            reflection_matrix(lat, root)


class TestLatticeAction:
    def test_trivial_group(self):
        action = LatticeAction(BlowupLattice(2), ())
        assert reference_group_order(action) == 1

    def test_involution_group(self):
        lat = BlowupLattice(2)
        action = LatticeAction(lat, (swap_matrix(lat, 1, 2),))
        assert reference_group_order(action) == 2

    def test_coxeter_order(self):
        assert reference_group_order(cubic_coxeter_action()) == 12


class TestInvariantSublattice:
    def test_trivial_action_fixes_everything(self):
        lat = BlowupLattice(3)
        rank, basis = invariant_sublattice(LatticeAction(lat, ()))
        assert rank == lat.rank == len(basis)

    def test_swap_invariants(self):
        lat = BlowupLattice(2)
        action = LatticeAction(lat, (swap_matrix(lat, 1, 2),))
        rank, basis = invariant_sublattice(action)
        assert rank == 2
        expected = ((1, 0, 0), (0, 1, 1))  # L and E_1 + E_2
        assert la.spans_equal(tuple(d.coeffs for d in basis), expected)

    def test_coxeter_invariant_is_the_canonical_line(self):
        action = cubic_coxeter_action()
        rank, basis = invariant_sublattice(action)
        assert rank == 1
        k = action.lattice.canonical_class
        assert basis[0] in (k, -k)


class TestOrbits:
    def test_orbit_partition(self):
        lat = BlowupLattice(2)
        action = LatticeAction(lat, (swap_matrix(lat, 1, 2),))
        classes = enumerate_minus_one_classes(lat)
        parts = orbits(action, classes)
        as_sets = {frozenset(d.coeffs for d in orbit) for orbit in parts}
        assert as_sets == {
            frozenset({(0, 1, 0), (0, 0, 1)}),
            frozenset({(1, -1, -1)}),
        }

    def test_escaping_the_pool_is_an_error(self):
        lat = BlowupLattice(2)
        action = LatticeAction(lat, (swap_matrix(lat, 1, 2),))
        with pytest.raises(NotClosedUnderAction):
            orbits(action, [lat.exceptional_class(1)])


class TestPairMinimality:
    def test_trivial_group_is_never_minimal(self):
        lat = BlowupLattice(3)
        minimal, witness = is_pair_minimal(lat, LatticeAction(lat, ()))
        assert not minimal
        assert len(witness) == 1
        assert witness[0] in enumerate_minus_one_classes(lat)

    def test_single_quadratic_involution_is_not_minimal(self):
        lat = BlowupLattice(3)
        l = lat.line_class()
        es = [lat.exceptional_class(i) for i in (1, 2, 3)]
        action = LatticeAction(lat, (reflection_matrix(lat, l - es[0] - es[1] - es[2]),))
        minimal, witness = is_pair_minimal(lat, action)
        assert not minimal
        assert len(witness) == 2
        assert intersect(lat, witness[0], witness[1]) == 0

    def test_coxeter_cyclic_group_is_minimal(self):
        action = cubic_coxeter_action()
        minimal, witness = is_pair_minimal(action.lattice, action)
        assert minimal and witness is None


class TestFiberedMarking:
    def test_standard_marking(self):
        marking = FiberedMarking.standard(3)
        assert marking.k == 3
        assert marking.lattice.r == 4
        assert marking.base_points == (P1Point(0, 1), P1Point(1, 1), P1Point(2, 1))

    def test_distinguished_classes(self):
        marking = FiberedMarking.standard(2)
        lat = marking.lattice
        f = marking.fiber_class
        assert f.coeffs == (1, -1, 0, 0)
        assert intersect(lat, f, f) == 0
        assert intersect(lat, marking.section_class, f) == 1
        assert intersect(lat, f, lat.canonical_class) == -2
        assert marking.fiber_component(2).coeffs == (0, 0, 0, 1)

    def test_component_range(self):
        marking = FiberedMarking.standard(2)
        with pytest.raises(DimensionMismatch):
            marking.fiber_component(3)

    def test_constructor_guards(self):
        with pytest.raises(DuplicatePoint):
            FiberedMarking(BlowupLattice(3), (P1Point(0, 1), P1Point(0, 1)))
        with pytest.raises(DimensionMismatch):
            FiberedMarking(BlowupLattice(3), (P1Point(0, 1),))


def even_fiber_sets(k: int):
    """Even sets of 1-based fiber indices on a marking with k fibers."""
    if k == 0:
        return st.just(())
    return st.sets(st.integers(min_value=1, max_value=k)).map(
        lambda s: tuple(sorted(s))[len(s) % 2:])


class TestMoriFibration:
    def test_conic_bundle_case(self):
        from cremona import jonquieres_involution_matrix

        marking = FiberedMarking.standard(4)
        gen = jonquieres_involution_matrix(marking).generator
        action = LatticeAction(marking.lattice, (gen,))
        assert invariant_sublattice(action)[0] == 2
        assert is_conic_bundle(marking, action.generators)

    def test_rank_two_wrong_lattice(self):
        # swapping E_0 with the unique fiber component fixes L and E_0 + E_1,
        # which is not Z K + Z f
        marking = FiberedMarking(BlowupLattice(2), (P1Point(0, 1),))
        lat = marking.lattice
        action = LatticeAction(lat, (swap_matrix(lat, 1, 2),))
        assert invariant_sublattice(action)[0] == 2
        assert not is_conic_bundle(marking, action.generators)

    def test_rank_too_large(self):
        # the trivial group fixes the whole rank-3 lattice
        marking = FiberedMarking(BlowupLattice(2), (P1Point(0, 1),))
        assert not is_conic_bundle(marking, ())

    def test_zero_fibers_is_not_saturated(self):
        # rank 2 fixed by the trivial group, so the trace count alone would
        # say yes; but Z K + Z f has index 2 in Z^2
        assert not is_conic_bundle(FiberedMarking(BlowupLattice(1), ()), ())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=12).flatmap(lambda k: st.tuples(
        st.just(k), even_fiber_sets(k), even_fiber_sets(k))))
    def test_traces_agree_with_fixed_rank_oracle(self, drawn):
        # {1, s_J1, s_J2, s_J1^J2} is a group: one Klein four-group, one
        # involution (J1 = J2, or one set empty) or the trivial group
        k, j1, j2 = drawn
        marking = FiberedMarking.standard(k)
        n = marking.lattice.rank
        sigmas = [involution_matrix(marking, j) for j in (j1, j2, tuple(sorted(set(j1) ^ set(j2))))]
        assert reference_mat_mul(sigmas[0], sigmas[1]) == sigmas[2]
        elements = tuple({g for g in sigmas if g != la.identity(n)})
        kf = (marking.lattice.canonical_class.coeffs, marking.fiber_class.coeffs)
        fixed = all(tuple(sum(map(int.__mul__, row, v)) for row in g) == v
                    for g in elements for v in kf)
        minors = [kf[0][a] * kf[1][b] - kf[0][b] * kf[1][a]
                  for a, b in itertools.combinations(range(n), 2)]
        saturated = math.gcd(*minors) == 1
        rank = (oracles.invariant_rank_oracle([list(map(list, g)) for g in elements])
                if elements else n)
        assert is_conic_bundle(marking, elements) == (rank == 2 and fixed and saturated)


# the column Gram check against the dense M^T G M product it replaced

def simple_roots(lat: BlowupLattice) -> list[DivisorClass]:
    es = [lat.exceptional_class(i) for i in range(1, lat.r + 1)]
    roots = [a - b for a, b in zip(es, es[1:])]
    if lat.r >= 3:
        roots.append(lat.line_class() - es[0] - es[1] - es[2])
    return roots


def weyl_word(lat: BlowupLattice, word) -> tuple:
    roots = simple_roots(lat)
    m = la.identity(lat.rank)
    for letter in word:
        m = la.mat_mul(reflection_matrix(lat, roots[letter % len(roots)]), m)
    return m


def perturb(m: tuple, how: str, i: int, j: int, delta: int) -> tuple:
    n = len(m)
    i, j = i % n, j % n
    if how == "entry":
        return tuple(
            tuple(x + delta if (r, c) == (i, j) else x for c, x in enumerate(row))
            for r, row in enumerate(m))
    if how == "negate":   # an isometry sending K to -K
        return tuple(tuple(-x for x in row) for row in m)
    if how == "flip-e1":  # followed by the isometry E_1 -> -E_1, which moves K
        return tuple(tuple(-x for x in row) if r == 1 else row for r, row in enumerate(m))
    if how == "swap-l-e1":  # followed by L <-> E_1, which flips the form
        return (m[1], m[0]) + m[2:]
    if how == "transpose":
        return la.transpose(m)
    if how == "drop-row":
        return m[:-1]
    return m


def outcome(check, lat, m):
    try:
        return check(lat, m)
    except (DimensionMismatch, NotIsometry, MovesCanonicalClass) as exc:
        return type(exc)


PERTURBATIONS = ("none", "entry", "negate", "flip-e1", "swap-l-e1", "transpose", "drop-row")


@given(
    st.integers(min_value=2, max_value=9),
    st.lists(st.integers(min_value=0, max_value=20), max_size=8),
    st.sampled_from(PERTURBATIONS),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.sampled_from((-2, -1, 1, 2)),
)
@settings(max_examples=300, deadline=None)
def test_validate_action_matches_dense_reference(r, word, how, i, j, delta):
    lat = BlowupLattice(r)
    m = perturb(weyl_word(lat, word), how, i, j, delta)
    assert outcome(validate_action, lat, m) == outcome(reference_validate_action, lat, m)


@pytest.mark.parametrize("how, expected", [
    ("none", None),
    ("entry", NotIsometry),
    ("negate", MovesCanonicalClass),
    ("flip-e1", MovesCanonicalClass),
    ("swap-l-e1", NotIsometry),
    ("drop-row", DimensionMismatch),
])
def test_each_perturbation_reaches_its_error(how, expected):
    # the property above compares both checks on every one of these outcomes
    lat = BlowupLattice(6)
    m = perturb(weyl_word(lat, [0, 5, 2, 5, 1]), how, 3, 4, 1)
    for check in (validate_action, reference_validate_action):
        got = outcome(check, lat, m)
        assert got == (m if expected is None else expected)


@pytest.mark.parametrize("how, products", [
    ("none", 1), ("entry", 1), ("flip-e1", 1), ("swap-l-e1", 1), ("drop-row", 0)])
def test_validate_action_is_one_sparse_product(monkeypatch, how, products):
    # M^T G M = G is decided by the single product of M^T with G M
    lat = BlowupLattice(6)
    m = perturb(weyl_word(lat, [0, 5, 2, 5, 1]), how, 3, 4, 1)
    calls = []
    real = la.mat_mul

    def mat_mul(a, b):
        calls.append(a)
        return real(a, b)

    monkeypatch.setattr(la, "mat_mul", mat_mul)
    outcome(validate_action, lat, m)
    assert calls == [la.transpose(m)] * products


# the reflection written entrywise against the basis-imaging reference

@st.composite
def weyl_roots(draw):
    """A simple root, or its image under a Weyl word, on r = 2..9."""
    lat = BlowupLattice(draw(st.integers(min_value=2, max_value=9)))
    alpha = draw(st.sampled_from(simple_roots(lat)))
    word = draw(st.lists(st.integers(min_value=0, max_value=20), max_size=6))
    return lat, DivisorClass(la.mat_vec(weyl_word(lat, word), alpha.coeffs))


@given(weyl_roots())
@settings(max_examples=200, deadline=None)
def test_reflection_matches_basis_imaging_reference(candidate):
    lat, root = candidate
    assert reflection_matrix(lat, root) == reference_reflection_matrix(lat, root)


@given(weyl_roots())
@settings(max_examples=200, deadline=None)
def test_reflection_passes_the_isometry_reference(candidate):
    # the root checks prove I + r (G r)^T an isometry fixing K, so the
    # package checks no product; the dense M^T G M reference agrees
    lat, root = candidate
    m = reflection_matrix(lat, root)
    assert reference_validate_action(lat, m) == m


def reflection_outcome(reflect, lat, root):
    try:
        return reflect(lat, root)
    except CremonaError as exc:
        return type(exc), str(exc)


@given(st.integers(min_value=2, max_value=9).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r + 2))))
@settings(max_examples=200, deadline=None)
def test_reflection_refuses_what_the_reference_refuses(case):
    # small vectors: some roots, most of the wrong square, some moving K,
    # some of the wrong length
    r, coeffs = case
    lat, root = BlowupLattice(r), DivisorClass(coeffs)
    assert (reflection_outcome(reflection_matrix, lat, root)
            == reflection_outcome(reference_reflection_matrix, lat, root))


# the involution check (G M symmetric) against the dense M^T G M reference

def dense_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def involution_expected(lat, m):
    """The reference verdict, with NotInvolution for a square matrix with M^2 != I."""
    ref = outcome(reference_validate_action, lat, m)
    if ref is DimensionMismatch:
        return ref
    if reference_mat_mul(m, m) != dense_identity(lat.rank):
        return NotInvolution
    return ref


def involution_outcome(lat, m):
    try:
        return validate_involution(lat, m)
    except CremonaError as exc:
        return type(exc)


@st.composite
def involution_candidates(draw):
    """Fiberwise involutions, Weyl reflections and words, the cubic Coxeter element."""
    source = draw(st.sampled_from(("swap", "reflection", "word", "coxeter")))
    if source == "swap":
        k = draw(st.integers(min_value=0, max_value=8))
        swapped = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(k, 1)), max_size=k)))
        marking = FiberedMarking.standard(k)
        return marking.lattice, reference_involution_matrix(
            marking, tuple(swapped[:len(swapped) // 2 * 2]))
    if source == "coxeter":
        return BlowupLattice(6), cubic_coxeter_matrix()
    lat = BlowupLattice(draw(st.integers(min_value=2, max_value=9)))
    word = draw(st.lists(st.integers(min_value=0, max_value=20), max_size=6))
    if source == "word":
        return lat, weyl_word(lat, word)
    # the reflection in the root w(alpha) for a Weyl word w and a simple root alpha
    alpha = draw(st.sampled_from(simple_roots(lat)))
    root = DivisorClass(la.mat_vec(weyl_word(lat, word), alpha.coeffs))
    return lat, reflection_matrix(lat, root)


@given(involution_candidates(), st.sampled_from(PERTURBATIONS),
       st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20),
       st.sampled_from((-2, -1, 1, 2)))
@settings(max_examples=400, deadline=None)
def test_validate_involution_matches_reference(candidate, how, i, j, delta):
    # every even swap set unperturbed is also checked in test_bundles, through
    # involution_matrix against the DivisorClass reference
    lat, m = candidate
    m = perturb(m, how, i, j, delta)
    assert involution_outcome(lat, m) == involution_expected(lat, m)


@pytest.mark.parametrize("lat, m, expected", [
    (BlowupLattice(6), cubic_coxeter_matrix(), NotInvolution),   # an isometry of order 12
    (BlowupLattice(1), ((1, 0), (0, -1)), MovesCanonicalClass),  # E_1 -> -E_1
    (BlowupLattice(1), ((0, 1), (1, 0)), NotIsometry),           # L <-> E_1
    # E_1 -> E_1 + 2 E_2, E_2 -> -E_2: an involution fixing K, but (E_1 + 2 E_2)^2 = -5
    (BlowupLattice(2), ((1, 0, 0), (0, 1, 0), (0, 2, -1)), NotIsometry),
    (BlowupLattice(1), ((1, 0), (0, 1), (0, 0)), DimensionMismatch),
])
def test_validate_involution_errors(lat, m, expected):
    assert involution_outcome(lat, m) is expected


# the product check (G a b symmetric) against the square of the product

@st.composite
def involution_pairs(draw):
    """Two involutions on one lattice, each a fiberwise swap (these commute) or
    the reflection in a Weyl image of a simple root (two roots meeting in +-1
    give a product of order 3)."""
    k = draw(st.integers(min_value=1, max_value=8))
    marking = FiberedMarking.standard(k)
    lat = marking.lattice

    def involution():
        if draw(st.booleans()):
            swapped = sorted(draw(st.sets(st.integers(min_value=1, max_value=k))))
            return involution_matrix(marking, tuple(swapped[:len(swapped) // 2 * 2]))
        word = draw(st.lists(st.integers(min_value=0, max_value=20), max_size=4))
        alpha = draw(st.sampled_from(simple_roots(lat)))
        return reflection_matrix(lat, DivisorClass(la.mat_vec(weyl_word(lat, word), alpha.coeffs)))

    return lat, involution(), involution()


@given(involution_pairs())
@settings(max_examples=300, deadline=None)
def test_symmetric_product_is_the_square_check(pair):
    lat, a, b = pair
    p = la.mat_mul(validate_involution(lat, a), validate_involution(lat, b))
    assert is_g_symmetric(p) == (reference_mat_mul(p, p) == dense_identity(lat.rank))


def test_symmetric_product_of_reflections():
    lat = BlowupLattice(3)
    l, e1, e2, e3 = lat.line_class(), *(lat.exceptional_class(i) for i in (1, 2, 3))
    a = reflection_matrix(lat, e1 - e2)
    # E_1 - E_2 and E_2 - E_3 meet in 1: the product has order 3
    p = la.mat_mul(a, reflection_matrix(lat, e2 - e3))
    assert not is_g_symmetric(p)
    assert la.mat_mul(p, p) != la.identity(4) == la.mat_mul(p, la.mat_mul(p, p))
    # E_1 - E_2 and L - E_1 - E_2 - E_3 are orthogonal: the reflections commute
    q = la.mat_mul(a, reflection_matrix(lat, l - e1 - e2 - e3))
    assert is_g_symmetric(q) and la.mat_mul(q, q) == la.identity(4)


# the fixed lattice from distinct nonzero rows against every stacked row

@st.composite
def generator_sets(draw):
    """Generators on one lattice, with identities, repeats and many zero rows of M - I."""
    r = draw(st.integers(min_value=2, max_value=13))
    lat = BlowupLattice(r)
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("identity", "repeat", "word", "fiberwise")))
        if kind == "identity":
            gens.append(la.identity(lat.rank))
        elif kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "fiberwise":
            # a fiberwise involution fixes every fiber component it does not swap
            swapped = sorted(draw(st.sets(st.integers(min_value=1, max_value=r - 1))))
            marking = FiberedMarking.standard(r - 1)
            gens.append(involution_matrix(marking, tuple(swapped[:len(swapped) // 2 * 2])))
        else:
            gens.append(weyl_word(lat, draw(st.lists(st.integers(min_value=0, max_value=20),
                                                     max_size=4))))
    return LatticeAction(lat, tuple(gens))


@given(generator_sets())
@settings(max_examples=200, deadline=None)
def test_invariant_sublattice_matches_stacked_rows_reference(action):
    assert invariant_sublattice(action) == reference_invariant_sublattice(action)


def test_invariant_sublattice_of_identities_is_everything():
    lat = BlowupLattice(4)
    ident = la.identity(lat.rank)
    action = LatticeAction(lat, (ident, ident))
    assert invariant_sublattice(action) == reference_invariant_sublattice(action)
    assert invariant_sublattice(action)[0] == lat.rank
