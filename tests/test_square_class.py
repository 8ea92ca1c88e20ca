import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import (
    Mobius,
    P1Point,
    RamificationTriplet,
    delta_canonical_form,
    mobius_from_triples,
    realizable_profiles,
    stabilizer,
    triplet_canonical_form,
    triplet_from_profile,
)
from cremona import jsonio, square_class
from cremona.errors import (
    CoverageViolation,
    DuplicatePoint,
    InvalidDescriptor,
    InvariantViolation,
    OddCardinality,
    TooFewPoints,
    TooManyPoints,
    TooSmall,
)

import oracles
from reference_kernel import reference_least_pinnings


def pts(*values) -> tuple[P1Point, ...]:
    return tuple(
        P1Point.infinity() if v is None else P1Point.from_value(Fraction(v))
        for v in values
    )


class TestValidateTriplet:
    """The checked constructor ``RamificationTriplet(sets)`` and the triplets derived
    from one."""

    def test_each_branch_set_is_sorted_and_checked_once(self, monkeypatch):
        checked, point_sorts = [], []
        real = square_class._distinct

        def distinct(points, what):
            checked.append(what)
            return real(points, what)

        def counted_sorted(items, key=None, **kwargs):
            out = sorted(items, key=key, **kwargs)
            keys = out if key is None else [key(x) for x in out]
            if any(isinstance(x, P1Point) for x in keys):
                point_sorts.append(keys)
            return out

        monkeypatch.setattr(square_class, "_distinct", distinct)
        monkeypatch.setattr(square_class, "sorted", counted_sorted, raising=False)
        t = jsonio.parse_triplet([[0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]], "$.triplet")
        assert checked == ["branch set 1", "branch set 2", "branch set 3"]
        # each set is sorted as indices; only the support is sorted as points
        assert point_sorts == [list(t.support)]
        # a Moebius image is not checked again; only its support is sorted
        image = t.transformed(Mobius.from_coeffs(0, 1, 1, 0))
        assert checked[3:] == []
        assert point_sorts[1:] == [list(image.support)]

    def test_profile_and_support(self):
        t = RamificationTriplet((pts(0, 1), pts(0, 2), pts(1, 2)))
        assert t.profile == (1, 1, 1)
        assert t.support == pts(0, 1, 2)
        assert len(t.support) == sum(t.profile)

    def test_third_set_is_symmetric_difference(self):
        t = RamificationTriplet((pts(0, 1), pts(2, 3), pts(0, 1, 2, 3)))
        assert set(t.sets[2]) == set(t.sets[0]) ^ set(t.sets[1])
        assert t.profile == (1, 1, 2)

    def test_membership_lists_exactly_two_sets(self):
        t = RamificationTriplet((pts(0, 1), pts(0, 2), pts(1, 2)))
        for p in t.support:
            assert sum(p in s for s in t.sets) == 2

    def test_sets_are_sorted_among_themselves(self):
        t1 = RamificationTriplet((pts(1, 2), pts(0, 1), pts(0, 2)))
        t2 = RamificationTriplet((pts(0, 1), pts(0, 2), pts(1, 2)))
        assert t1 == t2

    def test_too_small(self):
        with pytest.raises(TooSmall):
            RamificationTriplet(((), pts(0, 1), pts(0, 1)))

    def test_odd_cardinality(self):
        with pytest.raises(OddCardinality):
            RamificationTriplet((pts(0, 1, 2), pts(0, 1), pts(2, 3)))

    def test_coverage_violation(self):
        with pytest.raises(CoverageViolation):
            RamificationTriplet((pts(0, 1), pts(2, 3), pts(4, 5)))

    @pytest.mark.parametrize("doc, error", [
        ([[0], [0, 1], [1]], TooSmall),
        ([[0, 1, 2], [0, 1], [2, 3]], OddCardinality),
        ([[0, 1], [0, 2, 2, 3], [1, 3]], DuplicatePoint),
        ([[0, 1], [0, 2], [1, 3]], CoverageViolation),
        ([[0, 1], [0, 1], [0, 1]], CoverageViolation),
        ([[0, 1], [0, 1]], InvalidDescriptor),
        ([[0, 1], [0, 2], [1, 2], [0, 1]], InvalidDescriptor),
    ], ids=["one-point-set", "odd-set", "repeated-point", "covered-once",
            "covered-three-times", "two-sets", "four-sets"])
    def test_non_triplets_are_refused_as_by_the_reader(self, doc, error):
        # the constructor refuses what the JSON reader refuses, with the same
        # class and message; the reader's count message also names its path
        with pytest.raises(error) as read:
            jsonio.parse_triplet(doc, "$.triplet")
        with pytest.raises(error) as built:
            RamificationTriplet([pts(*s) for s in doc])
        assert type(built.value) is type(read.value) is error
        assert str(read.value).removeprefix("at $.triplet: ") == str(built.value)

    def test_set_count_is_refused_before_a_point_is_read(self):
        with pytest.raises(InvalidDescriptor, match=r"^expected 3 entries, got 2$"):
            RamificationTriplet([[object()], [object()]])

    @pytest.mark.parametrize("profile", realizable_profiles(8))
    def test_moebius_image_is_the_checked_triplet_of_the_moved_sets(self, profile):
        t = triplet_from_profile(profile)
        # t -> 1/t and t -> 1/(t - 1) send the support points 0 and 1 to infinity
        for m in (Mobius.from_coeffs(2, 1, 0, 1), Mobius.from_coeffs(0, 1, 1, 0),
                  Mobius.from_coeffs(0, 1, 1, -1), Mobius.from_coeffs(1, 3, 2, -5)):
            image = t.transformed(m)
            checked = RamificationTriplet([[m.apply(p) for p in s] for s in t.sets])
            assert (image.sets, image.support, image.indices) == \
                (checked.sets, checked.support, checked.indices)
            assert image == checked
        assert P1Point.infinity() in t.transformed(Mobius.from_coeffs(0, 1, 1, 0)).support

    @pytest.mark.parametrize("profile", realizable_profiles(16))
    def test_standard_triplet_is_the_checked_triplet(self, profile):
        a1, a2, a3 = profile
        support = pts(*range(a1 + a2 + a3))
        m12, m13 = a1 + a2 - a3, a1 + a3 - a2
        b12, b13, b23 = support[:m12], support[m12:m12 + m13], support[m12 + m13:]
        t = triplet_from_profile(profile)
        checked = RamificationTriplet((b12 + b13, b12 + b23, b13 + b23))
        assert (t.sets, t.support, t.indices) == (checked.sets, checked.support, checked.indices)
        assert t.profile == profile

    def test_copy_and_pickle_round_trip(self):
        t = RamificationTriplet((pts(0, None), pts(1, -1), pts(0, 1, -1, None)))
        for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(again) is RamificationTriplet
            assert (again.sets, again.support, again.indices) == (t.sets, t.support, t.indices)
            assert again == t and hash(again) == hash(t)


class TestProfiles:
    def test_realizable_profiles_k_le_6(self):
        assert realizable_profiles(6) == (
            (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2),
        )

    def test_triangle_bound_excludes_spread_profiles(self):
        # (1, 1, 3) fails a3 <= a1 + a2 and must not appear
        assert (1, 1, 3) not in realizable_profiles(12)
        assert all(a3 <= a1 + a2 for a1, a2, a3 in realizable_profiles(12))

    def test_standard_triplet_round_trips_the_profile(self):
        for profile in realizable_profiles(10):
            t = triplet_from_profile(profile)
            assert t.profile == profile
            assert len(t.support) == sum(profile)

    def test_unrealizable_profile_rejected(self):
        with pytest.raises(CoverageViolation):
            triplet_from_profile((1, 1, 3))


class TestStabilizer:
    def test_three_point_stabilizer_order(self):
        maps = stabilizer(pts(0, 1, None))
        assert len(maps) == 6
        assert len(maps) == oracles.stabilizer_order_oracle((0, 1, None))

    def test_harmonic_four_points(self):
        maps = stabilizer(pts(0, None, 1, -1))
        assert len(maps) == 8
        assert len(maps) == oracles.stabilizer_order_oracle((0, None, 1, -1))

    def test_generic_four_points(self):
        maps = stabilizer(pts(0, 1, 2, 3))
        assert len(maps) == 4
        assert len(maps) == oracles.stabilizer_order_oracle((0, 1, 2, 3))

    def test_every_map_permutes_the_set(self):
        support = pts(0, None, 1, -1)
        for m in stabilizer(support):
            assert {m.apply(p) for p in support} == set(support)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            stabilizer(pts(0, 1))


class TestCanonicalForms:
    def test_canonical_support_contains_the_pinned_triple(self):
        t = RamificationTriplet((pts(5, 7), pts(5, 11), pts(7, 11)))
        canon = triplet_canonical_form(t)
        assert set(pts(0, 1, None)) <= set(canon.support)

    def test_canonical_form_is_idempotent(self):
        t = triplet_from_profile((1, 2, 2))
        canon = triplet_canonical_form(t)
        assert triplet_canonical_form(canon) == canon

    def test_invariance_under_a_mobius_map(self):
        t = RamificationTriplet((pts(0, 1), pts(2, 3), pts(0, 1, 2, 3)))
        m = Mobius.from_coeffs(2, 1, 1, 3)
        assert triplet_canonical_form(t.transformed(m)) == triplet_canonical_form(t)

    def test_different_cross_ratios_do_not_collide(self):
        generic = RamificationTriplet((pts(0, 1), pts(2, 3), pts(0, 1, 2, 3)))
        harmonic = RamificationTriplet((pts(0, None), pts(1, -1), pts(0, 1, -1, None)))
        assert triplet_canonical_form(generic) != triplet_canonical_form(harmonic)

    def test_delta_canonical_form_pins_and_is_invariant(self):
        delta = pts(0, 1, 2, 3)
        canon = delta_canonical_form(delta)
        assert set(pts(0, 1, None)) <= set(canon)
        m = Mobius.from_coeffs(0, 1, 1, 0)  # t -> 1/t
        moved = tuple(m.apply(p) for p in delta)
        assert delta_canonical_form(moved) == canon

    def test_delta_canonical_form_too_few(self):
        with pytest.raises(TooFewPoints):
            delta_canonical_form(pts(0, 1))


class TestTransformed:
    @given(st.permutations([0, 1, 2]))
    def test_relabelling_support_preserves_the_triplet_shape(self, perm):
        t = RamificationTriplet((pts(0, 1), pts(0, 2), pts(1, 2)))
        src = pts(0, 1, 2)
        from cremona import mobius_from_triples

        m = mobius_from_triples(src, tuple(src[i] for i in perm))
        assert t.transformed(m).profile == t.profile
        assert set(t.transformed(m).support) == set(src)


# The enumeration the integer kernel replaced: one Moebius map, one moved
# triplet or point tuple and one Fraction key per candidate.  Kept here as
# the reference the kernel must agree with, with its own order of points.

_PINNED = (P1Point(0, 1), P1Point(1, 1), P1Point(1, 0))


def _point_key(p):
    # finite points in increasing value, then infinity last
    return (1,) if p.b == 0 else (0, Fraction(p.a, p.b))


def _triplet_key(t):
    return tuple((len(s),) + tuple(_point_key(p) for p in s) for s in t.sets)


def reference_triplet_canonical_form(t):
    best = None
    for triple in itertools.permutations(t.support, 3):
        cand = t.transformed(mobius_from_triples(triple, _PINNED))
        if best is None or _triplet_key(cand) < _triplet_key(best):
            best = cand
    return best


def reference_delta_canonical_form(points):
    support = tuple(sorted(points, key=_point_key))
    best = None
    for triple in itertools.permutations(support, 3):
        m = mobius_from_triples(triple, _PINNED)
        cand = tuple(sorted((m.apply(p) for p in support), key=_point_key))
        key = tuple(_point_key(p) for p in cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def reference_stabilizer(points):
    support = tuple(sorted(points, key=_point_key))
    base = support[:3]
    kept = []
    for img in itertools.permutations(support, 3):
        m = mobius_from_triples(base, img)
        if {m.apply(p) for p in support} == set(support):
            kept.append(m)
    return tuple(sorted(kept, key=Mobius.sort_key))


def values(span=8):
    finite = st.builds(Fraction, st.integers(-span, span), st.integers(1, 4))
    return st.one_of(st.none(), finite)


def value_sets(min_size, max_size, span=8):
    return st.sets(values(span), min_size=min_size, max_size=max_size)


@st.composite
def triplets(draw, profiles=realizable_profiles(7), span=8):
    a1, a2, a3 = draw(st.sampled_from(profiles))
    k = a1 + a2 + a3
    support = pts(*draw(st.lists(values(span), min_size=k, max_size=k, unique=True)))
    m12, m13 = a1 + a2 - a3, a1 + a3 - a2
    b12, b13, b23 = support[:m12], support[m12:m12 + m13], support[m12 + m13:]
    return RamificationTriplet((b12 + b13, b12 + b23, b13 + b23))


SYMMETRIC_SETS = [
    (0, None, 1, -1),
    (0, None, 1, -1, 2, -2),
    (0, 1, None),
    (1, 2, 3),
    (-1, Fraction(1, 2), 2),
]


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(triplets())
    def test_triplet_canonical_form(self, t):
        assert triplet_canonical_form(t) == reference_triplet_canonical_form(t)

    @settings(max_examples=60, deadline=None)
    @given(triplets())
    def test_triplet_canonical_form_is_a_valid_sorted_triplet(self, t):
        # the kernel's least candidate is returned as it stands: validating
        # and sorting its sets again changes nothing
        canon = triplet_canonical_form(t)
        assert canon == RamificationTriplet(canon.sets)
        assert canon.support == RamificationTriplet(canon.sets).support

    @settings(max_examples=60, deadline=None)
    @given(value_sets(3, 8))
    def test_delta_canonical_form_and_stabilizer(self, vals):
        support = pts(*vals)
        assert (delta_canonical_form(support), stabilizer(support)) == \
            (reference_delta_canonical_form(support), reference_stabilizer(support))

    @settings(max_examples=10, deadline=None)
    @given(value_sets(3, 3))
    def test_three_point_sets(self, vals):
        stab = stabilizer(pts(*vals))
        assert stab == reference_stabilizer(pts(*vals))
        assert len(stab) == 6 == oracles.stabilizer_order_oracle(list(vals))

    @pytest.mark.parametrize("vals", SYMMETRIC_SETS)
    def test_sets_with_symmetries(self, vals):
        support = pts(*vals)
        stab = stabilizer(support)
        assert stab == reference_stabilizer(support)
        assert delta_canonical_form(support) == reference_delta_canonical_form(support)
        as_values = [None if v is None else Fraction(v) for v in vals]
        assert len(stab) == oracles.stabilizer_order_oracle(as_values)
        assert len(stab) > 1


def assert_pass_matches_reference(support, sets):
    # the least form, and every tie in the order of the cubic scan
    assert square_class._least_pinnings(support, sets) == reference_least_pinnings(support, sets)


def assert_delta_pass_matches_reference(vals):
    support = tuple(sorted(pts(*vals)))
    assert_pass_matches_reference(support, (tuple(range(len(support))),))


def assert_triplet_pass_matches_reference(t):
    index = {p: i for i, p in enumerate(t.support)}
    assert_pass_matches_reference(t.support, tuple(tuple(index[p] for p in s) for s in t.sets))


class TestPinningPassMatchesCubicScan:
    """The first pass reads two candidates per pinned pair off the cyclic
    order of the support; the scan of every pinned triple is the reference."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 16).flatmap(lambda k: value_sets(k, k, span=40)))
    def test_point_sets(self, vals):
        assert_delta_pass_matches_reference(vals)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(-4, 4).map(lambda v: None if v == 4 else v), min_size=3, max_size=9))
    def test_point_sets_of_close_integers(self, vals):
        assert_delta_pass_matches_reference(vals)

    @pytest.mark.parametrize("profile", realizable_profiles(16))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_triplets_of_every_profile(self, profile, data):
        assert_triplet_pass_matches_reference(data.draw(triplets((profile,), span=40)))

    @settings(max_examples=20, deadline=None)
    @given(value_sets(3, 3))
    def test_three_point_sets(self, vals):
        # every pair of points is adjacent, so one end of each pair is zero
        assert_delta_pass_matches_reference(vals)

    @pytest.mark.parametrize("vals", SYMMETRIC_SETS)
    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 1), (1, -1, 0, 1), (-1, 0, 0, 1), (0, 1, 1, 0),
                                        (2, 1, 1, 3)])
    def test_sets_with_symmetries(self, vals, coeffs):
        # a symmetry can tie both candidates of one pinned pair, so the
        # moved copies also check the order in which ties are found
        m = Mobius.from_coeffs(*coeffs)
        support = tuple(sorted(m.apply(p) for p in pts(*vals)))
        assert_pass_matches_reference(support, (tuple(range(len(support))),))

    @pytest.mark.parametrize("profile", [(1, 2, 2), (1, 3, 3), (1, 4, 4), (1, 5, 5)])
    def test_two_point_front(self, profile):
        # the smallest set has two points, so for the pair pinning both to 0
        # and infinity every q ties at 0
        assert_triplet_pass_matches_reference(triplet_from_profile(profile))


class TestWorkCount:
    """One pass builds a point per support point of the answer, shared
    between its sets, and none for a survivor that loses."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []

        def point(a, b):
            made.append(P1Point(a, b))
            return made[-1]

        monkeypatch.setattr(square_class, "P1Point", point)
        return made

    @pytest.mark.parametrize("support, sets, ties", [
        (tuple(sorted(pts(0, None, 1, -1))), ((0, 1, 2, 3),), 8),
        (tuple(sorted(pts(-31, -17, -9, -4, -1, 2, 5, 11, 19, 23, 37, None))),
         (tuple(range(12)),), 1),
        (tuple(sorted(pts(*range(12)))), ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 8, 9, 10, 11),
                                          (4, 5, 6, 7, 8, 9, 10, 11)), 2),
    ], ids=["symmetric-4", "random-12", "triplet-444"])
    def test_points_built(self, built, support, sets, ties):
        canon, found = square_class._least_pinnings(support, sets)
        assert (canon, found) == reference_least_pinnings(support, sets)
        assert len(found) == ties
        assert len(built) == len(support)
        assert {id(p) for s in canon for p in s} == {id(p) for p in built}


class TestKernelLimits:
    def test_cap_is_checked_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(square_class, "MAX_CANONICAL_POINTS", 5)
        six = pts(*range(6))
        with pytest.raises(TooManyPoints):
            delta_canonical_form(six)
        with pytest.raises(TooManyPoints):
            stabilizer(six)
        with pytest.raises(TooManyPoints):
            triplet_canonical_form(RamificationTriplet((six[:2], six[2:], six)))
        assert len(stabilizer(six[:5])) == len(reference_stabilizer(six[:5]))

    def test_cap_admits_every_benchmark_size(self):
        assert square_class.MAX_CANONICAL_POINTS >= 32

    def test_a_tie_that_moves_the_set_is_refused(self, monkeypatch):
        monkeypatch.setattr(square_class, "mobius_from_triples",
                            lambda src, dst: Mobius.from_coeffs(1, 1, 0, 1))
        with pytest.raises(InvariantViolation,
                           match=r"^Mobius\[1,1;0,1\] ties with the least pinning but moves the set$"):
            stabilizer(pts(0, 1, None))


@st.composite
def triplet_documents(draw):
    """A realizable triplet with k <= 14 on random rational points, as the
    JSON pairs of its sets, shuffled, with some pairs unreduced; and the
    same document with every pair reduced."""
    a1, a2, a3 = draw(st.sampled_from(realizable_profiles(14)))
    k = a1 + a2 + a3
    support = pts(*draw(st.lists(values(40), min_size=k, max_size=k, unique=True)))
    m12, m13 = a1 + a2 - a3, a1 + a3 - a2
    b12, b13, b23 = support[:m12], support[m12:m12 + m13], support[m12 + m13:]
    given_doc, reduced = [], []
    for s in draw(st.permutations([b12 + b13, b12 + b23, b13 + b23])):
        s = draw(st.permutations(s))
        scales = draw(st.lists(st.sampled_from((1, 1, 2, -1, -3)), min_size=len(s), max_size=len(s)))
        given_doc.append([[c * p.a, c * p.b] for p, c in zip(s, scales)])
        reduced.append([[p.a, p.b] for p in s])
    return given_doc, reduced


class TestIndexSets:
    """A triplet carries each set as increasing indices into its sorted
    support, from the JSON reader to the canonical form."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(triplet_documents())
    def test_indices_read_the_sets_off_the_support(self, docs):
        given_doc, reduced = docs
        t = jsonio.parse_triplet(given_doc, "$.triplet")
        assert list(t.support) == sorted(t.support)
        for i, s in enumerate(t.sets):
            assert t.indices[i] == tuple(t.support.index(p) for p in s)
        r = jsonio.parse_triplet(reduced, "$.triplet")
        assert (t.sets, t.support, t.indices) == (r.sets, r.support, r.indices)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(triplet_documents())
    def test_canonical_form_is_taken_in_kernel_order(self, docs):
        canon = triplet_canonical_form(jsonio.parse_triplet(docs[0], "$.triplet"))
        again = RamificationTriplet(canon.sets)
        assert (canon.sets, canon.support, canon.indices) == (again.sets, again.support, again.indices)

    @pytest.mark.parametrize("doc, error, message", [
        ([[[0, 1], [0, 1], [1, 1], [2, 1]], [[0, 1], [3, 1]], [[1, 1], [2, 1]]],
         DuplicatePoint, "repeated point in branch set 1"),
        ([[[0, 1], [1, 1]], [[0, 1], [2, 4], [1, 2], [3, 1]], [[1, 1], [3, 1]]],
         DuplicatePoint, "repeated point in branch set 2"),
        ([[[0, 1], [1, 1]], [[0, 1], [0, 0]], [[1, 1], [0, 1]]],
         InvalidDescriptor, "at $.triplet[1][1]: [0, 0] is not a point of the line"),
        ([[[0, 1], [1, 1]], [[0, 1], [True, 1]], [[1, 1], [0, 1]]],
         InvalidDescriptor, "at $.triplet[1][1][0]: expected an integer, got True"),
        ([[[0, 1], [1, 1]], [[0, 1], [2, 1]], [[1, 1], "x"]],
         InvalidDescriptor, "at $.triplet[2][1]: cannot read 'x' as an exact rational"),
        ([[[0, 1], [1, 1]], [[0, 1], [2, 1, 3]], [[1, 1], [2, 1]]],
         InvalidDescriptor, "at $.triplet[1][1]: expected 2 entries, got 3"),
    ], ids=["repeated-pair", "repeated-unreduced-pair", "zero-pair", "bool-coordinate",
            "string-point", "three-entry-point"])
    def test_errors_keep_class_message_and_path(self, doc, error, message):
        with pytest.raises(error) as info:
            jsonio.parse_triplet(doc, "$.triplet")
        assert type(info.value) is error
        assert str(info.value) == message
