import contextlib
import io
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona import (
    BlowupLattice,
    DelPezzoDescriptor,
    DivisorClass,
    ExceptionalDescriptor,
    HirzebruchDescriptor,
    LatticeAction,
    Z22Descriptor,
    classify,
    exceptional_from_delta,
    link_feasibility,
    reflection_matrix,
    triplet_from_profile,
    z22_from_triplet,
)
from cremona import intlinalg as la
from cremona import jsonio
from cremona.classifier import (
    ALL_ON_EXCEPTIONAL,
    CUBIC_CLEBSCH,
    CUBIC_EXTRA_FIXED_POINT,
    CUBIC_S4_LAMBDA,
    CUBIC_TRIPLE_COVER,
    OFF_EXCEPTIONAL,
    RULES,
)
from cremona.cli import main
from cremona.corpus import (
    _CUBIC_SIMPLE_ROOTS,
    cubic_coxeter_action,
    cubic_coxeter_matrix,
    four_lines_model,
    golden_maximal_descriptors,
    golden_reduction_descriptors,
    p1,
)
from cremona.errors import IntegerTooLong, InvalidDescriptor, NotAMoriFibration
from cremona.picard import invariant_sublattice


def non_minimal_cubic_action() -> LatticeAction:
    lat = BlowupLattice(6)
    root = lat.exceptional_class(1) - lat.exceptional_class(2)
    return LatticeAction(lat, (reflection_matrix(lat, root),))


def minimal_cubic(family: str, parameter: str | None = None) -> DelPezzoDescriptor:
    return DelPezzoDescriptor(
        degree=3,
        action=cubic_coxeter_action(),
        fixed_point_report=ALL_ON_EXCEPTIONAL,
        cubic_family=family,
        parameter=parameter,
    )


class TestHirzebruchBranch:
    def test_high_index_is_maximal(self):
        v = classify(HirzebruchDescriptor(2))
        assert v.outcome == "maximal" and v.family == 4
        assert v.invariant == {"n": 2}

    def test_index_one_reduces_to_the_plane(self):
        v = classify(HirzebruchDescriptor(1))
        assert v.outcome == "not_maximal"
        assert v.chain[-1].detail == "family 1"
        assert v.chain[0].k_squared == 9

    def test_index_zero_is_the_quadric(self):
        v = classify(HirzebruchDescriptor(0))
        assert v.outcome == "maximal" and v.family == 2

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.n: Hirzebruch index must be >= 0, got -1$"):
            classify(HirzebruchDescriptor(-1))


class TestExceptionalBranch:
    def test_two_or_more_pairs_is_maximal(self):
        model = exceptional_from_delta(tuple(p1(x) for x in (0, 1, 2, 3)))
        v = classify(ExceptionalDescriptor(model))
        assert v.outcome == "maximal" and v.family == 5
        assert jsonio.verdict_json(v)["invariant"] == {
            "delta": [[3, -1], [0, 1], [1, 1], [1, 0]]}

    def test_one_pair_reduces_to_degree_six(self):
        model = exceptional_from_delta(tuple(p1(x) for x in (0, 1)))
        v = classify(ExceptionalDescriptor(model))
        assert v.outcome == "not_maximal"
        assert v.chain[0].move == "extend-group"
        assert v.chain[0].k_squared == 6
        assert v.chain[-1].detail == "family 3"


class TestZ22Branch:
    def test_certified_profile_is_maximal(self):
        v = classify(Z22Descriptor(four_lines_model()))
        assert v.outcome == "maximal" and v.family == 11
        assert set(jsonio.verdict_json(v)["invariant"]) == {"triplet"}

    def test_uncertified_interior_profile_is_indeterminate(self):
        for profile in ((2, 2, 2), (2, 2, 3)):
            model = z22_from_triplet(triplet_from_profile(profile))
            v = classify(Z22Descriptor(model))
            assert v.outcome == "indeterminate"
            assert "certificate" in v.reason

    def test_non_del_pezzo_profile_is_maximal(self):
        model = z22_from_triplet(triplet_from_profile((1, 2, 3)))
        v = classify(Z22Descriptor(model))
        assert v.outcome == "maximal" and v.family == 11

    @pytest.mark.parametrize(
        "profile, tail",
        [((1, 1, 1), "family 6"), ((1, 1, 2), "family 7")],
    )
    def test_del_pezzo_profiles_extend_to_point_cases(self, profile, tail):
        model = z22_from_triplet(triplet_from_profile(profile))
        v = classify(Z22Descriptor(model))
        assert v.outcome == "not_maximal"
        assert v.chain[0].move == "extend-group"
        assert v.chain[-1].detail == tail

    def test_degree_three_extension_stops_short(self):
        model = z22_from_triplet(triplet_from_profile((1, 2, 2)))
        v = classify(Z22Descriptor(model))
        assert v.outcome == "not_maximal"
        assert v.chain[0].k_squared == 3
        assert v.chain[-1].move == "indeterminate"


class TestDelPezzoBranch:
    @pytest.mark.parametrize(
        "degree, family",
        [(9, 1), (6, 3), (5, 6)],
    )
    def test_point_cases(self, degree, family):
        v = classify(DelPezzoDescriptor(degree))
        assert v.outcome == "maximal" and v.family == family
        assert v.invariant == "point"

    def test_degree_eight_splits_on_the_quadric_flag(self):
        quadric = classify(DelPezzoDescriptor(8, p1xp1=True))
        assert quadric.outcome == "maximal" and quadric.family == 2
        blown = classify(DelPezzoDescriptor(8))
        assert blown.outcome == "not_maximal"
        assert blown.chain[-1].detail == "family 1"

    def test_degree_seven_contracts_to_the_quadric(self):
        v = classify(DelPezzoDescriptor(7))
        assert v.outcome == "not_maximal"
        assert v.chain[0].k_squared == 8
        assert v.chain[-1].detail == "family 2"

    def test_degree_four_keeps_the_isomorphism_tag(self):
        v = classify(DelPezzoDescriptor(4, iso_class_tag="special"))
        assert v.outcome == "maximal" and v.family == 7
        assert v.invariant == {"iso_class": "special"}

    def test_degree_one_is_the_terminal_family(self):
        v = classify(DelPezzoDescriptor(1))
        assert v.outcome == "maximal" and v.family == 10

    def test_degree_bounds(self):
        for degree in (0, 10, -3):
            with pytest.raises(InvalidDescriptor):
                classify(DelPezzoDescriptor(degree))


class TestCubicBranch:
    def test_three_maximal_subfamilies(self):
        va = classify(minimal_cubic(CUBIC_TRIPLE_COVER, parameter="0"))
        assert (va.family, va.subfamily) == (8, "8a")
        assert va.invariant == {"subfamily": "8a", "alpha": "0"}

        vb = classify(minimal_cubic(CUBIC_CLEBSCH))
        assert (vb.family, vb.subfamily) == (8, "8b")

        vc = classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter="-3/2"))
        assert (vc.family, vc.subfamily) == (8, "8c")
        assert vc.invariant == {"subfamily": "8c", "lambda_up_to_sign": "3/2"}

    def test_lambda_sign_fold_and_restrictions(self):
        plus = classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter="3/2"))
        minus = classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter="-3/2"))
        assert plus.invariant == minus.invariant
        for bad in ("0", "-1/2"):
            with pytest.raises(InvalidDescriptor):
                classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter=bad))

    @pytest.mark.parametrize("bad", ["0", "-1/2"])
    @pytest.mark.parametrize("report", [ALL_ON_EXCEPTIONAL, OFF_EXCEPTIONAL])
    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "not-minimal"])
    def test_lambda_restrictions_hold_on_every_branch(self, minimal, report, bad):
        action = cubic_coxeter_action() if minimal else non_minimal_cubic_action()
        with pytest.raises(InvalidDescriptor, match="S_4 cubic restrictions"):
            classify(DelPezzoDescriptor(
                3, action=action, fixed_point_report=report,
                cubic_family=CUBIC_S4_LAMBDA, parameter=bad))

    def test_non_rational_lambda_passes_through(self):
        v = classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter="sqrt(2)"))
        assert v.invariant["lambda_up_to_sign"] == "sqrt(2)"

    def test_missing_parameter_rejected(self):
        for family in (CUBIC_S4_LAMBDA, CUBIC_TRIPLE_COVER):
            with pytest.raises(InvalidDescriptor, match=r"^at \$\.parameter: .* needs its parameter$"):
                classify(minimal_cubic(family))

    @pytest.mark.parametrize("family", [CUBIC_S4_LAMBDA, CUBIC_TRIPLE_COVER])
    def test_zero_denominator_is_not_a_parameter(self, family):
        with pytest.raises(InvalidDescriptor,
                           match=r"^at \$\.parameter: parameter 1/0 has denominator zero$"):
            classify(minimal_cubic(family, parameter="1/0"))

    @pytest.mark.parametrize("raw", ["1/" + "0" * 5000, "0." + "0" * 4400, "7" * 4301,
                                     "1e1000000", "2.5E-4301", "1e" + "9" * 4400],
                             ids=["denominator", "decimal", "integer", "exponent",
                                  "negative-exponent", "exponent-literal"])
    @pytest.mark.parametrize("family", [CUBIC_S4_LAMBDA, CUBIC_TRIPLE_COVER])
    def test_rational_literal_past_the_digit_limit_is_rejected(self, family, raw):
        # int() refuses more than 4300 digits from text; such a literal is
        # still a rational, not a tag to keep verbatim
        with pytest.raises(IntegerTooLong, match="more digits than int"):
            classify(minimal_cubic(family, parameter=raw))

    @pytest.mark.parametrize("raw", ["1e4299", "-2.5e-4299", "1E+1_0", "9" * 4300 + ".0"])
    def test_value_at_the_digit_limit_is_a_rational(self, raw):
        v = classify(minimal_cubic(CUBIC_TRIPLE_COVER, parameter=raw))
        assert v.invariant["alpha"] == raw
        v = classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter=raw))
        assert not v.invariant["lambda_up_to_sign"].startswith("-")

    @pytest.mark.parametrize("raw", ["1e4300", "9" * 4300 + ".9"], ids=["exponent", "decimal"])
    @pytest.mark.parametrize("family", [CUBIC_S4_LAMBDA, CUBIC_TRIPLE_COVER])
    def test_value_past_the_digit_limit_is_rejected(self, family, raw):
        # each integer of the text reads, but the value has 4301 digits, so
        # lambda could not be written back as text
        with pytest.raises(IntegerTooLong, match="more digits than int"):
            classify(minimal_cubic(family, parameter=raw))

    @pytest.mark.parametrize("raw", ["x1e99999", "1 e99999", "1/2e99999", "1e 99999"])
    def test_text_ending_like_an_exponent_is_a_tag(self, raw):
        # no rational, so kept verbatim however large its digits read
        v = classify(minimal_cubic(CUBIC_S4_LAMBDA, parameter=raw))
        assert v.invariant["lambda_up_to_sign"] == raw

    @pytest.mark.parametrize("report", [ALL_ON_EXCEPTIONAL, OFF_EXCEPTIONAL])
    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "not-minimal"])
    def test_singular_triple_cover_rejected_on_every_branch(self, minimal, report):
        # W^3 + X^3 + Y^3 + Z^3 - 3 XYZ is singular at (0:1:1:1)
        action = cubic_coxeter_action() if minimal else non_minimal_cubic_action()
        with pytest.raises(InvalidDescriptor, match="singular"):
            classify(DelPezzoDescriptor(
                3, action=action, fixed_point_report=report,
                cubic_family=CUBIC_TRIPLE_COVER, parameter="-3"))

    def test_missing_action_or_report_rejected(self):
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.action: "):
            classify(DelPezzoDescriptor(3, fixed_point_report=ALL_ON_EXCEPTIONAL))
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.fixed_point_report: "):
            classify(DelPezzoDescriptor(3, action=cubic_coxeter_action()))

    def test_missing_family_tag_rejected_when_maximal_path_applies(self):
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.cubic_family: "):
            classify(DelPezzoDescriptor(
                3, action=cubic_coxeter_action(),
                fixed_point_report=ALL_ON_EXCEPTIONAL))

    def test_extra_fixed_point_tag_contradicts_the_report(self):
        with pytest.raises(InvalidDescriptor):
            classify(minimal_cubic(CUBIC_EXTRA_FIXED_POINT))

    @pytest.mark.parametrize("minimal", [True, False], ids=["minimal", "not-minimal"])
    def test_extra_fixed_point_tag_rejected_on_every_branch(self, minimal):
        # the tag says a fixed point lies off the exceptional curves, the report
        # says none does, whether or not the action is minimal
        action = cubic_coxeter_action() if minimal else non_minimal_cubic_action()
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.cubic_family: the extra-fixed-point "
                                                     "family contradicts an all-on-exceptional report$"):
            classify(DelPezzoDescriptor(
                3, action=action, fixed_point_report=ALL_ON_EXCEPTIONAL,
                cubic_family=CUBIC_EXTRA_FIXED_POINT))

    def test_fixed_point_off_exceptional_blows_down(self):
        v = classify(DelPezzoDescriptor(
            3, action=cubic_coxeter_action(),
            fixed_point_report=OFF_EXCEPTIONAL,
            cubic_family=CUBIC_EXTRA_FIXED_POINT))
        assert v.outcome == "not_maximal"
        degrees = [s.k_squared for s in v.chain if s.k_squared is not None]
        assert degrees == [2, 1]
        assert v.chain[-1].detail == "family 10"

    def test_non_minimal_action_blows_down(self):
        v = classify(DelPezzoDescriptor(
            3, action=non_minimal_cubic_action(),
            fixed_point_report=ALL_ON_EXCEPTIONAL))
        assert v.outcome == "not_maximal"
        assert v.chain[-1].detail == "family 10"


class TestQuarticCoverBranch:
    def test_valid_row_is_maximal(self):
        v = classify(DelPezzoDescriptor(2, quartic_row=(48, "2xS4")))
        assert v.outcome == "maximal" and v.family == 9
        assert v.invariant == {"order": 48, "structure": "2xS4"}

    def test_unsatisfied_restrictions_reduce(self):
        v = classify(DelPezzoDescriptor(
            2, quartic_row=(48, "2xS4"), restrictions_satisfied=False))
        assert v.outcome == "not_maximal"
        assert v.chain[-1].detail == "family 10"

    def test_missing_row_reduces(self):
        v = classify(DelPezzoDescriptor(2))
        assert v.outcome == "not_maximal"
        assert [s.k_squared for s in v.chain if s.k_squared is not None] == [1]

    def test_mispaired_row_rejected(self):
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.quartic_row: \(336, '2xS4'\) is not a row "):
            classify(DelPezzoDescriptor(2, quartic_row=(336, "2xS4")))

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidDescriptor):
            classify(DelPezzoDescriptor(2, quartic_row=(48, "S4")))


#: a well-formed JSON value for every descriptor field of some row, and for
#: "degree" on the kinds that are not del Pezzo
FIELD_VALUES = {
    "degree": 5,
    "p1xp1": True,
    "action": {"r": 6, "generators": [jsonio.matrix_json(cubic_coxeter_matrix())]},
    "fixed_point_report": OFF_EXCEPTIONAL,
    "cubic_family": CUBIC_CLEBSCH,
    "parameter": "1",
    "quartic_row": [48, "2xS4"],
    "restrictions_satisfied": False,
    "iso_class_tag": "generic",
    "n": 2,
    "delta": [0, 1, 2, 3],
    "triplet": [[0, 1], [2, 3], [0, 1, 2, 3]],
    "certificate": jsonio.z22_model_json(four_lines_model())["certificate"],
}

#: the same values as a DelPezzoDescriptor holds them
PYTHON_VALUES = {**FIELD_VALUES, "action": cubic_coxeter_action(), "quartic_row": (48, "2xS4")}


def _unread_cases():
    for (kind, degree), (fields, _decide) in RULES.items():
        key = {"degree"} if degree is not None else set()
        written = set(jsonio.CONSTRUCT_KEYS.get(kind, ()))
        for field in sorted(FIELD_VALUES.keys() - set(fields) - key - written) + ["bogus"]:
            row = kind if degree is None else f"{kind}-{degree}"
            yield pytest.param(kind, degree, field, id=f"{row}-{field}")


def _logged_run(doc) -> tuple[int, str]:
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["classify"])
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


class TestDescriptorValidation:
    @pytest.mark.parametrize("kind, degree, field", _unread_cases())
    def test_unread_field_is_refused(self, kind, degree, field):
        # every field that the row does not read, and an unknown key, is one
        # logged InvalidDescriptor line at its path, in the reader and in
        # classify alike
        doc = {"kind": kind, field: FIELD_VALUES.get(field, 1)}
        if degree is not None:
            doc["degree"] = degree
        code, err = _logged_run(doc)
        assert code == 1
        row = kind if degree is None else f"{kind} degree {degree}"
        assert err == f"ERROR cremona: InvalidDescriptor: at $.{field}: not read by the {row} row\n"
        if degree is not None and field in DelPezzoDescriptor._fields:
            with pytest.raises(InvalidDescriptor, match=rf"^at \$\.{field}: "):
                classify(DelPezzoDescriptor(degree, **{field: PYTHON_VALUES[field]}))

    @pytest.mark.parametrize("descriptors", [
        [DelPezzoDescriptor(d) for d in (9, 7, 6, 5, 4, 2, 1)],
        [DelPezzoDescriptor(8, p1xp1=True), DelPezzoDescriptor(8)],
        [DelPezzoDescriptor(4, iso_class_tag="special"), DelPezzoDescriptor(1, iso_class_tag="x")],
        [minimal_cubic(CUBIC_TRIPLE_COVER, "0"), minimal_cubic(CUBIC_CLEBSCH),
         DelPezzoDescriptor(3, action=non_minimal_cubic_action(),
                            fixed_point_report=OFF_EXCEPTIONAL)],
        [DelPezzoDescriptor(2, quartic_row=(48, "2xS4"), restrictions_satisfied=False),
         DelPezzoDescriptor(2, quartic_row=(336, "2xL2(7)"))],
        [d for d in (*golden_maximal_descriptors().values(),
                     *golden_reduction_descriptors().values())
         if isinstance(d, DelPezzoDescriptor)],
    ], ids=["bare", "degree-8", "tags", "cubic", "quartic", "golden"])
    def test_each_row_reads_exactly_its_fields(self, descriptors):
        # a descriptor that records its attribute reads: degree names the row,
        # and the row's decision reads no field it does not declare; over the
        # row's descriptors that carry every field, it reads all of them
        for d in descriptors:
            seen = set()

            class Recording(DelPezzoDescriptor):
                def __getattribute__(self, name):
                    if name in DelPezzoDescriptor._fields:
                        seen.add(name)
                    return super().__getattribute__(name)

            classify(Recording(*d))
            fields = RULES["del-pezzo", d.degree][0]
            full = all(getattr(d, f) != d._field_defaults[f] for f in fields)
            assert seen - {"degree"} <= set(fields), d
            assert "degree" in seen and (not full or seen - {"degree"} == set(fields)), d

    def test_action_rank_must_match_degree(self):
        # degree 3 reads the action, whose lattice must have r = 6
        for r in (5, 7):
            with pytest.raises(InvalidDescriptor, match=rf"^at \$\.action\.r: .* r = 6, got r = {r}$"):
                classify(DelPezzoDescriptor(
                    3, action=LatticeAction(BlowupLattice(r), ()),
                    fixed_point_report=ALL_ON_EXCEPTIONAL, cubic_family=CUBIC_CLEBSCH))

    def test_fixed_point_report_vocabulary(self):
        with pytest.raises(InvalidDescriptor, match=r"^at \$\.fixed_point_report: unknown "):
            classify(DelPezzoDescriptor(3, fixed_point_report="somewhere"))

    @pytest.mark.parametrize("doc", [
        {"cubic_family": CUBIC_CLEBSCH, "parameter": "5"},
        {"cubic_family": CUBIC_EXTRA_FIXED_POINT, "fixed_point_report": OFF_EXCEPTIONAL,
         "parameter": "5"},
        {"parameter": "zz"},
    ], ids=["clebsch", "extra-fixed-point", "untagged"])
    def test_parameter_without_a_parametrized_family_is_refused(self, doc):
        # refused with the tags, before the action is read or minimality decided
        message = ("at $.parameter: only the triple-cover and s4-lambda cubic families "
                   "read a parameter")
        with pytest.raises(InvalidDescriptor) as info:
            classify(DelPezzoDescriptor(3, **doc))
        assert str(info.value) == message
        code, err = _logged_run({"kind": "del-pezzo", "degree": 3, "action": FIELD_VALUES["action"],
                                 "fixed_point_report": ALL_ON_EXCEPTIONAL, **doc})
        assert (code, err) == (1, f"ERROR cremona: InvalidDescriptor: {message}\n")

    def test_restrictions_without_a_quartic_row_are_refused(self):
        message = "at $.restrictions_satisfied: read only with a quartic_row"
        with pytest.raises(InvalidDescriptor) as info:
            classify(DelPezzoDescriptor(2, restrictions_satisfied=False))
        assert str(info.value) == message
        code, err = _logged_run({"kind": "del-pezzo", "degree": 2, "restrictions_satisfied": False})
        assert (code, err) == (1, f"ERROR cremona: InvalidDescriptor: {message}\n")
        # the default, given, is the default
        assert _logged_run({"kind": "del-pezzo", "degree": 2, "restrictions_satisfied": True})[0] == 0

    def test_non_descriptor_rejected(self):
        with pytest.raises(InvalidDescriptor):
            classify("a plane")


class TestConjugacyInvariant:
    def test_maximal_verdicts_carry_data(self):
        v = classify(HirzebruchDescriptor(5))
        assert (v.family, v.invariant) == (4, {"n": 5})

    def test_other_outcomes_do_not(self):
        assert classify(DelPezzoDescriptor(7)).invariant is None
        indeterminate = classify(
            Z22Descriptor(z22_from_triplet(triplet_from_profile((2, 2, 2)))))
        assert indeterminate.invariant is None


CUBIC = BlowupLattice(6)
#: the reflections in the six simple roots of E6; the first and third roots
#: (E_1 - E_2 and E_3 - E_4) are orthogonal, so their reflections commute
SIMPLE_REFLECTIONS = tuple(reflection_matrix(CUBIC, DivisorClass(r)) for r in _CUBIC_SIMPLE_ROOTS)


def mat_power(m, n):
    out = la.identity(len(m))
    for _ in range(n):
        out = la.mat_mul(out, m)
    return out


#: five cubic actions by their generators: two minimal ones with invariant
#: rank 1 (c, c^4), and three that are not (c^6, one reflection, two
#: commuting reflections)
CUBIC_ACTIONS = {
    "coxeter": (cubic_coxeter_matrix(),),
    "coxeter^4": (mat_power(cubic_coxeter_matrix(), 4),),
    "coxeter^6": (mat_power(cubic_coxeter_matrix(), 6),),
    "reflection": SIMPLE_REFLECTIONS[:1],
    "two-reflections": (SIMPLE_REFLECTIONS[0], SIMPLE_REFLECTIONS[2]),
}

#: a move on a generating set: ("swap", i, j) exchanges two generators,
#: ("product", i, j) appends g_i g_j and ("repeat", i, _) appends g_i again;
#: indices are taken modulo the number of generators
generating_moves = st.lists(
    st.tuples(st.sampled_from(("swap", "product", "repeat")),
              st.integers(0, 7), st.integers(0, 7)), max_size=4)


def apply_moves(generators, moves):
    gens = list(generators)
    for move, i, j in moves:
        i, j = i % len(gens), j % len(gens)
        if move == "swap":
            gens[i], gens[j] = gens[j], gens[i]
        elif move == "product":
            gens.append(la.mat_mul(gens[i], gens[j]))
        else:
            gens.append(gens[i])
    return tuple(gens)


def cubic_report(generators) -> str:
    d = DelPezzoDescriptor(3, action=LatticeAction(CUBIC, generators),
                           fixed_point_report=ALL_ON_EXCEPTIONAL,
                           cubic_family=CUBIC_TRIPLE_COVER, parameter="0")
    return jsonio.dumps(jsonio.verdict_json(classify(d)))


class TestMarkingInvariance:
    """A verdict depends on the surface and the group, not on the marking of
    Pic nor on the generators that present the group: conjugating an action
    by a Weyl word w and rewriting its generating set keeps the ``classify``
    bytes and the invariant rank, and w carries the invariant basis onto the
    new one."""

    @pytest.mark.parametrize("name", CUBIC_ACTIONS)
    @settings(max_examples=25, deadline=None)
    @given(word=st.lists(st.integers(0, 5), max_size=12), moves=generating_moves)
    # each example puts first a generator that alone generates a smaller
    # group: on c and c^4 the first two put c^3, resp. c^12 = I, neither of
    # them minimal; the third puts I on the involutions, and on the two
    # reflections the one whose invariant lattice the base case never sees
    @example(word=[], moves=[("product", 0, 0), ("product", 0, 1), ("swap", 0, 2)])
    @example(word=[2, 5, 0], moves=[("product", 0, 0), ("product", 1, 0), ("swap", 2, 0)])
    @example(word=[], moves=[("product", 0, 0), ("swap", 0, 1)])
    def test_weyl_conjugates_and_generating_sets(self, name, word, moves):
        generators = CUBIC_ACTIONS[name]
        w = la.identity(CUBIC.rank)
        for i in word:
            w = la.mat_mul(SIMPLE_REFLECTIONS[i], w)
        w_inv = la.identity(CUBIC.rank)  # each reflection is its own inverse
        for i in reversed(word):
            w_inv = la.mat_mul(SIMPLE_REFLECTIONS[i], w_inv)
        moved = apply_moves([la.mat_mul(la.mat_mul(w, g), w_inv) for g in generators], moves)
        assert cubic_report(moved) == cubic_report(generators)
        rank, basis = invariant_sublattice(LatticeAction(CUBIC, generators))
        moved_rank, moved_basis = invariant_sublattice(LatticeAction(CUBIC, moved))
        assert moved_rank == rank
        assert la.spans_equal([d.coeffs for d in moved_basis],
                              [la.mat_vec(w, d.coeffs) for d in basis])


def entry(report, link_type):
    return report.entries[link_type - 1]


class TestLinkFeasibility:
    def test_plane(self):
        d = DelPezzoDescriptor(9)
        report = link_feasibility(d, classify(d))
        assert (report.family, report.k_squared) == (1, 9)
        assert all(e.status == "excluded" for e in report.entries)
        assert "no finite orbit" in entry(report, 1).reason
        assert "no integer solution" in entry(report, 4).reason

    def test_quadric_rulings_are_exchanged(self):
        d = DelPezzoDescriptor(8, p1xp1=True)
        report = link_feasibility(d, classify(d))
        assert entry(report, 4).status == "excluded"
        assert "rulings" in entry(report, 4).reason

    def test_degree_four_leaves_two_doors_open(self):
        d = DelPezzoDescriptor(4)
        report = link_feasibility(d, classify(d))
        assert entry(report, 1).status == "possibly_open"
        assert entry(report, 2).status == "excluded"
        assert entry(report, 3).status == "excluded"
        assert entry(report, 4).status == "possibly_open"
        assert entry(report, 4).witness == (1, -1)

    def test_second_fibration_witnesses(self):
        d = DelPezzoDescriptor(2, quartic_row=(8, "2^3"))
        degree2 = link_feasibility(d, classify(d))
        assert entry(degree2, 4).witness == (2, -1)
        d = DelPezzoDescriptor(1)
        degree1 = link_feasibility(d, classify(d))
        assert entry(degree1, 4).witness == (4, -1)

    def test_orbit_size_bound_excludes_type_two(self):
        d = DelPezzoDescriptor(5)
        report = link_feasibility(d, classify(d))
        e = entry(report, 2)
        assert e.status == "excluded"
        assert "at least 6" in e.reason

    def test_hirzebruch_fibration_entries(self):
        d = HirzebruchDescriptor(2)
        report = link_feasibility(d, classify(d))
        assert (report.family, report.k_squared) == (4, 8)
        assert all(e.status == "excluded" for e in report.entries)
        assert "unique conic fibration" in entry(report, 4).reason

    def test_exceptional_fibration_entries(self):
        model = exceptional_from_delta(tuple(p1(x) for x in (0, 1, 2, 3)))
        d = ExceptionalDescriptor(model)
        report = link_feasibility(d, classify(d))
        assert (report.family, report.k_squared) == (5, 4)
        assert all(e.status == "excluded" for e in report.entries)
        assert "two sections" in entry(report, 4).reason

    def test_z22_fibration_entries(self):
        d = Z22Descriptor(four_lines_model())
        report = link_feasibility(d, classify(d))
        assert (report.family, report.k_squared) == (11, 2)
        assert all(e.status == "excluded" for e in report.entries)
        assert "not del Pezzo" in entry(report, 4).reason

    #: K^2 of the Mori fibration of each maximal family
    FROZEN_K_SQUARED = {1: 9, 2: 8, 3: 6, 4: 8, 5: 4, 6: 5, 7: 4, 8: 3, 9: 2, 10: 1, 11: 2}

    @pytest.mark.parametrize("family, descriptor", [
        *((int(key.split("-")[1]), d) for key, d in golden_maximal_descriptors().items()),
        (2, HirzebruchDescriptor(0))])
    def test_k_squared_of_each_maximal_family(self, family, descriptor):
        report = link_feasibility(descriptor, classify(descriptor))
        assert (report.family, report.k_squared) == (family, self.FROZEN_K_SQUARED[family])

    def test_non_maximal_descriptors_rejected(self):
        for d in (DelPezzoDescriptor(7),
                  Z22Descriptor(z22_from_triplet(triplet_from_profile((2, 2, 2))))):
            with pytest.raises(NotAMoriFibration):
                link_feasibility(d, classify(d))


class TestGoldenCorpus:
    def test_maximal_descriptors_hit_their_families(self):
        for key, descriptor in golden_maximal_descriptors().items():
            v = classify(descriptor)
            assert v.outcome == "maximal", key
            assert v.family == int(key.split("-")[1]), key

    def test_reduction_chains_descend(self):
        for key, descriptor in golden_reduction_descriptors().items():
            v = classify(descriptor)
            assert v.outcome == "not_maximal", key
            degrees = [s.k_squared for s in v.chain if s.k_squared is not None]
            assert all(a < b for a, b in zip(degrees, degrees[1:])) or (
                all(a > b for a, b in zip(degrees, degrees[1:]))), key
            assert v.chain[-1].move == "maximal-family", key
