"""The JSON reader's one-pass array check against the entry-by-entry walk it
replaced (``tests/reference_kernel.py``): the same value, or the same error
class and message, for well-formed and malformed points, lines, divisors,
matrices and triplets; and no entry walked for a well-formed document."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cremona import geometry, jsonio
from cremona.bundles import z22_from_triplet
from reference_kernel import (
    reference_parse_divisor,
    reference_parse_matrix,
    reference_parse_nonzero,
    reference_parse_p1_points,
    reference_parse_triplet,
)

TRIPLET_444 = [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 8, 9, 10, 11]]


class Sub(int):
    """An int subclass: the walk accepts it, the one-pass check sends it to the walk."""


ints = st.one_of(st.integers(-3, 3), st.integers(-10 ** 300, 10 ** 300))
odd = st.one_of(st.booleans(), st.floats(allow_nan=False), st.sampled_from(["1", "x"]), st.none(),
                st.lists(ints, max_size=2), ints.map(Sub))


def _put(array, i, value):
    i %= len(array)
    return array[:i] + [value] + array[i + 1:]


def arrays(min_size, max_size):
    """Integer arrays of ``min_size`` to ``max_size`` entries, and malformed
    ones: all zero, of another length, a tuple, one odd entry, or no array."""
    well = st.lists(ints, min_size=min_size, max_size=max_size)
    return st.one_of(
        well,
        st.integers(min_size, max_size).map(lambda n: [0] * n),
        st.lists(ints, max_size=max_size + 2),
        well.map(tuple),
        st.tuples(well.filter(bool), st.integers(0, max_size), odd).map(lambda t: _put(*t)),
        odd)


points = st.one_of(arrays(2, 2), ints, st.sampled_from(["inf", "oo", "-3/4", "abc", "1/0", True]))


def _triplet(scales, bad):
    """TRIPLET_444 as unreduced pairs, with at most one point replaced."""
    sets = [[[p * c, c] for p, c in zip(s, scales)] for s in TRIPLET_444]
    if bad is not None:
        (i, j), value = bad
        sets[i][j] = value
    return sets


triplets = st.builds(
    _triplet, st.lists(st.integers(1, 5), min_size=8, max_size=8),
    st.none() | st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 7)), points | st.lists(
        st.one_of(st.integers(1, 9), odd), min_size=2, max_size=2)))
well_matrices = st.integers(1, 6).flatmap(
    lambda c: st.lists(st.lists(ints, min_size=c, max_size=c), min_size=1, max_size=6))
matrices = st.one_of(
    well_matrices,
    st.tuples(well_matrices, st.integers(0, 5), st.integers(0, 5), odd).map(
        lambda t: _put(t[0], t[1], _put(t[0][t[1] % len(t[0])], t[2], t[3]))),
    st.lists(arrays(0, 6), max_size=6),
    st.just([]),
    odd)


def _shape(value):
    """The value with the type of every entry of a tuple, so that an int
    subclass read through is told from the int it should become."""
    if isinstance(value, tuple):
        return tuple(map(_shape, value))
    return type(value), value


def outcome(parse, v):
    try:
        return _shape(parse(v, "$.x"))
    except Exception as exc:  # class and message are what must agree
        return type(exc), str(exc)


def reference_line(v, where):
    return reference_parse_nonzero(geometry.Line, 3, v, where, "the zero form is not a line")


def reference_p2_point(v, where):
    return reference_parse_nonzero(geometry.P2Point, 3, v, where,
                                   "[0, 0, 0] is not a point of the plane")


class TestReaderAgainstTheWalk:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(points, max_size=6) | odd)
    @example([3, [1, True], 4])
    @example([3, [False, 1], 4])
    @example([3, [Sub(2), 3], 4])
    @example([3, [0, 0], 4])
    @example([3, [1.0, 2], 4])
    @example([3, [[1], 2], 4])
    def test_points_of_the_line(self, v):
        assert outcome(jsonio.parse_p1_points, v) == outcome(reference_parse_p1_points, v)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(3, 3))
    def test_lines_and_points_of_the_plane(self, v):
        assert outcome(jsonio.parse_line, v) == outcome(reference_line, v)
        assert outcome(jsonio.parse_p2_point, v) == outcome(reference_p2_point, v)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(0, 10))
    def test_divisors(self, v):
        assert outcome(jsonio.parse_divisor, v) == outcome(reference_parse_divisor, v)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrices)
    def test_matrices(self, v):
        assert outcome(jsonio.parse_matrix, v) == outcome(reference_parse_matrix, v)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(triplets)
    @example(_triplet([1] * 8, ((1, 4), [8, True])))
    @example(_triplet([1] * 8, ((1, 4), [8, 1.0])))
    @example(_triplet([1] * 8, ((1, 4), [0, 0])))
    @example(_triplet([1] * 8, ((2, 0), [Sub(4), 1])))
    def test_triplets(self, v):
        assert outcome(jsonio.parse_triplet, v) == outcome(reference_parse_triplet, v)


def test_well_formed_arrays_walk_no_entry(monkeypatch):
    # a 14 x 14 Klein-four action (k = 12) and a 24-point triplet, as JSON reads them
    doc = json.loads(json.dumps(jsonio.z22_model_json(z22_from_triplet(
        jsonio.parse_triplet(TRIPLET_444, "$")))))
    walked = []
    real = jsonio.expect_int
    monkeypatch.setattr(jsonio, "expect_int", lambda v, where: walked.append(where) or real(v, where))
    generators = [jsonio.parse_matrix(g, f"$.generators[{i}]") for i, g in enumerate(doc["generators"])]
    triplet = jsonio.parse_triplet(doc["triplet"], "$.triplet")
    assert {len(g) for g in generators} == {14} and sum(map(len, triplet.sets)) == 24
    assert walked == []
