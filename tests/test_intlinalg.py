from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona import intlinalg as la
from reference_kernel import reference_hermite_row_form, reference_mat_mul

entries = st.integers(min_value=-6, max_value=6)


def matrices(max_dim: int = 4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m),
                min_size=n, max_size=n,
            )
        )
    )


def square_matrices(max_dim: int = 4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )


def rational_rank(m) -> int:
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    width = len(rows[0]) if rows else 0
    col = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@given(matrices())
@settings(max_examples=150)
def test_hermite_form_properties(m):
    m = la.freeze(m)
    h, u = la.hermite_row_form(m)
    assert la.mat_mul(u, m) == h
    assert abs(sympy.Matrix(u).det()) == 1
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        lead = nz[0]
        assert row[lead] > 0
        pivots.append(lead)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for rank_index, lead in enumerate(pivots):
        for above in range(rank_index):
            assert 0 <= h[above][lead] < h[rank_index][lead]


@given(matrices())
@settings(max_examples=150)
def test_hnf_basis_is_canonical_for_the_row_span(m):
    m = la.freeze(m)
    basis = la.hnf_basis(m)
    assert la.spans_equal(m, basis) or (not basis and all(la.is_zero(r) for r in m))
    assert la.hnf_basis(basis) == basis


@given(matrices())
@settings(max_examples=150)
def test_kernel_annihilates_and_has_complementary_rank(m):
    m = la.freeze(m)
    kernel = la.kernel_basis(m)
    width = len(m[0])
    for v in kernel:
        assert la.mat_vec(m, v) == tuple([0] * len(m))
    assert len(kernel) == width - rational_rank(m)


def test_kernel_is_saturated():
    # the unscaled kernel of (2  0) is spanned by (0, 1), not (0, 2)
    assert la.kernel_basis(((2, 0),)) == ((0, 1),)
    assert la.kernel_basis(((4, 2),)) == ((1, -2),)


def test_spans_equal_detects_proper_sublattices():
    full = ((1, 0), (0, 1))
    index_two = ((1, 0), (0, 2))
    assert not la.spans_equal(full, index_two)
    assert la.spans_equal(index_two, ((1, 0), (0, 2), (1, 2)))


@given(square_matrices(4))
def test_identity_and_transpose(m):
    m = la.freeze(m)
    n = len(m)
    assert la.mat_mul(la.identity(n), m) == m
    assert la.transpose(la.transpose(m)) == m


# the sparse kernel against the dense one it replaced (tests/reference_kernel.py)

sparse_entries = st.one_of(st.just(0), st.just(0), entries)


def shaped(n: int, m: int):
    row = st.lists(sparse_entries, min_size=m, max_size=m).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


units = st.sampled_from((1, -1))
product_entries = st.one_of(st.just(0), st.just(0), units, units, entries)


def product_rows(m: int):
    """Rows rich in 1 and -1: plain, unit rows, and rows whose first nonzero
    entry is 1 or -1 (the add, subtract and first-row paths of mat_mul)."""
    plain = st.lists(product_entries, min_size=m, max_size=m).map(tuple)
    if not m:
        return plain
    lead = st.tuples(st.integers(min_value=0, max_value=m - 1), units, plain)
    unit = lead.map(lambda t: (0,) * t[0] + (t[1],) + (0,) * (m - 1 - t[0]))
    led = lead.map(lambda t: (0,) * t[0] + (t[1],) + t[2][t[0] + 1:])
    return st.one_of(plain, unit, led)


def product_factor(n: int, m: int):
    return st.one_of(shaped(n, m),
                     st.lists(product_rows(m), min_size=n, max_size=n).map(tuple))


@st.composite
def product_pairs(draw):
    n, m, p = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    return draw(product_factor(n, m)), draw(product_factor(m, p))


@given(product_pairs())
@settings(max_examples=300)
def test_mat_mul_matches_dense_reference(pair):
    a, b = pair
    assert la.mat_mul(a, b) == reference_mat_mul(a, b)


@st.composite
def hnf_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    m = draw(st.integers(min_value=0, max_value=6))
    return draw(shaped(n, m))


@given(hnf_inputs())
@settings(max_examples=300)
def test_hermite_row_form_matches_two_array_reference(m):
    assert la.hermite_row_form(m) == reference_hermite_row_form(m)


@pytest.mark.parametrize("m", [
    (),                                  # no rows
    ((), (), ()),                        # no columns
    ((0, 0, 0), (0, 0, 0)),              # only zero rows
    ((0, 2, 4), (0, 0, 0), (0, 3, 5)),   # a zero column and a zero row
])
def test_hermite_row_form_degenerate_shapes(m):
    assert la.hermite_row_form(m) == reference_hermite_row_form(m)


class Count(int):
    """An int subclass, as an entry ``freeze`` must convert."""


class Row(tuple):
    """A tuple subclass, as a row ``freeze`` must copy."""


def test_freeze_converts_entries_to_int():
    for rows in ([[True, 2], (3, False)],   # lists and bools
                 [(1, 2), (3, 0)],          # a list of canonical rows
                 ((1, 2), [3, 0]),          # one list row
                 ((True, 2), (3, 0)),       # a bool in a tuple of tuples
                 ((Count(1), 2), (3, 0)),   # an int subclass
                 (Row((1, 2)), (3, 0))):    # a tuple subclass row
        frozen = la.freeze(rows)
        assert frozen is not rows and frozen == ((1, 2), (3, 0))
        assert type(frozen) is tuple and all(type(row) is tuple for row in frozen)
        assert all(type(x) is int for row in frozen for x in row)


@pytest.mark.parametrize("m", [(), ((),), ((1, -2), (0, 3)), ((5,), (0, 7, 1))])
def test_freeze_returns_a_canonical_matrix_as_it_is(m):
    assert la.freeze(m) is m


@st.composite
def matrix_vector_pairs(draw):
    n, m = (draw(st.integers(min_value=0, max_value=5)) for _ in range(2))
    return draw(shaped(n, m)), draw(shaped(1, m))[0]


@given(matrix_vector_pairs())
@settings(max_examples=200)
def test_mat_vec_matches_dense_reference(pair):
    m, v = pair
    column = tuple((x,) for x in v)
    expected = tuple(row[0] for row in reference_mat_mul(m, column)) if v else (0,) * len(m)
    assert la.mat_vec(m, v) == expected
