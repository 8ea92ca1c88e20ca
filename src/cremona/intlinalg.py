"""Exact linear algebra over the integers for small matrices.

Matrices are immutable tuples of row tuples of Python ints.  Everything
here is fraction free: row reduction is the Hermite normal form computed
with elementary unimodular row operations whose product is tracked, which
gives integer kernels that are automatically saturated (a primitive basis
of the full lattice of integer solutions, not just a finite-index
sublattice).

Sizes in this package stay below 15 x 15, and the matrices it multiplies
are sparse (a fiberwise involution is about a quarter nonzero), so
``mat_mul`` builds each output row as a combination of the rows of the
right factor, one per nonzero entry of the left row, and spends no work
on the zero entries; an entry 1 or -1 adds or subtracts its row as it is.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def freeze(rows: Iterable[Sequence[int]]) -> Mat:
    """Copy ``rows`` into the canonical immutable representation."""
    return tuple(tuple(map(int, row)) for row in rows)


def identity(n: int) -> Mat:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product ``a @ b``, row by row: row i is ``sum_k a[i][k] * b[k]``."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = zero
        for x, brow in zip(row, b):
            # without the +-1 branches the workloads' products take 1.2-1.5x
            # as long on Python 3.10 and 3.11.7, and 1.0-1.2x on 3.12 and 3.13
            if x == 1:
                acc = brow if acc is zero else tuple(map(operator.add, acc, brow))
            elif x == -1:
                acc = tuple(map(operator.sub, acc, brow))
            elif x:
                acc = tuple([s + x * y for s, y in zip(acc, brow)])
        out.append(acc)
    return tuple(out)


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple([sum(map(operator.mul, row, v)) for row in m])


def is_zero(v: Sequence[int]) -> bool:
    return all(x == 0 for x in v)


def hermite_row_form(m: Mat) -> tuple[Mat, Mat]:
    """Row Hermite normal form with its unimodular transform.

    Returns ``(h, u)`` with ``u @ m == h``, ``u`` unimodular, ``h`` in row
    echelon form with positive pivots and the entries above each pivot
    reduced into ``[0, pivot)``.  Zero rows of ``h`` are collected at the
    bottom; the matching rows of ``u`` span the left kernel of ``m``.

    Each working row is a row of ``m`` with its row of ``u`` carried
    behind it, so one row operation updates both.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rows = [list(row) + [1 if i == j else 0 for j in range(nrows)]
            for i, row in enumerate(m)]

    def combine(i: int, j: int, q: int) -> None:
        """rows[i] -= q * rows[j]"""
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]

    pivot_row = 0
    for col in range(ncols):
        live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        if not live:
            continue
        # Euclid on the column entries until a single nonzero survives.
        while len(live) > 1:
            base = min(live, key=lambda i: abs(rows[i][col]))
            for i in live:
                if i == base:
                    continue
                q = rows[i][col] // rows[base][col]
                if q:
                    combine(i, base, q)
            live = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
        top = live[0]
        rows[pivot_row], rows[top] = rows[top], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-x for x in rows[pivot_row]]
        p = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                combine(i, pivot_row, q)
        pivot_row += 1
        if pivot_row == nrows:
            break
    return (tuple(tuple(row[:ncols]) for row in rows),
            tuple(tuple(row[ncols:]) for row in rows))


def hnf_basis(rows: Iterable[Sequence[int]]) -> Mat:
    """Canonical basis of the row span: HNF with zero rows dropped.

    Two integer row sets span the same sublattice exactly when their
    ``hnf_basis`` outputs are equal.
    """
    frozen = freeze(rows)
    if not frozen:
        return ()
    h, _ = hermite_row_form(frozen)
    return tuple(row for row in h if not is_zero(row))


def kernel_basis(m: Mat) -> Mat:
    """Basis of the right kernel ``{x : m @ x == 0}`` as rows, saturated.

    Computed from the unimodular transform of the Hermite form of the
    transpose, then put into canonical HNF shape.  Because the transform
    is invertible over Z, every integer solution is an integer combination
    of the returned rows.
    """
    if not m or not m[0]:
        n = len(m[0]) if m else 0
        return identity(n)
    h, u = hermite_row_form(transpose(m))
    raw = tuple(urow for urow, hrow in zip(u, h) if is_zero(hrow))
    return hnf_basis(raw)


def spans_equal(a: Iterable[Sequence[int]], b: Iterable[Sequence[int]]) -> bool:
    return hnf_basis(a) == hnf_basis(b)
